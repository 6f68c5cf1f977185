"""Every function of the package that no command enters is listed, with why it stays.

A fresh interpreter, so that no `lru_cache` or series cache filled by an earlier
test hides a call, runs every leaf of the command line at its defaults, a few
chosen options and one refused input per error type with its own `__init__`,
under `sys.setprofile`.  Every `def` of src/conwaymoonshine, found by `ast`, that
was never entered must be a key of UNREACHED, and every key must be such a def:
a function added without a caller fails here by name, and so does a listed one
that gained a caller.

    PYTHONPATH=src python tests/test_reach.py   # prints the unreached names as JSON
"""

import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "conwaymoonshine"

EXTRA = (
    "verify delta --order 3",
    "series --class 2A --which tw --order 512",
    "series --shape 1^24 --which tw --format json",
)
REFUSED = (  # one input per error type with its own __init__
    "oracle spinor --class 99Z",  # NotFoundError
    "series --shape 1^23",  # ParseError
)
REQUIRED_VALUE = "2A"  # the value given to a leaf's required option

TRACER = "perfbench tracer wraps it"
WORKLOADS = "perfbench workloads call it"
ROUND_TRIP = "text/JSON round trip"
EQ_HASH = "`__eq__`/`__hash__` pair"
CRITERION = "acceptance-criterion API"
REPR = "repr in test failure messages"


def oracle(item):
    return "test oracle until item %d" % item  # ROADMAP item that gives it a production caller


# "module:qualname" of each def no command enters, and why it stays
UNREACHED = {
    "cliffordcm:DenseState.equals": "exact state comparison of the tests",  # n1 reads t(t v) = t v off (a), a theorem
    "cliffordcm:GolayLift.tables": TRACER,
    "cliffordcm:GolayLift.verify_squares": TRACER,  # n1 reads W^2 = 1, and with it (a), off the code's weights
    "cliffordcm:GolayLift.word_table": TRACER,  # its callers in the package are the wrapped tables and verify_squares
    "cliffordcm:WordTable.__eq__": EQ_HASH,  # value equality; it leaves the table unhashable
    "cliffordcm:WordTable.apply": TRACER,  # goes with the wrapped apply_into (ROADMAP item 8)
    "cliffordcm:WordTable.apply_into": TRACER,
    "cliffordcm:WordTable.differs": "row comparison of `__eq__` and the wrapped `verify_squares`",
    "cliffordcm:reorder_sign": oracle(1),
    "cyclotomic:CycNumber.__add__": TRACER,
    "cyclotomic:CycNumber.__hash__": EQ_HASH,
    "cyclotomic:CycNumber.__neg__": TRACER,
    "cyclotomic:CycNumber.__rsub__": TRACER,
    "cyclotomic:CycNumber.__sub__": TRACER,
    "cyclotomic:CycNumber.conj": TRACER,
    "fockoracle:_by_energy": WORKLOADS,
    "fockoracle:_half_subsets": WORKLOADS,
    "fockoracle:subset_enumeration_supertrace": WORKLOADS,
    "frameshape:FrameShape.__eq__": EQ_HASH,
    "frameshape:FrameShape.__hash__": EQ_HASH,
    "frameshape:FrameShape.__repr__": REPR,
    "frameshape:FrameShape.__setattr__": EQ_HASH,  # with read-only exps, immutability keeps the hash stable
    "lattice:BinaryCode.contains": "membership test of `sign_change_frameshape`, an " + CRITERION,
    "lattice:IntegerLattice.__repr__": REPR,
    "lattice:IntegerLattice.gram8": CRITERION,
    "lattice:sign_change_frameshape": CRITERION,
    "modgroups:_tail_estimate": WORKLOADS,
    "modgroups:_tail_estimate.<locals>.estimate": WORKLOADS,
    "modgroups:eval_series": WORKLOADS,
    "moonshine:derived_partner": CRITERION,
    "moonshine:dichotomy_check": CRITERION,
    "moonshine:half_shift_relation": WORKLOADS,
    "qseries:FracPowerSeries.__eq__": EQ_HASH,
    "qseries:FracPowerSeries.__hash__": EQ_HASH,
    "qseries:FracPowerSeries.__neg__": oracle(7),
    "qseries:FracPowerSeries.__pow__": oracle(5),
    "qseries:FracPowerSeries.__repr__": REPR,
    "qseries:FracPowerSeries._common_grid": TRACER,  # the series branch of the wrapped __mul__, and __eq__
    "qseries:FracPowerSeries.from_json": ROUND_TRIP,
    "qseries:FracPowerSeries.from_text": ROUND_TRIP,
    "qseries:FracPowerSeries.invert": TRACER,
    "qseries:FracPowerSeries.rescaled": TRACER,  # through _common_grid
    "qseries:FracPowerSeries.scale_tau": TRACER,
    "qseries:FracPowerSeries.to_text": WORKLOADS,
    "qseries:FracPowerSeries.valuation": oracle(5),  # reached through __pow__
    "qseries:eta": TRACER,
}


def package_defs():
    """{(file, first line of the def or its first decorator): "module:qualname"} for
    every function defined in the package, nested ones included."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(str(path), first)] = "%s:%s" % (module, name)
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return defs


def leaf_argvs(parser, path=()):
    """The argv of every leaf of the parser at its defaults, its required options given."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        argv = list(path)
        for action in parser._actions:
            if action.required:
                argv += [action.option_strings[0], REQUIRED_VALUE]
        for group in parser._mutually_exclusive_groups:
            if group.required:
                argv += [group._group_actions[0].option_strings[0], REQUIRED_VALUE]
        return [argv]
    return [argv for sub in subs for name, child in sub.choices.items()
            for argv in leaf_argvs(child, path + (name,))]


def trace():
    """Run the commands under sys.setprofile; (unreached names, [(argv, exit code)])."""
    defs = package_defs()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        from conwaymoonshine import cli

        runs = leaf_argvs(cli.build_parser())
        runs += [line.split() for line in EXTRA + REFUSED]
        codes = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append((" ".join(argv), cli.main(argv)))
    finally:
        sys.setprofile(None)
    return sorted(name for key, name in defs.items() if key not in entered), codes


def test_unreached_functions_are_the_listed_ones():
    run = subprocess.run([sys.executable, __file__], env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    unreached, codes = json.loads(run.stdout)
    assert codes and all(code == (2 if argv in REFUSED else 0) for argv, code in codes), codes
    new = sorted(set(unreached) - set(UNREACHED))
    assert not new, "no command enters %s: give it a caller, delete it or list it with why it stays" % new
    entered = sorted(set(UNREACHED) - set(unreached))
    assert not entered, "listed as unreached, but entered or not defined: %s" % entered


if __name__ == "__main__":
    print(json.dumps(trace()))
