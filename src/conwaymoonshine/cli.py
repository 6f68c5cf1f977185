"""Command-line interface: batch access to every pipeline and check.

Each check is one parser leaf (`verify delta`, `lattice leech-shell`, ...)
declaring only the options its handler reads, given after the leaf's name.

Exit codes: 0 all requested checks pass, 1 a verification failed,
2 usage or parse errors, or an order or precision no check can reach.
Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import io
import json
import sys
from fractions import Fraction

from . import classdata, cliffordcm, fockoracle, lattice, modgroups, moonshine
from .errors import MoonshineError, NotFoundError, ParseError, PrecisionError, ValidationError
from .frameshape import parse as parse_shape

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(obj, fmt: str):
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        _emit_text(obj)


def _emit_text(obj, indent=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print("%s%s:" % (indent, k))
                _emit_text(v, indent + "  ")
            else:
                print("%s%s: %s" % (indent, k, v))
    elif isinstance(obj, list):
        for v in obj:
            _emit_text(v, indent)
            if isinstance(v, dict):
                print()
    else:
        print("%s%s" % (indent, obj))


def _non_negative(text) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return int(text)


def _resolve_classes(selector: str):
    if selector == "all":
        return list(classdata.registry())
    return [classdata.lookup(selector)]


# -- subcommand handlers -----------------------------------------------------


def cmd_table(args) -> int:
    rows = [rec.to_json() for rec in classdata.registry()]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv_mod.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        _emit(rows, args.format)
    return EXIT_OK


def _twisted_scalar(pi, c_value):
    """The C of `series --shape S --which tw`: --c-value when given, else 0
    for a shape with fixed points and the tabulated c_hat_g for a registry
    shape; any other fixed-point-free shape needs --c-value."""
    if c_value is not None:
        return c_value
    if pi.fixed_points():
        return 0
    for rec in classdata.registry():
        if rec.frame_shape == pi:
            return rec.c_hat_g
    raise ValidationError("%s has no fixed points and is not tabulated: give --c-value" % pi)


def cmd_series(args) -> int:
    if args.c_value is not None and not (args.shape is not None and args.which == "tw"):
        raise ValidationError("--c-value is read only with --shape and --which tw")
    order = Fraction(args.order)
    if args.shape is not None:
        pi, name = parse_shape(args.shape), args.shape
        c = _twisted_scalar(pi, args.c_value) if args.which == "tw" else None
    else:
        rec = classdata.lookup(args.klass)
        pi, name, c = rec.frame_shape, rec.co0_name, rec.c_hat_g
    series = moonshine.T_s_tw(pi, order, c_value=c) if args.which == "tw" else moonshine.T_s(pi, order)
    if args.format == "json":
        _emit({"class": name, "which": args.which, "series": series.to_json()}, "json")
    else:
        print(series.pretty())
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = args.check(args)
    out = [r.to_json() for r in reports]
    ok = all(r.passed for r in reports)
    if args.format == "json":
        _emit({"reports": out, "pass": ok}, "json")
    else:
        for r in reports:
            print("%-24s order %-6s residual %s  %s" % (
                r.name, r.checked_order, r.max_residual, "pass" if r.passed else "FAIL"))
        print("summary: %d/%d pass" % (sum(r.passed for r in reports), len(reports)))
    return EXIT_OK if ok else EXIT_FAIL


def _lemma_reports(args):
    return [moonshine.solve_c_neg(rec, args.order)[1] for rec in _resolve_classes(args.klass)]


def cmd_spinor(args) -> int:
    rec = classdata.lookup(args.klass)
    closed, subset = cliffordcm.class_supertraces(rec.frame_shape)
    match = closed == subset
    closed_q = closed.to_rational()
    table_match = abs(closed_q) == abs(rec.c_hat_g)
    payload = {
        "class": rec.co0_name,
        "closed_form": str(closed_q),
        "subset_oracle": str(subset.to_rational()),
        "table_value": rec.c_hat_g,
        "oracle_matches_closed": match,
        "magnitude_matches_table": table_match,
    }
    _emit(payload, args.format)
    return EXIT_OK if (match and table_match) else EXIT_FAIL


def cmd_fock(args) -> int:
    """Mode-product oracle vs the eta-quotient formulas."""
    degree = Fraction(args.max_degree)
    if args.klass in ("identity", "1A"):
        pi, c_val, name = parse_shape("1^24"), 0, "identity"
    else:
        rec = classdata.lookup(args.klass)
        pi, c_val, name = rec.frame_shape, rec.c_hat_g, rec.co0_name
    ms_u = fockoracle.ModeSystem.from_shape(pi, fockoracle.UNTWISTED, degree)
    ms_t = fockoracle.ModeSystem.from_shape(pi, fockoracle.TWISTED, degree)
    oracle_u = fockoracle.untwisted_supertrace(ms_u)
    oracle_t = fockoracle.twisted_supertrace(ms_t, c_val)
    formula_u = moonshine.t_tilde(pi, degree)
    formula_t = pi.eta_quotient(1, degree + 1) * c_val
    ok_u = oracle_u.agrees_with(formula_u)
    ok_t = oracle_t.agrees_with(formula_t)
    payload = {
        "class": name,
        "max_degree": str(degree),
        "untwisted_match": ok_u,
        "twisted_match": ok_t,
        "untwisted_oracle": oracle_u.pretty(),
        "untwisted_formula": formula_u.pretty(),
        "twisted_oracle": oracle_t.pretty(),
        "twisted_formula": formula_t.pretty(),
    }
    _emit(payload, args.format)
    return EXIT_OK if (ok_u and ok_t) else EXIT_FAIL


def cmd_golay_weights(args) -> int:
    dist = lattice.build_golay().weight_distribution()
    _emit({"weights": {str(k): v for k, v in sorted(dist.items())}}, args.format)
    return EXIT_OK  # build_golay() refuses any other distribution


def cmd_leech_shell(args) -> int:
    count = lattice.build_leech(lattice.build_golay()).shell_count(args.norm)
    _emit({"norm": args.norm, "count": count}, args.format)
    return EXIT_OK


def cmd_frame_check(args) -> int:
    lattice.coordinate_frame(lattice.build_leech(lattice.build_golay()))
    _emit({"frame": "24 orthogonal norm-8 vectors, congruent mod 2*lattice", "pass": True}, args.format)
    return EXIT_OK


def cmd_invariance(args) -> int:
    reports = [
        modgroups.class_invariance_check(
            rec, points=args.points, tol=args.tol, seed=args.seed, samples=args.samples)
        for rec in _resolve_classes(args.klass)
    ]
    ok = all(r["pass"] for r in reports)
    if args.format == "json":
        _emit({"reports": reports, "pass": ok}, "json")
    else:
        for r in reports:
            print("%-5s %-14s max_dev %.3e terms %d bound %.1e  %s" % (
                r["class"], r["label"], r["max_dev"], r["product_terms"],
                r["truncation_bound"], "pass" if r["pass"] else "FAIL"))
        print("summary: %d/%d pass" % (sum(r["pass"] for r in reports), len(reports)))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_n1(args) -> int:
    lift = cliffordcm.golay_lift_section(lattice.build_golay())
    report = cliffordcm.n1_checks(lift)
    payload = {
        k: (str(v) if not isinstance(v, (bool, int)) else v) for k, v in report.items()
    }
    _emit(payload, args.format)
    return EXIT_OK if report.get("passed") else EXIT_FAIL


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="conway-moonshine",
        description="Exact computations and checks for the Conway-group "
        "trace functions, their eta-quotient identities, the spinor module, "
        "and the Golay/Leech structures underneath them.",
    )
    commands = top.add_subparsers(required=True)

    def group(name, help):
        return commands.add_parser(name, help=help).add_subparsers(required=True)

    def leaf(parent, name, handler, help=None, formats=("text", "json")):
        p = parent.add_parser(name, help=help)
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(handler=handler)
        return p

    leaf(commands, "table", cmd_table, "emit the embedded class table", ("text", "json", "csv"))

    p = leaf(commands, "series", cmd_series, "q-expansions of the trace functions")
    selector = p.add_mutually_exclusive_group(required=True)
    selector.add_argument("--class", dest="klass", help="class name, e.g. 2A")
    selector.add_argument("--shape", help="explicit Frame shape, e.g. 2^24/1^24")
    p.add_argument("--which", choices=("s", "tw"), default="s")
    p.add_argument("--order", type=_non_negative, default=10)
    p.add_argument("--c-value", type=int, default=None)

    verify = group("verify", "exact identity checks")
    checks = (
        ("lemma", 25, _lemma_reports),
        ("delta", 50, lambda a: [moonshine.verify_delta_identity(a.order)]),
        ("hecke", 40, lambda a: [moonshine.verify_hecke(a.order)[1]]),
        ("normalization", 6, lambda a: moonshine.normalization_reports(a.order)),
    )
    for name, order, check in checks:
        p = leaf(verify, name, cmd_verify)
        p.add_argument("--order", type=_non_negative, default=order)
        p.set_defaults(check=check)
    verify.choices["lemma"].add_argument("--class", dest="klass", default="all")

    oracle = group("oracle", "independent cross-checks")
    p = leaf(oracle, "fock", cmd_fock, "Fock-space mode products vs eta quotients")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--max-degree", type=int, default=6)
    p = leaf(oracle, "spinor", cmd_spinor, "spinor super trace vs the subset sum")
    p.add_argument("--class", dest="klass", required=True)

    structures = group("lattice", "Golay and Leech verifications")
    leaf(structures, "golay-weights", cmd_golay_weights)
    p = leaf(structures, "leech-shell", cmd_leech_shell)
    p.add_argument("--norm", type=_non_negative, default=4)
    leaf(structures, "frame-check", cmd_frame_check)

    p = leaf(commands, "invariance", cmd_invariance, "numeric modular invariance")
    p.add_argument("--class", dest="klass", default="all")
    p.add_argument("--samples", type=_non_negative, default=12, help="group elements per class")
    p.add_argument("--points", type=_non_negative, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=2024)

    leaf(group("n1", "idempotent and orthogonality checks"), "check", cmd_n1)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MoonshineError as exc:
        if isinstance(exc, (NotFoundError, ValidationError, PrecisionError)):
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
