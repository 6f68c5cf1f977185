"""Every name that the benchmark's tracer wraps is defined where it looks for it.

perfbench/tracer.py installs its wrappers by name: `vars(owner)[name]` for a
method, a module attribute for a function.  A renamed or deleted name would
otherwise show up only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.WRAPPED]


def test_traced_names_resolve():
    names = wrapped_names()
    assert names
    for module_name, attr in names:
        module = importlib.import_module("conwaymoonshine." + module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            target = vars(getattr(module, owner_name)).get(name)  # defined on the class itself
        else:
            target = getattr(module, name, None)
        assert callable(target), attr
