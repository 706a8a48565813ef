"""The traced benchmark run (perfbench/run.py --trace 1) wraps the functions
that perfbench/spans.py lists, by rebinding module attributes.  Each must stay
a plain module-level function, or the traced run breaks unnoticed."""

import importlib
import importlib.util
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_module_level_function():
    spans = _spans()
    targets = [(modname, name) for modname, names in spans.LAYERS.values() for name in names]
    targets += list(spans.COUNTED.values())
    assert ("dilogzeta.mellin", "d_quad") in targets
    for modname, name in targets:
        fn = getattr(importlib.import_module(modname), name)
        assert isinstance(fn, types.FunctionType), f"{modname}.{name} is {type(fn).__name__}"
        assert fn.__name__ == name and fn.__qualname__ == name, f"{modname}.{name}"
