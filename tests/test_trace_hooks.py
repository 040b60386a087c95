"""The benchmark tracer's hook list resolves against the library.

perfbench/tracer.py wraps each (module, class, attribute) of HOT_METHODS
through ``cls.__dict__[attr]``; a hooked name that the library drops
makes every traced job fail, so the list is checked here, read-only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer,cls_name,attr", _tracer().HOT_METHODS, ids=lambda x: str(x)
)
def test_hot_method_resolves(layer, cls_name, attr):
    module = importlib.import_module(f"nazeta.{layer}")
    if cls_name is None:
        assert callable(getattr(module, attr))
    else:
        assert attr in getattr(module, cls_name).__dict__


def test_traced_residue_builders_exist():
    module = importlib.import_module("nazeta.residues")
    for name in ("weyl_term_full", "iterated_residue"):
        assert callable(getattr(module, name))
