"""Value semantics of the library's records, one small instance per class.

Each record compares, hashes and prints by its fields, in order; the
immutable ones refuse assignment and deletion, and the two mutable ones
(``Certificate`` and ``CriterionResult``) give each instance its own lists.
Fields are listed here by name, not read from the classes.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction as F

import pytest

import nazeta
from nazeta.acceptance import CriterionResult
from nazeta.algebra import Poly, RationalFunction
from nazeta.certificate import Certificate
from nazeta.curve import CurveData, FactorProduct
from nazeta.groupzeta import (
    Decomposition,
    EdgeResidue,
    GroupZeroReport,
    GroupZetaResult,
    UniformityMatch,
    UniformityNotFound,
)
from nazeta.multivar import AtomProduct, LaurentPoly, MultiRationalFunction
from nazeta.numfield import VolumeTable
from nazeta.purezeta import PureZetaInputs, PureZetaResult, RHReport
from nazeta.rootsys import (
    CountTable,
    ParabolicData,
    RootSystem,
    WeylElement,
    WeylGroup,
    build_root_system,
    count_tables,
    enumerate_weyl,
    parabolic_data,
)


def _poly():
    return Poly.from_list([1, -1, 2])


def _rf(var="u"):
    return RationalFunction.make(Poly.of(1), Poly.of(1, 1), var)


def _curve():
    return CurveData(1, 2, _poly())


def _a1():
    rs = build_root_system("A", 1)
    W = enumerate_weyl(rs)
    pd = parabolic_data(rs, W, 1)
    return rs, W, pd


def _group_zeta_fields():
    rs, _, pd = _a1()
    return {
        "zeta": _rf(), "omega": _rf(), "normalization": {}, "c_p": 2,
        "route": "formula2", "curve": _curve(), "rs": rs, "pd": pd,
        "table": count_tables(pd),
    }


def _laurent():
    return LaurentPoly(2, (((0, 1), F(3)),))


# class -> its fields in order, built afresh on every call
FIELDS = {
    Poly: lambda: {"content": F(1, 2), "prim": (1, 2)},
    RationalFunction: lambda: {"num": Poly.of(1), "den": Poly.of(1, 1), "var": "u"},
    Certificate: lambda: {"name": "x", "checks": []},
    CriterionResult: lambda: {"number": 1, "name": "x", "lines": [], "failures": []},
    CurveData: lambda: {"g": 1, "q": 2, "P": _poly()},
    FactorProduct: lambda: {"const": F(2), "upow": 1, "atoms": ((("L", 0, 1), 1),)},
    GroupZetaResult: _group_zeta_fields,
    Decomposition: lambda: {
        "clearing": _rf(), "omega_global": _rf(), "denominator": _rf(),
        "certificate": Certificate("x"),
    },
    GroupZeroReport: lambda: {
        "zeros_u": (1 + 1j,), "deviations": (0.0,), "s_coordinates": ((0.5, 0.25),),
        "center_modulus": 2.0, "verdict": True,
    },
    EdgeResidue: lambda: {"value": F(-2), "order": 1, "principal": ()},
    UniformityMatch: lambda: {"a": F(1), "b": F(0), "c": F(1, 2), "verified": True},
    UniformityNotFound: lambda: {"tried": ((F(1), F(0)),), "skipped": ()},
    LaurentPoly: lambda: {"nvars": 2, "terms": (((0, 1), F(3)),)},
    MultiRationalFunction: lambda: {"num": _laurent(), "den": _laurent()},
    AtomProduct: lambda: {
        "nvars": 1, "content": F(1, 3), "num": (((1,), 2),),
        "atoms": ((("P", 0, (1,)), 1),),
    },
    VolumeTable: lambda: {"siegel": (1.0,), "moduli": (0.5,)},
    PureZetaInputs: lambda: {"r": 2, "alphas": (F(1), F(2)), "beta0": F(3)},
    PureZetaResult: lambda: {
        "zeta": _rf("T"), "completed": _rf("t"), "numerator": _poly(),
        "Q": F(4), "r": 2, "g": 1,
    },
    RHReport: lambda: {
        "polynomial": _poly(), "Q": F(2), "roots": (0.5 + 0.5j,),
        "deviations": (0.0,), "verdict": True,
    },
    RootSystem: lambda: {
        "type_label": "A", "rank": 1, "cartan": ((2,),), "gram": ((2,),),
        "roots": ((1,), (-1,)), "coroot_coords": ((1,), (-1,)),
        "weights": ((F(1, 2),),),
    },
    WeylElement: lambda: {"perm": (1, 0)},
    WeylGroup: lambda: {
        "rs": _a1()[0], "elements": (WeylElement((0, 1)), WeylElement((1, 0))),
        "simple_reflections": (WeylElement((1, 0)),), "identity": WeylElement((0, 1)),
        "longest": WeylElement((1, 0)),
    },
    ParabolicData: lambda: {
        "rs": _a1()[0], "p": 1, "c_p": 2,
        "weyl_subset": (WeylElement((0, 1)), WeylElement((1, 0))),
        "levi_longest": WeylElement((0, 1)), "keys": ((1, 1), (-1, -1)),
    },
    CountTable: lambda: {
        "per_w": ({(1, 1): 1}, {}), "global_counts": {(1, 1): 1, (-1, -1): 1},
        "max_diff": {(1, 2): 1},
    },
}
MUTABLE = {Certificate: 1, CriterionResult: 2}  # class -> constructor arguments
CLASSES = list(FIELDS)


def build(cls):
    fields = FIELDS[cls]()
    return cls(*list(fields.values())[: MUTABLE.get(cls, len(fields))]), fields


def test_every_record_class_is_listed():
    defined = set()
    for info in pkgutil.iter_modules(nazeta.__path__):
        if info.name == "cli":  # the front end's one argparse action
            continue
        module = importlib.import_module(f"nazeta.{info.name}")
        defined |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and not issubclass(obj, Exception)
            and obj.__name__ not in ("Record", "Frozen")  # the bases themselves
        }
    assert defined == set(CLASSES) and len(CLASSES) == 24


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records(cls):
    (a, fields), (b, _) = build(cls), build(cls)
    assert a == b and not a != b
    values = tuple(fields.values())
    assert a != values
    other, _ = build(CLASSES[(CLASSES.index(cls) + 1) % len(CLASSES)])
    assert a != other and other != a
    try:
        expected = hash(values)
    except TypeError:  # a list or dict field: the record is unhashable too
        expected = None
    if cls in MUTABLE or expected is None:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    record, fields = build(cls)
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(record) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if c not in MUTABLE], ids=lambda c: c.__name__
)
def test_immutable_records_refuse_assignment_and_deletion(cls):
    record, fields = build(cls)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) == fields[name]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal(cls):
    record, _ = build(cls)
    for copied in (
        copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))
    ):
        assert copied == record and type(copied) is cls


def test_mutable_records_get_their_own_lists():
    a, b = Certificate("x"), Certificate("x")
    a.record("identity", True)
    assert b.checks == [] and a.checks is not b.checks
    c, d = CriterionResult(1, "x"), CriterionResult(1, "x")
    c.check(False, "line")
    c.failures.append({"identity": "x"})
    assert d.lines == [] and d.failures == []
    assert c.lines is not d.lines and c.failures is not d.failures
