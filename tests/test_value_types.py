"""The library's immutable value types behave as the frozen dataclasses
they replaced: each is checked against a ``@dataclass(frozen=True)`` twin
with the fields, in order, that the dataclass declared."""

import copy
import itertools
import math
import pickle
import random
from dataclasses import FrozenInstanceError, field, fields, make_dataclass
from fractions import Fraction as F

import pytest

from heunops.bspline import (
    ConstantSigma,
    KernelInstance,
    KnotVector,
    QuadraticSigma,
    TableSigma,
    bspline_density,
)
from heunops.entropy import BSplineOp, EntropyPoint, KantorovichOp, SynchronicityReport
from heunops.exactalg import Frozen, PiecewisePoly, Poly
from heunops.identities import (
    REGISTRY,
    ExactPoly,
    IdentityId,
    NumericGrid,
    OdeResidual,
    RegistryEntry,
    VerificationReport,
)
from heunops.specfun import ConfluentHeunParams, GaussParams, HeunParams, QuadratureRule, SeriesResult


def _entropy_point(x, s, variance):
    return (x, s, -math.log(s), 1.0 - s, variance)


#: each type: the field names of its dataclass declaration, and valid
#: argument tuples that its checks leave as they are (the second, where
#: there is one, differs from the first)
CASES = {
    SeriesResult: ("value terms_used terminated tail_estimate",
                   [(1.5, 26, False, 1e-17), (F(3, 2), 3, True, 0.0)]),
    GaussParams: ("a b c", [(F(1, 2), F(3, 2), 2), (-3, 0.5, 1.5)]),
    HeunParams: ("a q alpha beta gamma delta",
                 [(2, F(1, 2), F(1, 2), F(3, 2), 1, 1), (3.0, 0.25, 0.5, 1.5, 1.0, 1.0)]),
    ConfluentHeunParams: ("p gamma delta alpha sigma",
                          [(1, 2, 0, F(3, 2), 6), (F(1, 2), 1, 1, 0.5, 0.25)]),
    QuadratureRule: ("nodes weights", [((0.25, 0.75), (0.5, 0.5)), ((0.5,), (1.0,))]),
    KnotVector: ("points", [((F(0), F(1), F(2)),), ((F(-1), F(0)),)]),
    ConstantSigma: ("c", [(F(1, 2),), (F(2),)]),
    QuadraticSigma: ("c d", [(F(1), F(1, 2)), (F(2), F(0))]),
    TableSigma: ("xs values", [((F(-1), F(0), F(1)), (F(1, 2), F(2), F(3, 4))),
                               ((F(0), F(1)), (F(1), F(1)))]),
    KernelInstance: ("n x width density", [(2, F(1, 2), F(1), bspline_density([F(-1, 2), F(1, 2), F(3, 2)])),
                                           (1, F(0), F(1, 2), bspline_density([F(-1, 2), F(1, 2)]))]),
    PiecewisePoly: ("breakpoints pieces", [((F(0), F(1), F(2)), (Poly.of(0, 1), Poly.of(2, -1))),
                                           ((F(0), F(1)), (Poly.of(1),))]),
    BSplineOp: ("n sigma", [(3, ConstantSigma(F(1, 2))), (4, QuadraticSigma(F(1), F(1, 2)))]),
    KantorovichOp: ("n k", [(4, 2), (3, 0)]),
    EntropyPoint: ("x squared_kernel_integral renyi tsallis variance",
                   [_entropy_point(0.5, 0.25, 0.125), _entropy_point(-1.0, 0.5, 2.0)]),
    SynchronicityReport: ("passed worst_pair worst_product", [(True, (0, 1), 0.25), (False, (2, 3), -1.5)]),
    ExactPoly: ("", [()]),
    OdeResidual: ("", [()]),
    NumericGrid: ("grid tol", [((0.1, 0.5), 1e-6), ((0.2,), 1e-9)]),
    VerificationReport: ("id params mode max_abs_err points_checked passed",
                         [(IdentityId.I39, {"n": 3}, ExactPoly(), 0.0, 4, True),
                          (IdentityId.I22, {"n": 2}, NumericGrid((0.5,)), 1e-12, 1, False)]),
    RegistryEntry: ("id equation description modes default_params grid tol checker",
                    [tuple(vars(REGISTRY[IdentityId.I39]).values()),
                     tuple(vars(REGISTRY[IdentityId.I22]).values())]),
}

#: fields with a default in the dataclass declaration
DEFAULTS = {NumericGrid: {"tol": 1e-9}}


def _twin(cls):
    defaults = DEFAULTS.get(cls, {})
    spec = [(name, object, field(default=defaults[name])) if name in defaults else (name, object)
            for name in CASES[cls][0].split()]
    return make_dataclass(cls.__name__, spec, frozen=True)


TWINS = {cls: _twin(cls) for cls in CASES}
TYPES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def _samples(cls):
    return CASES[cls][1]


def _items(obj):
    return list(vars(obj).items())


def _outcome(fn):
    """``fn()``, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def _keyword_orders(names):
    """The field order, its reverse, and up to 20 seeded shuffles."""
    orders = [list(names), list(reversed(names))]
    if len(names) <= 4:
        return orders + [list(p) for p in itertools.permutations(names)]
    rng = random.Random(0)
    for _ in range(20):
        order = list(names)
        rng.shuffle(order)
        orders.append(order)
    return orders


def test_every_value_type_is_covered():
    found, todo = set(), [Frozen]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found.update(subclasses)
        todo += subclasses
    assert {cls for cls in found if not cls.__subclasses__()} == set(CASES)
    assert len(CASES) == 20


@TYPES
def test_field_names(cls):
    twin = TWINS[cls]
    assert cls.FIELDS == tuple(f.name for f in fields(twin))
    assert cls.__match_args__ == twin.__match_args__ == cls.FIELDS


@TYPES
def test_repr(cls):
    for args in _samples(cls):
        assert repr(cls(*args)) == repr(TWINS[cls](*args))


@TYPES
def test_equality(cls):
    twin = TWINS[cls]
    first = _samples(cls)[0]
    assert cls(*first) == cls(*first) and not cls(*first) != cls(*first)
    # an equal-fielded instance of another class is not equal, either way round
    assert not cls(*first) == twin(*first) and cls(*first) != twin(*first)
    assert not twin(*first) == cls(*first) and twin(*first) != cls(*first)
    for a, b in itertools.combinations(_samples(cls), 2):
        assert not twin(*a) == twin(*b) and twin(*a) != twin(*b)
        assert not cls(*a) == cls(*b) and cls(*a) != cls(*b)


@TYPES
def test_hash(cls):
    for args in _samples(cls):
        assert _outcome(lambda: hash(cls(*args))) == _outcome(lambda: hash(TWINS[cls](*args)))


@TYPES
def test_construction(cls):
    twin = TWINS[cls]
    for args in _samples(cls):
        assert _items(cls(*args)) == _items(twin(*args))
        values = dict(zip(cls.FIELDS, args))
        for order in _keyword_orders(cls.FIELDS):
            kwargs = {name: values[name] for name in order}
            assert _items(cls(**kwargs)) == _items(twin(**kwargs))
        for split in range(len(args) + 1):
            rest = {name: values[name] for name in reversed(cls.FIELDS[split:])}
            assert _items(cls(*args[:split], **rest)) == _items(twin(*args[:split], **rest))


def test_default_and_class_attributes():
    grid = (0.25, 0.5)
    assert _items(NumericGrid(grid)) == _items(TWINS[NumericGrid](grid)) == [("grid", grid), ("tol", 1e-9)]
    assert NumericGrid(grid) == NumericGrid(grid, 1e-9) == NumericGrid(grid=grid)
    for cls, kind in ((ExactPoly, "exact"), (OdeResidual, "ode"), (NumericGrid, "numeric")):
        assert cls.kind == kind and "kind" not in cls.FIELDS
    assert NumericGrid(grid).kind == "numeric" and "kind" not in vars(NumericGrid(grid))


@TYPES
def test_bad_arguments(cls):
    twin = TWINS[cls]
    args = _samples(cls)[0]
    values = dict(zip(cls.FIELDS, args))
    # too many positional, unknown, missing and repeated arguments
    calls = [(args + (1,), {}), (args, {"bogus": 1})]
    calls += [((), {k: v for k, v in values.items() if k != name})
              for name in cls.FIELDS if name not in DEFAULTS.get(cls, {})]
    if args:
        calls.append((args[:1], values))
    for call_args, kwargs in calls:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*call_args, **kwargs)


@TYPES
def test_frozen(cls):
    for make in (cls, TWINS[cls]):
        obj = make(*_samples(cls)[0])
        before = _items(obj)
        for name in cls.FIELDS + ("extra",):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        assert _items(obj) == before


@TYPES
def test_pickle_and_copy(cls):
    for args in _samples(cls):
        obj = cls(*args)
        want = _items(TWINS[cls](*args))
        for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(back) is cls and back == obj and _items(back) == want
            with pytest.raises(FrozenInstanceError):
                setattr(back, cls.FIELDS[0] if cls.FIELDS else "extra", 1)
