"""The record contract of kdl's tuple-built records outside ``kdl.classify``, whose records
tests/test_classify.py covers: read-only fields, equality and hashing that depend on the type,
a ``_replace`` that validates like the constructor, pickle and deepcopy round trips, and the
``Name(field=value, ...)`` repr.  The same contract for the hand-written ``_Value`` classes,
whose equality, hashing and repr read only their compared fields, as the frozen dataclasses
they replace did.  Also pins which kdl class is still a dataclass."""

import copy
import dataclasses
import importlib
import pickle
import sys
from collections import namedtuple

import pytest

from kdl.boundary import AdjacencyEdge, StratumComponent, adjacency_edges, enumerate_components
from kdl.errors import KdlError
from kdl.fans import (
    Cone,
    EllipticSmoothing,
    FanWindow,
    GroupElement,
    HopfSmoothing,
    MumfordNeron,
    RationalSmoothing,
    cone_at,
)
from kdl.graphs import (
    BicolouredGraph,
    GluingSurvey,
    GraphMorphism,
    PolygonGluing,
    RationalModel,
    enumerate_gluings,
    enumerate_rational_models,
    gluing_morphism,
    neron_polygon_graph,
)
from kdl.lattice import IntMatrix, IntVec, _record, _Record, _Value
from kdl.selfcheck import CRITERIA, Criterion, CriterionResult, criterion_tables
from kdl.smoothing import (
    FAMILIES,
    CheckResult,
    FamilyParams,
    FamilySpec,
    QuotientInfo,
    VerificationReport,
    build_family,
    verify_family,
)

UNTWISTED = PolygonGluing((0, 1, 2, 0, 1, 2), (0, 1, 0, 1, 0, 1))
FAMILY = build_family("hopf", e=4, w=2, window=2)
COMPONENTS = enumerate_components(1, 2)

# One record of each converted type as kdl builds it, and the type's fields in constructor order.
RECORDS = {
    BicolouredGraph: (neron_polygon_graph(2), ("white", "black", "edges")),
    GraphMorphism: (gluing_morphism(UNTWISTED), ("source", "target", "white_map", "black_map", "edge_map")),
    PolygonGluing: (UNTWISTED, ("component_targets", "node_targets")),
    GluingSurvey: (enumerate_gluings(up_to_symmetry=True),
                   ("total", "untwisted", "twisted", "invalid", "orbit_counts", "results")),
    RationalModel: (enumerate_rational_models()[0], ("minimal_model", "polygon_size", "blowup_count")),
    StratumComponent: (COMPONENTS[0], ("stratum", "degree", "warp")),
    AdjacencyEdge: (adjacency_edges(COMPONENTS)[0], ("endpoints", "witness", "witness_ref")),
    CriterionResult: (criterion_tables(), ("number", "name", "passed", "detail", "elapsed")),
    Criterion: (CRITERIA[0], ("number", "name", "run")),
    FamilyParams: (FAMILY.params, ("e", "w", "alpha_label", "zeta_label")),
    QuotientInfo: (FAMILY.quotient_info, ("galois_order", "generic_fiber_degree")),
    CheckResult: (verify_family(FAMILY).checks[0], ("name", "passed", "counterexample")),
    VerificationReport: (verify_family(FAMILY), ("family", "checks", "untested")),
    GroupElement: (FAMILY.generators[0], ("lattice_part", "torus_part")),
    FanWindow: (FAMILY.fan, ("kind", "index_range", "cones")),
}
# The one class that stays a dataclass, for the reason kdl.smoothing states.
DATACLASSES = {"SmoothingFamily"}


def kdl_classes() -> list:
    """Every class a kdl module defines, each module imported."""
    modules = ("boundary", "classify", "cli", "errors", "fans", "graphs", "lattice", "selfcheck", "smoothing")
    for name in modules:
        importlib.import_module(f"kdl.{name}")
    return [obj for name, module in sys.modules.items() if name == "kdl" or name.startswith("kdl.")
            for obj in vars(module).values() if isinstance(obj, type) and obj.__module__ == name]


def test_every_record_outside_classify_is_covered():
    records = {cls for cls in kdl_classes() if issubclass(cls, _Record) and cls.__module__ != "kdl.classify"}
    records.discard(_Record)
    assert records == set(RECORDS)
    assert all(issubclass(cls, tuple) and cls.__slots__ == () for cls in records)


def test_the_one_dataclass_left_is_smoothing_family():
    assert {cls.__name__ for cls in kdl_classes() if dataclasses.is_dataclass(cls)} == DATACLASSES


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    return RECORDS[request.param][0]


def values_of(record) -> list:
    return [getattr(record, name) for name in RECORDS[type(record)][1]]


def test_fields_are_read_only_and_the_record_is_its_tuple(record):
    fields, before = RECORDS[type(record)][1], repr(record)
    assert record._fields == fields
    assert len(record) == len(fields) and list(record) == values_of(record) and record[-1] is values_of(record)[-1]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert repr(record) == before


def test_equality_and_hash_depend_on_the_type(record):
    cls, fields = type(record), RECORDS[type(record)][1]
    values = values_of(record)
    rebuilt = cls(**dict(zip(fields, values)))
    subclass = type(cls.__name__, (cls,), {"__slots__": ()})(*values)
    twin = namedtuple(cls.__name__, fields)(*values)
    others = [tuple(values), subclass]
    for other_cls, (_, other_fields) in RECORDS.items():
        if other_cls is not cls and len(other_fields) == len(fields):
            try:
                others.append(other_cls(*values))
            except (TypeError, ValueError, AttributeError, KdlError):
                pass
    assert rebuilt == record and not rebuilt != record
    for other in others:
        assert record != other and other != record
        assert not record == other and not other == record
    # A tuple subclass from elsewhere compares by tuple rules only as the left operand.
    assert record != twin and not record == twin
    try:
        plain_hash = hash(tuple(values))
    except TypeError:  # a field holds a dict or a window's cone mapping
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(rebuilt) == hash(record) != plain_hash
    assert len({record, rebuilt, tuple(values), subclass}) == 3


def test_pickle_and_deepcopy_round_trip(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record) and copied == record and repr(copied) == repr(record)


def test_repr_names_every_field(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in RECORDS[type(record)][1])
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_replace_without_changes_is_an_equal_record(record):
    assert record._replace() == record and type(record)._make(record) == record


# Per validating record: a field and a value its constructor refuses.
REFUSED = [
    (BicolouredGraph, "black", ("C0",)),
    (BicolouredGraph, "edges", [("C9", "p0")]),
    (GraphMorphism, "white_map", {}),
    (GraphMorphism, "edge_map", (0,)),
    (PolygonGluing, "component_targets", (0, 1, 2, 0, 1, 3)),
    (PolygonGluing, "node_targets", (0,) * 5),
    (StratumComponent, "stratum", "x"),
    (StratumComponent, "warp", 3),
    (AdjacencyEdge, "endpoints", (("hopf", 1, 1), ("hopf", 1, 1))),
    (AdjacencyEdge, "witness", "X3Family"),
    (GroupElement, "lattice_part", IntMatrix(((2, 0, 0), (0, 1, 0), (0, 0, 1)))),
    (GroupElement, "torus_part", ("1",)),
]


@pytest.mark.parametrize("cls, name, value", REFUSED, ids=lambda x: x.__name__ if isinstance(x, type) else None)
def test_replace_validates_like_the_constructor(cls, name, value):
    record, fields = RECORDS[cls]
    with pytest.raises((ValueError, KdlError)) as by_constructor:
        cls(**{**dict(zip(fields, values_of(record))), name: value})
    with pytest.raises(type(by_constructor.value)) as by_replace:
        record._replace(**{name: value})
    assert str(by_replace.value) == str(by_constructor.value)


def test_constructors_convert_as_before():
    graph = BicolouredGraph(["a"], ["p"], [["a", "p"]])
    assert graph == BicolouredGraph(("a",), ("p",), (("a", "p"),)) and graph.edges == (("a", "p"),)
    assert PolygonGluing([0, 1, 2, 0, 1, 2], ["0", 1, 0, 1, 0, 1]) == UNTWISTED
    edge = AdjacencyEdge([["hopf", 1, 1], ["rational", 1, 1]], "X1Family", "")
    assert edge.endpoints == (("hopf", 1, 1), ("rational", 1, 1))
    assert GroupElement(FAMILY.generators[0].lattice_part, [1, 1, 1]).torus_part == ("1", "1", "1")
    assert FamilyParams() == FamilyParams(None, None, None, None) and CheckResult("x", True).counterexample is None


# ---------------------------------------------------------------------------
# The hand-written value classes: one value of each, as kdl builds it, its
# compared fields in constructor order, and the repr the dataclass printed.

CONE = cone_at(FAMILY.kind, 0)  # tagged with its formula, and smooth
VALUES = {
    IntVec: (IntVec((1, 2)), ("entries",), "IntVec(entries=(1, 2))"),
    IntMatrix: (IntMatrix(((1, 0), (1, 1))), ("rows",), "IntMatrix(rows=((1, 0), (1, 1)))"),
    Cone: (CONE, ("rays", "rank"), "Cone(rays=(IntVec(entries=(0, 0, 1)), IntVec(entries=(1, 0, 1))), rank=3)"),
    MumfordNeron: (MumfordNeron(), (), "MumfordNeron()"),
    HopfSmoothing: (HopfSmoothing(2), ("e",), "HopfSmoothing(e=2)"),
    EllipticSmoothing: (EllipticSmoothing(), (), "EllipticSmoothing()"),
    RationalSmoothing: (RationalSmoothing(3), ("e",), "RationalSmoothing(e=3)"),
    FamilySpec: (FAMILIES["hopf"], ("min_degree", "kind", "group", "labels", "untested"),
                 f"FamilySpec(min_degree=1, kind={HopfSmoothing!r}, group={FAMILIES['hopf'].group!r}, "
                 f"labels={{'alpha_label': 'alpha'}}, untested={FAMILIES['hopf'].untested!r})"),
}


def test_every_value_class_is_covered():
    values = {cls for cls in kdl_classes() if issubclass(cls, _Value)}
    values.discard(_Value)
    assert values == set(VALUES)
    assert all(not dataclasses.is_dataclass(cls) and cls._fields == VALUES[cls][1] for cls in values)


@pytest.fixture(params=list(VALUES), ids=lambda cls: cls.__name__)
def value(request):
    return VALUES[request.param][0]


def compared(value) -> tuple:
    return tuple(getattr(value, name) for name in VALUES[type(value)][1])


def test_assigning_or_deleting_any_name_raises_attribute_error(value):
    stored, before = dict(vars(value)), repr(value)
    for name in (*VALUES[type(value)][1], *stored, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == stored and repr(value) == before


def test_repr_is_the_dataclass_text(value):
    assert repr(value) == VALUES[type(value)][2]


def test_equality_and_hash_read_only_the_compared_fields(value):
    cls = type(value)
    rebuilt = cls(**dict(zip(cls._fields, compared(value))))
    subclass = type(cls.__name__, (cls,), {})(**dict(zip(cls._fields, compared(value))))
    assert rebuilt == value and value == rebuilt and not rebuilt != value
    for other in (subclass, compared(value), None):
        assert value != other and other != value
    if isinstance(value, FamilySpec):  # its labels are a dict, so it hashes no more than the dataclass did
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == hash(rebuilt) == hash(compared(value))


def test_fields_outside_equality_stay_out_of_it():
    validated = Cone(CONE.rays, CONE.rank)
    other = _record(Cone, rays=CONE.rays, rank=CONE.rank, smooth=False, formula=("another", (1,)))
    assert (CONE.formula, validated.formula) == ((FAMILY.kind, (0,)), None)
    for cone in (validated, other):
        assert cone == CONE and hash(cone) == hash(CONE) and repr(cone) == repr(CONE)
    rows = ((2, 1), (1, 1))
    assert IntMatrix(rows) == IntMatrix._trusted(rows) and hash(IntMatrix(rows)) == hash(IntMatrix._trusted(rows))
    assert IntMatrix(rows) != IntMatrix(((1, 1), (1, 2)))
    assert HopfSmoothing(2) != HopfSmoothing(3) and HopfSmoothing(2) != RationalSmoothing(2)
    spec = FAMILIES["hopf"]
    spec.certified()
    fresh = FamilySpec(**{name: getattr(spec, name) for name in FamilySpec._fields})
    assert "proof" in vars(spec) and "proof" not in vars(fresh) and fresh == spec


def test_pickle_and_deepcopy_keep_every_stored_attribute(value):
    FAMILIES["hopf"].certified()  # so the row carries its proof
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value and repr(copied) == repr(value)
        assert copied is not value and vars(copied) == vars(value) and list(vars(copied)) == list(vars(value))
    assert {"smooth", "formula"} <= set(vars(CONE)) and "cols" in vars(VALUES[IntMatrix][0])
    assert all("ray_coefficients" in vars(VALUES[cls][0]) for cls in (HopfSmoothing, RationalSmoothing))


def test_intvec_and_cone_write_their_own_init():
    # The traced benchmark run wraps the __init__ in a class's own body as
    # the spans lattice.IntVec.new and fans.Cone.new, and __matmul__ as
    # lattice.IntMatrix.matmul.
    assert "__init__" in vars(IntVec) and "__init__" in vars(Cone) and "__matmul__" in vars(IntMatrix)
