"""The package's records: construction, equality, hashing, repr and checks.

Every record compares equal to a record of its own class with equal fields
and to nothing else, and the ones built as lookup keys hash by their fields.
`verify` prints `Discrepancy` reprs, so that spelling is pinned as a literal.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from moduli_atlas.brill_noether import BNInput, BNReport, BNRuns, bn_row, bn_runs, classify_bn
from moduli_atlas.hn import ComponentRecord, HNType
from moduli_atlas.lattice import MukaiVector, Surface, _Record
from moduli_atlas.oracle import BnSummary, Discrepancy, GridSpec, sweep
from moduli_atlas.report import ReportRecord, ScanRow, scan_rows
from moduli_atlas.torsion_free import classify_tf_components, tf_listings

S2 = Surface(2)
V = MukaiVector(2, 3, 5)
ALPHA = ComponentRecord("alpha", (1, 0, 2), 7, 1, None, False)
BETA = ComponentRecord("beta", None, 6, 2, None, True)

# class -> its fields, in order, with one valid value each
CASES = [
    (Surface, {"h_squared": 2}),
    (MukaiVector, {"rank": 2, "deg": 3, "a": 5}),
    (HNType, {"surface": S2, "total": V, "m": 1, "ell1": 0, "ell2": 2}),
    (ComponentRecord, {"kind": "alpha", "triple": (1, 0, 2), "dimension": 7, "codimension": 1,
                       "absorbed": None, "threshold_sensitive": False}),
    (BNInput, {"surface": S2, "n": 2, "length": 4}),
    (BNReport, {"verdict": "components", "hilb_dimension": 8, "components": (BETA, ALPHA),
                "mukai_vector": V, "exceptional_case": False}),
    (BNRuns, {"verdict": "components", "hilb_dimension": 8, "mukai_vector": V,
              "exceptional_case": False, "listings": (("alpha", 7, 1, None, False, 1, (0,), (2,)),)}),
    (GridSpec, {"h_squared_values": (2, 4), "n_range": (0, 1), "length_range": (0, 2),
                "m_margin": 3}),
    (BnSummary, {"verdict": "components", "alpha_count": 1, "beta": True, "dimensions": (6, 7)}),
    (Discrepancy, {"h_squared": 2, "n": 2, "length": 4, "threshold": 1, "check": "bn_summary",
                   "main": BnSummary("components", 1, True, (6, 7)),
                   "oracle": BnSummary("components", 1, True, (6, 6))}),
    (ReportRecord, {"kind": "brill-noether", "h_squared": 2, "vector": (2, 2, 2), "n": 2,
                    "length": 4, "verdict": "components", "hilb_dimension": 8, "window": None,
                    "threshold": 1, "tool_version": "0.1.0", "notes": ("a note",),
                    "components": (BETA, ALPHA)}),
    (ScanRow, {"h_squared": 2, "n": 2, "length": 4, "verdict": "components", "alpha_count": 1,
               "beta": True, "min_dim": 6, "max_dim": 7, "threshold": 1}),
]
IDS = [cls.__name__ for cls, _ in CASES]
# the records that check their arguments define `__init__`; the rest get `_Record`'s
CHECKED = [Surface, BNInput, GridSpec]
# BNRuns and ScanRow are built once per point and never used as keys: their
# hashes are not pinned
HASHED = [case for case in CASES if case[0] not in (BNRuns, ScanRow)]


def _other(value):
    """A value of the same shape that differs from `value`, and that every
    record's checks still accept (an even h2 stays even)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 2
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return 0
    if isinstance(value, tuple):
        return value[:-1] + (_other(value[-1]),)
    fields = [getattr(value, name) for name in type(value).__slots__]
    return type(value)(*fields[:-1], _other(fields[-1]))


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_keyword_construction_is_the_positional_call(cls, fields):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert not record != cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_records_differ_in_any_field(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        other = cls(**{**fields, name: _other(value)})
        assert other != record and not other == record, name


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_records_equal_only_records_of_their_class(cls, fields):
    record = cls(**fields)
    assert record != tuple(fields.values())
    assert record != list(fields.values())
    for other_cls, other_fields in CASES:
        if other_cls is not cls:
            assert record != other_cls(**other_fields)
            assert not record == other_cls(**other_fields)


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_construction_takes_exactly_the_fields(cls, fields):
    values = list(fields.values())
    required = len(values) - len(cls.__init__.__defaults__ or ())
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(**fields, unknown=0)


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_records_survive_pickling(cls, fields):
    # a process pool sends records, `Discrepancy` among them, between processes
    record = cls(**fields)
    assert pickle.loads(pickle.dumps(record)) == record


class OneField(_Record):
    __slots__ = ("x",)


class ThreeFields(_Record):
    __slots__ = ("c", "a", "b")


GENERATED = [OneField, ThreeFields] + [cls for cls, _ in CASES if cls not in CHECKED]


@pytest.mark.parametrize("cls", GENERATED, ids=[cls.__name__ for cls in GENERATED])
def test_base_generates_an_init_taking_the_slots_in_order(cls):
    init = cls.__dict__["__init__"]
    code = init.__code__
    assert code.co_varnames[:code.co_argcount] == ("self", *cls.__slots__)
    assert code.co_kwonlyargcount == 0 and init.__defaults__ is None
    assert init.__qualname__ == f"{cls.__name__}.__init__"
    assert init.__module__ == cls.__module__


@pytest.mark.parametrize("cls", [OneField, ThreeFields], ids=["one", "three"])
def test_generated_init_assigns_by_position_and_by_keyword(cls):
    assert cls.__init__.__module__ == __name__
    values = tuple(range(10, 10 + len(cls.__slots__)))
    by_position = cls(*values)
    assert by_position == cls(**dict(zip(cls.__slots__, values)))
    assert [getattr(by_position, name) for name in cls.__slots__] == list(values)


@pytest.mark.parametrize("cls", CHECKED, ids=[cls.__name__ for cls in CHECKED])
def test_records_that_check_their_arguments_keep_their_own_init(cls):
    assert cls.__init__ is cls.__dict__["__init__"]
    assert cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__


@pytest.mark.parametrize("cls, fields", HASHED, ids=[cls.__name__ for cls, _ in HASHED])
def test_equal_records_hash_equal(cls, fields):
    assert hash(cls(**fields)) == hash(cls(*fields.values()))
    assert len({cls(**fields), cls(*fields.values())}) == 1


def test_discrepancy_repr_is_pinned():
    record = Discrepancy(
        2, 3, 4, 1, "bn_summary",
        BnSummary("empty", 0, False, ()), BnSummary("components", 1, False, (5,)),
    )
    assert repr(record) == (
        "Discrepancy(h_squared=2, n=3, length=4, threshold=1, check='bn_summary', "
        "main=BnSummary(verdict='empty', alpha_count=0, beta=False, dimensions=()), "
        "oracle=BnSummary(verdict='components', alpha_count=1, beta=False, dimensions=(5,)))"
    )
    assert str(record) == repr(record)


def test_repr_names_every_field_in_order():
    assert repr(Surface(4)) == "Surface(h_squared=4)"
    assert repr(MukaiVector(2, -3, 0)) == "MukaiVector(rank=2, deg=-3, a=0)"
    assert repr(GridSpec((2,), (0, 1), (0, 2))) == (
        "GridSpec(h_squared_values=(2,), n_range=(0, 1), length_range=(0, 2), m_margin=4)"
    )


def test_grid_margin_defaults_to_four():
    assert GridSpec((2,), (0, 1), (0, 2)).m_margin == 4
    assert GridSpec((2,), (0, 1), (0, 2)) == GridSpec((2,), (0, 1), (0, 2), 4)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Surface(3), "h2 must be even and >= 2"),
        (lambda: BNInput(S2, -1, -3), "twist degree must be nonnegative"),
        (lambda: BNInput(S2, 0, -3), "negative subscheme length"),
        (lambda: GridSpec((), (3, 0), (3, 0), -1), "empty range"),
        (lambda: GridSpec((3, 3), (3, 0), (0, 2), -1), "h2 must be even and >= 2"),
        (lambda: GridSpec((2, 2), (3, 0), (0, 2), -1), "repeated h2 2"),
        (lambda: GridSpec((2,), (0, 1), (2, 0), -1), "empty range"),
        (lambda: GridSpec((2,), (0, 1), (0, 2), -1), "negative enumeration margin"),
        # values that are not integers, and bools, are rejected before any arithmetic
        (lambda: Surface(4.0), "h2 must be an integer, got 4.0"),
        (lambda: Surface(True), "h2 must be an integer, got True"),
        (lambda: BNInput(S2, 1.0, 4), "twist degree must be an integer, got 1.0"),
        (lambda: BNInput(S2, True, 4), "twist degree must be an integer, got True"),
        (lambda: BNInput(S2, -1, 4.0), "twist degree must be nonnegative"),
        (lambda: BNInput(S2, 0, 4.0), "subscheme length must be an integer, got 4.0"),
        (lambda: BNInput(S2, 0, False), "subscheme length must be an integer, got False"),
        (lambda: GridSpec((4.0,), (0, 1), (0, 3)), "h2 must be an integer, got 4.0"),
        (lambda: GridSpec((3,), (0, 1.0), (0, 3)), "h2 must be even and >= 2"),
        (lambda: GridSpec((2,), (0, 1.0), (0, 3)), "range bound must be an integer, got 1.0"),
        (lambda: GridSpec((2,), (0, 1), (False, 3)), "range bound must be an integer, got False"),
        (lambda: GridSpec((2,), (0, 1), (0, 2), 4.0), "enumeration margin must be an integer, got 4.0"),
        (lambda: GridSpec((2,), (1, 0), (0, 2), 4.0), "empty range"),
        # ranges that are not pairs, checked after the surfaces and before the bounds
        (lambda: GridSpec((2,), (0,), (0, 1)), "range must be a pair (low, high), got (0,)"),
        (lambda: GridSpec((2,), (0, 1), (0, 1, 2)), "range must be a pair (low, high), got (0, 1, 2)"),
        (lambda: GridSpec((2,), 3, (0, 1)), "range must be a pair (low, high), got 3"),
        (lambda: GridSpec((2,), [0, 1], (0, 1)), "range must be a pair (low, high), got [0, 1]"),
        (lambda: GridSpec((3,), (0,), (0, 1)), "h2 must be even and >= 2"),
        (lambda: GridSpec((2,), (0, 1.0), (0,)), "range must be a pair (low, high), got (0,)"),
        # a surface that is not a `Surface` is rejected before n and length
        (lambda: BNInput(2, 1, 4), "surface must be a Surface, got 2"),
        (lambda: BNInput(None, -1, 4.0), "surface must be a Surface, got None"),
        (lambda: bn_runs(BNInput(2, 1, 4)), "surface must be a Surface, got 2"),
        (lambda: next(bn_row(2, 1, (4,))), "surface must be a Surface, got 2"),
        # h2 values must be a tuple (a list would make the grid unhashable),
        # checked after emptiness and before the surfaces
        (lambda: GridSpec([2, 4], (0, 3), (0, 3)), "h2 values must be a tuple, got [2, 4]"),
        (lambda: GridSpec([], (0, 3), (0, 3)), "empty range"),
        (lambda: GridSpec([3], (0,), (0, 3)), "h2 values must be a tuple, got [3]"),
        # scan_rows checks its ranges as GridSpec does, then its threshold
        (lambda: scan_rows(S2, (0,), (0, 3), 1), "range must be a pair (low, high), got (0,)"),
        (lambda: scan_rows(S2, (0, 1, 2), (0, 3), 1), "range must be a pair (low, high), got (0, 1, 2)"),
        (lambda: scan_rows(S2, [0, 1], (0, 3), 1), "range must be a pair (low, high), got [0, 1]"),
        (lambda: scan_rows(S2, (False, True), (0, 3), 1), "range bound must be an integer, got False"),
        (lambda: scan_rows(S2, (1, 0), (0, 3.0), 1.5), "range bound must be an integer, got 3.0"),
        (lambda: scan_rows(S2, (1, 0), (0, 3), 1.5), "empty range"),
        (lambda: scan_rows(S2, (0, 1), (0, 3), 1.5), "threshold must be an integer, got 1.5"),
        (lambda: scan_rows(S2, (0, 1), (0, 3), True), "threshold must be an integer, got True"),
        # sweep wants at least one threshold, each an int
        (lambda: sweep(GridSpec((2,), (0, 0), (0, 1))), "no threshold to sweep"),
        (lambda: sweep(GridSpec((2,), (0, 0), (0, 1)), 1.5), "threshold must be an integer, got 1.5"),
        (lambda: sweep(GridSpec((2,), (0, 0), (0, 1)), 1, True), "threshold must be an integer, got True"),
        # both classifiers check the threshold: bn_row after its BNInput,
        # tf_listings after hn_runs has checked the rank
        (lambda: bn_runs(BNInput(S2, 3, 6), 1.5), "threshold must be an integer, got 1.5"),
        (lambda: bn_runs(BNInput(S2, 3, 6), True), "threshold must be an integer, got True"),
        (lambda: classify_bn(BNInput(S2, 3, 6), 1.5), "threshold must be an integer, got 1.5"),
        (lambda: classify_bn(BNInput(S2, 3, 6), True), "threshold must be an integer, got True"),
        (lambda: next(bn_row(S2, 3, (6,), 1.5)), "threshold must be an integer, got 1.5"),
        (lambda: next(bn_row(S2, 3, (6,), True)), "threshold must be an integer, got True"),
        (lambda: next(bn_row(S2, -1, (6,), 1.5)), "twist degree must be nonnegative"),
        (lambda: tf_listings(S2, V, 4, 0.5), "threshold must be an integer, got 0.5"),
        (lambda: tf_listings(S2, V, 4, False), "threshold must be an integer, got False"),
        (lambda: tf_listings(S2, MukaiVector(1, 3, 5), 4, 0.5), "unsupported rank"),
        (lambda: classify_tf_components(S2, V, 4, 0.5), "threshold must be an integer, got 0.5"),
        (lambda: classify_tf_components(S2, V, 4, False), "threshold must be an integer, got False"),
        # scan_rows leaves the surface to bn_row, which checks it before it is read
        (lambda: scan_rows(2, (0, 1), (0, 3), 1), "surface must be a Surface, got 2"),
    ],
)
def test_checks_keep_their_messages_and_precedence(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_cli_cold_import_leaves_out_dataclasses_and_inspect():
    # the records are plain classes, so a one-shot command pays for neither module
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, moduli_atlas.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"
