import json
from importlib import resources

import jsonschema
import pytest

from hypothesis import given, settings, strategies as st

from moduli_atlas.brill_noether import BNInput, classify_bn
from moduli_atlas.lattice import MukaiVector, Surface
from moduli_atlas.report import (
    CSV_COLUMNS,
    ComponentRecord,
    ReportRecord,
    ScanRow,
    NOTE_EXCEPTIONAL,
    NOTE_SEMISTABLE_EMPTY,
    SCAN_COLUMNS,
    SCHEMA_REPORT,
    SCHEMA_SCAN,
    bn_record,
    parse_json,
    render_csv,
    render_json,
    render_scan_csv,
    render_scan_json,
    render_text,
    scan_rows,
    tf_head,
    tf_record,
)
from moduli_atlas.torsion_free import classify_tf_components, mss_nonempty, tf_listings
from moduli_atlas.report import _cell

from util import surfaces, windowed_contexts

S2 = Surface(2)
S4 = Surface(4)


def _schema(name):
    text = resources.files("moduli_atlas.schemas").joinpath(name).read_text()
    return json.loads(text)


def _tf_rec(s, v, m_max, threshold=1, include_absorbed=False):
    comps = classify_tf_components(s, v, m_max, threshold)
    return tf_record(s, v, comps, m_max, threshold, include_absorbed)


def _bn_rec(s, n, length, threshold=1):
    inp = BNInput(s, n, length)
    return bn_record(inp, classify_bn(inp, threshold), threshold)


def test_tf_record_roundtrip():
    rec = _tf_rec(S2, MukaiVector(2, 3, 5), 3)
    assert parse_json(render_json(rec)) == rec
    assert len(rec.components) == 11


def test_bn_record_roundtrip():
    for args in ((S4, 1, 4), (S2, 3, 6), (S2, 1, 5), (S2, 3, 2)):
        rec = _bn_rec(*args)
        assert parse_json(render_json(rec)) == rec


def test_parse_rejects_unknown_schema():
    doc = json.loads(render_json(_bn_rec(S4, 1, 4)))
    doc["schema"] = "moduli-atlas/report/v9"
    with pytest.raises(ValueError, match="unsupported report schema"):
        parse_json(json.dumps(doc))


def test_render_json_is_byte_stable():
    rec = _tf_rec(S2, MukaiVector(2, 3, 5), 3)
    assert render_json(rec) == render_json(rec)
    assert render_json(rec).endswith("\n")


def test_report_documents_validate():
    schema = _schema("report-v1.json")
    for rec in (
        _tf_rec(S2, MukaiVector(2, 3, 5), 3),
        _tf_rec(S2, MukaiVector(2, 0, -4), 0, include_absorbed=True),
        _bn_rec(S4, 1, 4),
        _bn_rec(S2, 3, 6),
        _bn_rec(S2, 1, 5),
        _bn_rec(S2, 3, 2),
    ):
        jsonschema.validate(json.loads(render_json(rec)), schema)
        assert json.loads(render_json(rec))["schema"] == SCHEMA_REPORT


def test_csv_columns_fixed():
    rec = _bn_rec(S2, 3, 7)
    lines = render_csv(rec).splitlines()
    assert lines[0] == CSV_COLUMNS
    assert lines[0] == "kind,m,ell1,ell2,dimension,codimension,absorbed,threshold_sensitive"
    assert len(lines) == 1 + len(rec.components)
    assert lines[1].startswith("beta,,,,9,5,,false")
    assert lines[2].startswith("alpha,2,1,2,")


def test_text_banners():
    rec = _tf_rec(S2, MukaiVector(2, 3, 9), 3)
    text = render_text(rec)
    assert NOTE_SEMISTABLE_EMPTY in text
    assert text.rstrip().endswith("3 component(s)")
    rec = _bn_rec(S2, 3, 6)
    assert NOTE_EXCEPTIONAL in render_text(rec)
    assert "3 component(s)" in render_text(rec)
    rec = _bn_rec(S2, 1, 5)
    assert "whole Hilbert scheme (dimension 10)" in render_text(rec)
    rec = _bn_rec(S2, 3, 2)
    assert "empty locus" in render_text(rec)


def test_tf_record_hides_absorbed_strata():
    v = MukaiVector(2, 0, -4)
    hidden = _tf_rec(S2, v, 0)
    shown = _tf_rec(S2, v, 0, include_absorbed=True)
    assert [c.kind for c in hidden.components] == ["semistable"]
    assert [c.kind for c in shown.components] == ["semistable", "hn", "hn", "hn"]
    assert [c.absorbed for c in shown.components] == [False, True, True, True]


@settings(deadline=None)
@given(windowed_contexts(), st.sampled_from([1, 0, -1]), st.booleans())
def test_tf_head_reads_the_semistable_verdict_from_its_listings(ctx, threshold, verbose):
    s, v, m_max = ctx
    listings = tf_listings(s, v, m_max, threshold)
    if not verbose:
        listings = [x for x in listings if not x[3]]  # as classify-tf prints them
    notes = tf_head(s, v, listings, m_max, threshold).notes
    assert notes == (() if mss_nonempty(s, v) else (NOTE_SEMISTABLE_EMPTY,))


def test_records_pass_classifier_components_through():
    inp = BNInput(S2, 3, 7)
    rep = classify_bn(inp, 1)
    assert bn_record(inp, rep, 1).components is rep.components
    assert [c.kind for c in rep.components] == ["beta", "alpha", "alpha", "alpha"]
    seen = set()
    for v, m_max in ((MukaiVector(2, 0, -4), 0), (MukaiVector(2, 3, 5), 3)):
        comps = classify_tf_components(S2, v, m_max)
        kept = tf_record(S2, v, comps, m_max, 1, include_absorbed=False).components
        assert kept == tuple(c for c in comps if not c.absorbed)
        seen.update((c.kind, c.absorbed) for c in comps)
        # the alias of `triple` that bench/tracing.py reads
        assert all(c.hn_type == c.triple for c in comps + list(rep.components))
    assert seen == {("semistable", False), ("hn", True), ("hn", False)}


def test_scan_rows_grid():
    rows = scan_rows(S2, (1, 3), (0, 12), 1)
    assert len(rows) == 39
    assert [(r.n, r.length) for r in rows] == [
        (n, length) for n in (1, 2, 3) for length in range(13)
    ]
    by_key = {(r.n, r.length): r for r in rows}
    assert by_key[(1, 5)].verdict == "whole_hilbert_scheme"
    assert by_key[(1, 5)].min_dim == by_key[(1, 5)].max_dim == 10
    assert by_key[(3, 2)].verdict == "empty"
    assert by_key[(3, 2)].min_dim is None
    assert by_key[(3, 6)].alpha_count == 3
    assert by_key[(3, 6)].beta is False


def test_scan_rows_rejects_empty_ranges():
    with pytest.raises(ValueError, match="empty range"):
        scan_rows(S2, (3, 1), (0, 12), 1)
    with pytest.raises(ValueError, match="empty range"):
        scan_rows(S2, (1, 3), (12, 0), 1)


def test_scan_csv_header_and_stability():
    rows = scan_rows(S2, (1, 3), (0, 12), 1)
    text = render_scan_csv(rows)
    assert text.splitlines()[0] == SCAN_COLUMNS
    assert text.splitlines()[0] == "h2,n,N,verdict,alpha_count,beta,min_dim,max_dim,threshold"
    assert len(text.splitlines()) == 40
    assert text == render_scan_csv(scan_rows(S2, (1, 3), (0, 12), 1))


def test_scan_json_validates():
    rows = scan_rows(S4, (0, 2), (0, 5), 1)
    doc = json.loads(render_scan_json(rows))
    assert doc["schema"] == SCHEMA_SCAN
    jsonschema.validate(doc, _schema("scan-v1.json"))
    assert len(doc["rows"]) == 18


@settings(deadline=None, max_examples=40)
@given(surfaces, st.integers(0, 6), st.integers(0, 20), st.sampled_from([1, -1]))
def test_bn_roundtrip_property(s, n, length, threshold):
    rec = _bn_rec(s, n, length, threshold)
    assert parse_json(render_json(rec)) == rec
    jsonschema.validate(json.loads(render_json(rec)), _schema("report-v1.json"))


# JSON is written from templates; these tests pin the bytes to the canonical
# `json.dumps(doc, indent=2, sort_keys=True)` form of the same document.


def _canonical(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _astuple(x):
    """`x` with each record in it, nested ones too, unpacked into the tuple
    of its fields in order."""
    if isinstance(x, (ReportRecord, ComponentRecord, ScanRow)):
        return tuple(_astuple(getattr(x, name)) for name in type(x).__slots__)
    if isinstance(x, (tuple, list)):
        return type(x)(_astuple(y) for y in x)
    return x


def _typed(x):
    """`x` with the type of every leaf next to its value: 1 == True, but
    (int, 1) != (bool, True), so a count written as `true` is caught."""
    if isinstance(x, (tuple, list)):
        return tuple(_typed(y) for y in x)
    return (type(x), x)


def _assert_report_pinned(rec):
    text = render_json(rec)
    assert text == _canonical(text)
    assert parse_json(text) == rec
    assert _typed(_astuple(parse_json(text))) == _typed(_astuple(rec))


def _assert_scan_pinned(rows):
    text = render_scan_json(rows)
    assert text == _canonical(text)
    doc = json.loads(text)
    assert doc["schema"] == SCHEMA_SCAN
    keys = SCAN_COLUMNS.split(",")  # the ScanRow field order
    assert _typed([[row[k] for k in keys] for row in doc["rows"]]) == _typed(
        [_astuple(r) for r in rows]
    )


ints = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**12), 10**12))
nullable_ints = st.none() | ints
nullable_bools = st.sampled_from([None, True, False])
names = st.sampled_from(["semistable", "hn", "alpha", "beta", "empty"]) | st.text(max_size=6)

component_records = st.builds(
    ComponentRecord,
    names,
    st.none() | st.tuples(ints, ints, ints),
    ints,
    nullable_ints,
    nullable_bools,
    nullable_bools,
)

report_records = st.builds(
    ReportRecord,
    st.sampled_from(["torsion-free", "brill-noether"]),
    ints,
    st.tuples(ints, ints, ints),
    nullable_ints,
    nullable_ints,
    st.none() | names,
    nullable_ints,
    nullable_ints,
    ints,
    st.sampled_from(["0.1.0"]) | st.text(max_size=6),
    st.lists(names, max_size=3).map(tuple),
    st.lists(component_records, max_size=5).map(tuple),
)

scan_row_lists = st.lists(
    st.builds(ScanRow, ints, ints, ints, names, ints, st.booleans(), nullable_ints, nullable_ints, ints),
    max_size=5,
)


@settings(deadline=None)
@given(report_records)
def test_render_json_matches_canonical_dump(rec):
    _assert_report_pinned(rec)


@settings(deadline=None)
@given(scan_row_lists)
def test_render_scan_json_matches_canonical_dump(rows):
    _assert_scan_pinned(rows)


@settings(deadline=None)
@given(scan_row_lists)
def test_render_scan_csv_matches_cell_join(rows):
    # the spelling the renderer replaced: every field of the row through `_cell`
    lines = [SCAN_COLUMNS] + [",".join(_cell(x) for x in _astuple(r)) for r in rows]
    assert render_scan_csv(rows) == "\n".join(lines) + "\n"


def test_render_json_writes_counts_one_and_zero_as_integers():
    comps = (
        ComponentRecord("alpha", (1, 0, 1), 1, 1, None, False),
        ComponentRecord("beta", None, 0, 0, None, True),
        ComponentRecord("hn", (0, 1, 0), 0, None, True, None),
    )
    rec = ReportRecord("brill-noether", 2, (2, 1, 0), 1, 0, "components", 0, 1, 0, "0.1.0", (), comps)
    text = render_json(rec)
    assert '"codimension": 1,' in text and '"codimension": 0,' in text
    assert '"N": 0,' in text and '"window": 1\n' in text
    _assert_report_pinned(rec)
    rows = [ScanRow(2, 1, 0, "components", 1, True, 0, 1, 0)]
    text = render_scan_json(rows)
    assert '"min_dim": 0,' in text and '"max_dim": 1,' in text and '"alpha_count": 1,' in text
    _assert_scan_pinned(rows)


def test_render_json_writes_empty_lists():
    rec = ReportRecord("torsion-free", 2, (2, 0, 0), None, None, None, None, 0, 1, "0.1.0", (), ())
    assert '"components": [],' in render_json(rec) and '"notes": [],' in render_json(rec)
    _assert_report_pinned(rec)
    assert '"rows": [],' in render_scan_json([])
    _assert_scan_pinned([])


def test_classifier_reports_match_canonical_dump():
    for rec in (
        _tf_rec(S2, MukaiVector(2, 3, 5), 3),
        _tf_rec(S2, MukaiVector(2, 3, 9), 3),
        _tf_rec(S2, MukaiVector(2, -3, 1), 1, include_absorbed=True),
        _tf_rec(S4, MukaiVector(2, 0, -4), 2, include_absorbed=True),
        _bn_rec(S4, 1, 4),
        _bn_rec(S2, 3, 6),
        _bn_rec(S2, 1, 5),
        _bn_rec(S2, 3, 2),
        _bn_rec(Surface(6), 4, 17, -1),
    ):
        _assert_report_pinned(rec)
    _assert_scan_pinned(scan_rows(S2, (0, 4), (0, 15), -1))
