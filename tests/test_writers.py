"""The reports the command line writes run by run, read back, are the library's lists.

`classify-tf` and `classify-bn` write their text, CSV and JSON straight from
the per-m listings.  Parsed back, each format must give the components of
`classify_tf_components` (without the absorbed strata unless `--verbose`)
or of `classify_bn(...).components`, in order, with the same kinds, types,
dimensions and flags; and the bytes must equal what the record renderers
make of those components.
"""

import contextlib
import csv
import io
import json
import re

from hypothesis import given, settings, strategies as st

from moduli_atlas.brill_noether import BNInput, classify_bn
from moduli_atlas.cli import main
from moduli_atlas.lattice import MukaiVector, Surface
from moduli_atlas.report import (
    CSV_COLUMNS,
    bn_record,
    parse_json,
    render_csv,
    render_json,
    render_text,
    tf_record,
)
from moduli_atlas.torsion_free import classify_tf_components

RENDERERS = {"text": render_text, "csv": render_csv, "json": render_json}

_TEXT_LINE = re.compile(
    r"^  (?:semistable +stack dimension (?P<ss>-?\d+)"
    r"|type \((?P<hn>-?\d+, -?\d+, -?\d+)\) +stack dimension (?P<hn_dim>-?\d+)(?P<absorbed>  \[absorbed\])?"
    r"|beta +dimension (?P<beta>-?\d+)  codimension (?P<beta_codim>-?\d+)"
    r"|alpha \((?P<alpha>-?\d+, -?\d+, -?\d+)\)  dimension (?P<alpha_dim>-?\d+)"
    r"  codimension (?P<alpha_codim>-?\d+)(?P<sensitive>  \[threshold-sensitive\])?)$"
)


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _triple(text: str) -> tuple[int, int, int]:
    return tuple(int(x) for x in text.split(", "))


def _from_csv(text: str) -> list[tuple]:
    """(kind, triple, dimension, codimension, absorbed, threshold_sensitive) per row."""
    assert text.splitlines()[0] == CSV_COLUMNS

    def cell(x):
        return {"": None, "true": True, "false": False}.get(x, x)

    rows = []
    for r in csv.DictReader(io.StringIO(text)):
        triple = (int(r["m"]), int(r["ell1"]), int(r["ell2"])) if r["m"] else None
        codim = None if r["codimension"] == "" else int(r["codimension"])
        rows.append((r["kind"], triple, int(r["dimension"]), codim,
                     cell(r["absorbed"]), cell(r["threshold_sensitive"])))
    return rows


def _from_text(text: str) -> list[tuple]:
    """(kind, triple, dimension, codimension, tag) per listed line; the tag
    is the absorbed flag of an hn line, the sensitive flag of an alpha line."""
    rows = []
    for line in text.splitlines():
        match = _TEXT_LINE.match(line)
        if not match:
            continue
        g = match.groupdict()
        if g["ss"] is not None:
            rows.append(("semistable", None, int(g["ss"]), None, False))
        elif g["hn"] is not None:
            rows.append(("hn", _triple(g["hn"]), int(g["hn_dim"]), None, g["absorbed"] is not None))
        elif g["beta"] is not None:
            rows.append(("beta", None, int(g["beta"]), int(g["beta_codim"]), False))
        else:
            rows.append(("alpha", _triple(g["alpha"]), int(g["alpha_dim"]),
                         int(g["alpha_codim"]), g["sensitive"] is not None))
    return rows


def _text_tag(c) -> bool:
    if c.kind == "hn":
        return c.absorbed
    return c.kind == "alpha" and c.threshold_sensitive


def _as_text_rows(comps) -> list[tuple]:
    return [(c.kind, c.triple, c.dimension, c.codimension, _text_tag(c)) for c in comps]


def _check(argv: list[str], record) -> None:
    """Every format of `argv` against the record of the expanded components."""
    comps = list(record.components)
    fields = [(c.kind, c.triple, c.dimension, c.codimension, c.absorbed, c.threshold_sensitive)
              for c in comps]
    for fmt, render in RENDERERS.items():
        out = _cli(argv + ["--format", fmt])
        assert out == render(record), fmt
        if fmt == "json":
            assert parse_json(out) == record
            assert render_json(parse_json(out)) == out
        elif fmt == "csv":
            assert _from_csv(out) == fields
        else:
            assert _from_text(out) == _as_text_rows(comps)
            if record.kind == "torsion-free":
                assert out.endswith(f"\n{len(comps)} component(s)\n")


def _check_tf(h2, deg, c2, m_max, threshold, verbose):
    s = Surface(h2)
    v = MukaiVector(2, deg, deg * deg * h2 // 2 + 2 - c2)
    comps = classify_tf_components(s, v, m_max, threshold)
    record = tf_record(s, v, comps, m_max, threshold, include_absorbed=verbose)
    argv = ["classify-tf", "--h2", str(h2), "--deg", str(deg), "--c2", str(c2),
            "--m-max", str(m_max), "--threshold", str(threshold)]
    _check(argv + ["--verbose"] * verbose, record)


def _check_bn(h2, n, length, threshold):
    inp = BNInput(Surface(h2), n, length)
    record = bn_record(inp, classify_bn(inp, threshold), threshold)
    argv = ["classify-bn", "--h2", str(h2), "--n", str(n), "--N", str(length),
            "--threshold", str(threshold)]
    _check(argv, record)


h2s = st.sampled_from([2, 4, 6])
thresholds = st.integers(-3, 3)


@st.composite
def tf_points(draw):
    deg = draw(st.integers(-4, 8))
    m_max = (deg + 1) // 2 + draw(st.integers(0, 4))
    return draw(h2s), deg, draw(st.integers(-4, 40)), m_max, draw(thresholds), draw(st.booleans())


@settings(deadline=None, max_examples=60)
@given(tf_points())
def test_tf_output_reads_back_as_classify_tf_components(point):
    _check_tf(*point)


@settings(deadline=None, max_examples=60)
@given(h2s, st.integers(0, 8), st.integers(0, 60), thresholds)
def test_bn_output_reads_back_as_classify_bn_components(h2, n, length, threshold):
    _check_bn(h2, n, length, threshold)


def test_a_run_longer_than_one_piece_reads_back():
    # m = 1 on v = (2, 1, a) is one run of c2 + 1 types, written in two pieces
    _check_tf(2, 1, 5000, 1, 1, True)


def test_text_prints_a_parsed_null_type_as_none():
    # parse_json accepts an alpha or hn component whose "type" is null
    bn = json.loads(_cli("classify-bn --h2 2 --n 2 --N 3 --format json".split()))
    tf = json.loads(_cli("classify-tf --h2 2 --deg 2 --c2 3 --m-max 1 --format json".split()))
    for doc in (bn, tf):
        doc["components"][0]["type"] = None
    bn["components"][0]["threshold_sensitive"] = True
    tf["components"][0]["absorbed"] = True
    assert render_text(parse_json(json.dumps(bn))) == (
        "locus in Hilb^3  h2=2  n=2  v=(2, 2, 3)  threshold=1\n"
        "verdict: 1 component(s) inside a Hilbert scheme of dimension 6\n"
        "  alpha None  dimension 4  codimension 2  [threshold-sensitive]\n"
    )
    assert render_text(parse_json(json.dumps(tf))) == (
        "torsion-free stack  h2=2  v=(2, 2, 3)  window m<=1  threshold=1\n"
        "note: semistable stack empty\n"
        "  type None   stack dimension -1  [absorbed]\n"
        "1 component(s)\n"
    )
