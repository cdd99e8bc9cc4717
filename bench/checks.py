"""Correctness checks for one benchmark op, run outside the timed phase.

Each check parses what the CLI printed or wrote and compares it with the
program's independent oracle (`moduli_atlas.oracle`): `oracle_bn` for the
locus classifier and `oracle_enumerate` for filtration types.  A check
returns the number of output items (components, strata, scan rows or grid
points x thresholds) and a list of problems; an empty list means the op is
correct.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import xml.etree.ElementTree as ET

from moduli_atlas import oracle, report
from moduli_atlas.lattice import MukaiVector, Surface

import workloads

THRESHOLD = 1  # the CLI default; no op passes --threshold
SCAN_SAMPLE = 16  # scan rows per op compared with oracle_bn

_TEXT_VERDICTS = (
    (re.compile(r"^verdict: whole Hilbert scheme"), "whole_hilbert_scheme"),
    (re.compile(r"^verdict: \d+ component\(s\)"), "components"),
    (re.compile(r"^verdict: empty locus"), "empty"),
)
_TEXT_BN_COMPONENT = re.compile(
    r"^  (alpha|beta) +(?:\((-?\d+), (-?\d+), (-?\d+)\))? *dimension (-?\d+)  codimension"
)
_TEXT_TF_COMPONENT = re.compile(
    r"^  (?:(semistable) +stack dimension (-?\d+)"
    r"|type \((-?\d+), (-?\d+), (-?\d+)\) +stack dimension (-?\d+)(  \[absorbed\])?)$"
)
_TRIPLE = re.compile(r"\((-?\d+), (-?\d+), (-?\d+)\)")


def check_op(op: workloads.Op, code: int, stdout: str, stderr: str, files: dict) -> tuple[int, list[str]]:
    """Validate one op's exit code and output; return (items, problems)."""
    if code != 0:
        return 0, [f"exit code {code}: {stderr.strip()[:200]}"]
    if stderr:
        return 0, [f"unexpected stderr: {stderr.strip()[:200]}"]
    try:
        return _CHECKS[op.kind](op, stdout, files)
    except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return 0, [f"unparseable output: {exc!r}"]


def _parsed_json_report(text: str, problems: list[str]) -> report.ReportRecord:
    record = report.parse_json(text)
    if report.render_json(record) != text:
        problems.append("JSON report does not round-trip through report.parse_json")
    return record


def _csv_rows(text: str, header: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header {lines[:1]!r} is not {header!r}")
    return list(csv.DictReader(io.StringIO(text)))


def _check_classify_bn(op, stdout, files):
    problems: list[str] = []
    h2, n, length = op.param("h2"), op.param("n"), op.param("N")
    verdict = None  # stays None where the format cannot tell whole from empty
    if op.fmt == "json":
        record = _parsed_json_report(stdout, problems)
        verdict = record.verdict
        comps = [(c.kind, c.dimension) for c in record.components]
    elif op.fmt == "csv":
        comps = [(r["kind"], int(r["dimension"])) for r in _csv_rows(stdout, report.CSV_COLUMNS)]
        if comps:
            verdict = "components"
    else:
        lines = stdout.splitlines()
        for line in lines:
            for pattern, name in _TEXT_VERDICTS:
                if pattern.match(line):
                    verdict = name
        comps = []
        for line in lines:
            match = _TEXT_BN_COMPONENT.match(line)
            if match:
                comps.append((match.group(1), int(match.group(5))))
        if verdict is None:
            problems.append("no verdict line")
    want = oracle.oracle_bn(Surface(h2), n, length, THRESHOLD)
    got_alpha = sum(1 for kind, _ in comps if kind == "alpha")
    got_beta = any(kind == "beta" for kind, _ in comps)
    got_dims = tuple(sorted(dim for _, dim in comps))
    if verdict is not None and verdict != want.verdict:
        problems.append(f"verdict {verdict} != oracle {want.verdict}")
    if verdict is None and want.verdict == "components":
        problems.append("no components listed, oracle has some")
    if (got_alpha, got_beta, got_dims) != (want.alpha_count, want.beta, want.dimensions):
        problems.append(
            f"components (alpha {got_alpha}, beta {got_beta}) != oracle "
            f"(alpha {want.alpha_count}, beta {want.beta}) or dimensions differ"
        )
    return len(comps), problems


def _tf_components(op, stdout, problems) -> list[tuple[str, tuple | None, bool]]:
    """(kind, triple, absorbed) for every listed stratum of a classify-tf op."""
    if op.fmt == "json":
        record = _parsed_json_report(stdout, problems)
        return [(c.kind, c.triple, bool(c.absorbed)) for c in record.components]
    if op.fmt == "csv":
        return [
            (r["kind"],
             tuple(int(r[k]) for k in ("m", "ell1", "ell2")) if r["m"] else None,
             r["absorbed"] == "true")
            for r in _csv_rows(stdout, report.CSV_COLUMNS)
        ]
    comps = []
    for line in stdout.splitlines():
        match = _TEXT_TF_COMPONENT.match(line)
        if match and match.group(1):
            comps.append(("semistable", None, False))
        elif match:
            triple = tuple(int(match.group(i)) for i in (3, 4, 5))
            comps.append(("hn", triple, match.group(7) is not None))
    if not stdout.endswith(f"\n{len(comps)} component(s)\n"):
        problems.append("component count line does not match the listed strata")
    return comps


def _oracle_triples(op) -> list[tuple[int, int, int]]:
    s = Surface(op.param("h2"))
    v = MukaiVector(2, op.param("deg"), op.param("a"))
    return oracle.oracle_enumerate(s, v, op.param("m_max"))


def _is_subsequence(items: list, of: list) -> bool:
    it = iter(of)
    return all(item in it for item in items)


def _check_classify_tf(op, stdout, files):
    problems: list[str] = []
    comps = _tf_components(op, stdout, problems)
    triples = [t for kind, t, _ in comps if kind == "hn"]
    want = _oracle_triples(op)
    if op.kind == "classify-tf-verbose":
        if triples != want:
            problems.append(f"{len(triples)} types listed, oracle_enumerate finds {len(want)} or another order")
    else:
        if any(absorbed for _, _, absorbed in comps):
            problems.append("absorbed stratum listed without --verbose")
        if not _is_subsequence(triples, want):
            problems.append("listed types are not an ordered subset of oracle_enumerate")
    return len(comps), problems


def _check_polygon(op, stdout, files):
    problems: list[str] = []
    if stdout != f"polygon -> {op.out}\n":
        problems.append(f"unexpected stdout {stdout!r}")
    svg = files[op.out].decode("utf-8")
    root = ET.fromstring(svg)
    labels = [el.text or "" for el in root.iter("{http://www.w3.org/2000/svg}text")]
    chord = any(label.startswith("semistable") for label in labels)
    triples = [
        tuple(int(x) for x in match.groups())
        for label in labels if label.startswith("m=")
        for match in _TRIPLE.finditer(label)
    ]
    if not _is_subsequence(triples, _oracle_triples(op)):
        problems.append("legend types are not an ordered subset of oracle_enumerate")
    return len(triples) + chord, problems


def _scan_table(op, text: str, problems: list[str]) -> list[dict]:
    if op.fmt == "json":
        payload = json.loads(text)
        if payload.get("schema") != report.SCHEMA_SCAN:
            problems.append(f"scan schema {payload.get('schema')!r}")
        if json.dumps(payload, indent=2, sort_keys=True) + "\n" != text:
            problems.append("scan JSON is not in canonical form")
        rows = payload["rows"]
    else:
        rows = _csv_rows(text, report.SCAN_COLUMNS)

    def cell(value):
        return None if value in (None, "") else int(value)

    return [
        {
            "key": (int(r["h2"]), int(r["n"]), int(r["N"])),
            "verdict": r["verdict"],
            "alpha": int(r["alpha_count"]),
            "beta": r["beta"] in (True, "true"),
            "range": (cell(r["min_dim"]), cell(r["max_dim"])),
        }
        for r in rows
    ]


def _check_scan(op, stdout, files):
    problems: list[str] = []
    h2 = op.param("h2")
    (n_lo, n_hi), (len_lo, len_hi) = op.param("n_range"), op.param("N_range")
    keys = [(h2, n, length) for n in range(n_lo, n_hi + 1) for length in range(len_lo, len_hi + 1)]
    if stdout != f"{len(keys)} rows -> {op.out}\n":
        problems.append(f"unexpected stdout {stdout!r}")
    rows = _scan_table(op, files[op.out].decode("utf-8"), problems)
    if [r["key"] for r in rows] != keys:
        problems.append("scan rows do not cover the rectangle in row order")
        return len(rows), problems
    s = Surface(h2)
    sample = random.Random(repr(op.argv)).sample(rows, min(SCAN_SAMPLE, len(rows)))
    for row in sample:
        _, n, length = row["key"]
        want = oracle.oracle_bn(s, n, length, THRESHOLD)
        if want.verdict == "whole_hilbert_scheme":
            want_range = (2 * length, 2 * length)
        elif want.dimensions:
            want_range = (want.dimensions[0], want.dimensions[-1])
        else:
            want_range = (None, None)
        got = (row["verdict"], row["alpha"], row["beta"], row["range"])
        if got != (want.verdict, want.alpha_count, want.beta, want_range):
            problems.append(f"scan row {row['key']} {got} disagrees with oracle_bn")
    return len(rows), problems


def _check_verify(op, stdout, files):
    problems: list[str] = []
    expected = "".join(f"threshold {t}: 0 discrepancies\n" for t in workloads.VERIFY_THRESHOLDS)
    if stdout != expected:
        problems.append(f"verify reported {stdout.strip()!r}")
    (len_lo, len_hi) = op.param("N_range")
    points = len_hi - len_lo + 1
    return points * len(workloads.VERIFY_THRESHOLDS), problems


_CHECKS = {
    "classify-bn": _check_classify_bn,
    "classify-tf": _check_classify_tf,
    "classify-tf-verbose": _check_classify_tf,
    "polygon": _check_polygon,
    "scan": _check_scan,
    "verify": _check_verify,
}
