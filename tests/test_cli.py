import hashlib
import json

import jsonschema
import pytest

from moduli_atlas.cli import (
    CONFIG_ENV,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from moduli_atlas.report import SCAN_COLUMNS
from moduli_atlas.version import VERSION


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_tf_json(capsys):
    code, out, err = run(
        capsys, "classify-tf", "--h2", "2", "--deg", "3", "--a", "5",
        "--m-max", "3", "--format", "json",
    )
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    assert len(doc["components"]) == 11
    assert doc["window"] == 3
    assert doc["vector"] == [2, 3, 5]
    assert doc["components"][0]["kind"] == "semistable"
    assert doc["components"][0]["dimension"] == -1


def test_classify_tf_c2_flag_is_equivalent(capsys):
    _, via_a, _ = run(
        capsys, "classify-tf", "--h2", "2", "--deg", "3", "--a", "5",
        "--m-max", "3", "--format", "json",
    )
    _, via_c2, _ = run(
        capsys, "classify-tf", "--h2", "2", "--deg", "3", "--c2", "6",
        "--m-max", "3", "--format", "json",
    )
    assert via_a == via_c2


def test_classify_tf_empty_semistable_banner(capsys):
    code, out, _ = run(capsys, "classify-tf", "--h2", "2", "--deg", "3", "--a", "9", "--m-max", "3")
    assert code == EXIT_OK
    assert "semistable stack empty" in out
    assert "3 component(s)" in out


def test_classify_tf_default_window(capsys):
    _, out, _ = run(capsys, "classify-tf", "--h2", "2", "--deg", "3", "--a", "5", "--format", "json")
    assert json.loads(out)["window"] == 10


def test_classify_tf_verbose_shows_absorbed(capsys):
    base = ("classify-tf", "--h2", "2", "--deg", "0", "--a", "-4", "--m-max", "0", "--format", "json")
    _, out, _ = run(capsys, *base)
    assert len(json.loads(out)["components"]) == 1
    _, out, _ = run(capsys, *base, "--verbose")
    comps = json.loads(out)["components"]
    assert len(comps) == 4
    assert [c["absorbed"] for c in comps] == [False, True, True, True]


def test_odd_h2_is_a_usage_error(capsys):
    code, _, err = run(capsys, "classify-tf", "--h2", "3", "--deg", "3", "--a", "5")
    assert code == EXIT_USAGE
    assert "h2 must be even and >= 2" in err


def test_missing_h2_is_a_usage_error(capsys):
    code, _, err = run(capsys, "classify-tf", "--deg", "3", "--a", "5")
    assert code == EXIT_USAGE
    assert "missing --h2" in err


def test_missing_vector_entry_is_a_usage_error(capsys):
    code, _, err = run(capsys, "classify-tf", "--h2", "2", "--deg", "3")
    assert code == EXIT_USAGE
    assert "one of --a or --c2" in err


def test_conflicting_vector_flags_rejected(capsys):
    code, _, _ = run(capsys, "classify-tf", "--h2", "2", "--deg", "3", "--a", "5", "--c2", "6")
    assert code == EXIT_USAGE


def test_no_subcommand_is_a_usage_error(capsys):
    assert run(capsys, )[0] == EXIT_USAGE


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert VERSION in out


def test_classify_bn_single_beta_case(capsys):
    code, out, _ = run(capsys, "classify-bn", "--h2", "4", "--n", "1", "--N", "4", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [(c["kind"], c["dimension"], c["codimension"]) for c in doc["components"]] == [
        ("beta", 7, 1)
    ]


def test_classify_bn_exceptional_note(capsys):
    _, out, _ = run(capsys, "classify-bn", "--h2", "2", "--n", "3", "--N", "6")
    assert "exceptional case: no semistable component" in out
    assert out.count("alpha") == 3


def test_classify_bn_whole_scheme(capsys):
    _, out, _ = run(capsys, "classify-bn", "--h2", "2", "--n", "1", "--N", "5", "--format", "json")
    doc = json.loads(out)
    assert doc["verdict"] == "whole_hilbert_scheme"
    assert doc["hilb_dimension"] == 10


def test_classify_bn_negative_n_rejected(capsys):
    code, _, err = run(capsys, "classify-bn", "--h2", "2", "--n", "-1", "--N", "4")
    assert code == EXIT_USAGE
    assert "twist degree" in err


def test_scan_row_count_and_stability(capsys, tmp_path):
    out_file = tmp_path / "t.csv"
    code, out, _ = run(
        capsys, "scan", "--h2", "2", "--n-range", "1..3", "--N-range", "0..12",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert out.startswith("39 rows -> ")
    first = out_file.read_bytes()
    assert first.decode().splitlines()[0] == SCAN_COLUMNS
    assert len(first.decode().splitlines()) == 40
    run(
        capsys, "scan", "--h2", "2", "--n-range", "1..3", "--N-range", "0..12",
        "--out", str(out_file),
    )
    assert out_file.read_bytes() == first


def test_scan_counts_millions_of_components_without_listing_them(capsys, tmp_path):
    # 7.3M alpha components: listing them one by one takes more than 30 s
    out_file = tmp_path / "t.csv"
    code, _, _ = run(
        capsys, "scan", "--h2", "2", "--n-range", "2000..2000",
        "--N-range", "1000000..1000000", "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert out_file.read_text().splitlines()[1] == (
        "2,2000,1000000,components,7303569,false,1002528,1996002,1"
    )


def test_scan_json_validates_against_schema(capsys, tmp_path):
    from importlib import resources

    out_file = tmp_path / "t.json"
    code, _, _ = run(
        capsys, "scan", "--h2", "4", "--n-range", "0..2", "--N-range", "0..5",
        "--out", str(out_file), "--format", "json",
    )
    assert code == EXIT_OK
    schema = json.loads(
        resources.files("moduli_atlas.schemas").joinpath("scan-v1.json").read_text()
    )
    jsonschema.validate(json.loads(out_file.read_text()), schema)


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--h2", "2", "--n-range", "3..1", "--N-range", "0..12", "--out", "t.csv"),
        ("verify", "--h2", "2", "--n-range", "0..2", "--N-range", "5..1"),
    ],
    ids=["scan", "verify"],
)
def test_scan_empty_range_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "empty range" in err
    assert not (tmp_path / "t.csv").exists()


def test_scan_malformed_range_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "scan", "--h2", "2", "--n-range", "1-3", "--N-range", "0..12",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == EXIT_USAGE
    assert "invalid range" in err


def test_scan_unwritable_path_is_an_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "scan", "--h2", "2", "--n-range", "1..3", "--N-range", "0..12",
        "--out", str(tmp_path / "missing" / "t.csv"),
    )
    assert code == EXIT_IO
    assert "error:" in err


def test_polygon_output(capsys, tmp_path):
    out_file = tmp_path / "p.svg"
    code, out, _ = run(
        capsys, "polygon", "--h2", "2", "--deg", "3", "--a", "5", "--m-max", "3",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert out.startswith("polygon -> ")
    svg = out_file.read_text()
    assert svg.count("<polyline ") == 2
    assert svg.count("<line ") == 1
    first = out_file.read_bytes()
    run(
        capsys, "polygon", "--h2", "2", "--deg", "3", "--a", "5", "--m-max", "3",
        "--out", str(out_file),
    )
    assert out_file.read_bytes() == first


def test_polygon_empty_banner(capsys, tmp_path):
    out_file = tmp_path / "p.svg"
    run(
        capsys, "polygon", "--h2", "2", "--deg", "3", "--a", "9", "--m-max", "2",
        "--out", str(out_file),
    )
    assert "no components in window" in out_file.read_text()


def test_verify_clean_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "--h2", "2", "--n-range", "0..3", "--N-range", "0..10",
    )
    assert code == EXIT_OK
    assert "threshold 1: 0 discrepancies" in out
    assert "threshold -1: 0 discrepancies" in out


def test_verify_single_threshold(capsys):
    code, out, _ = run(
        capsys, "verify", "--h2", "2", "--n-range", "0..2", "--N-range", "0..6",
        "--threshold", "1",
    )
    assert code == EXIT_OK
    assert "threshold -1" not in out


def test_verify_reports_discrepancies(capsys, monkeypatch):
    # corrupt the per-m run dimensions the classifier resolves at call time
    import moduli_atlas.brill_noether as bn
    import moduli_atlas.hn as hn

    honest = hn.table_runs
    monkeypatch.setattr(
        bn,
        "table_runs",
        lambda c2, table: ((*run[:4], run[4] + 1) for run in honest(c2, table)),
    )
    code, out, _ = run(
        capsys, "verify", "--h2", "2", "--n-range", "2..3", "--N-range", "4..8",
        "--threshold", "1",
    )
    assert code == 1
    assert "0 discrepancies" not in out
    # the whole stdout, reprs included, is pinned: its head verbatim, the rest by digest
    assert out.splitlines()[:3] == [
        "threshold 1: 21 discrepancies",
        "  Discrepancy(h_squared=2, n=2, length=4, threshold=1, check='bn_summary', "
        "main=BnSummary(verdict='components', alpha_count=1, beta=True, dimensions=(6, 7)), "
        "oracle=BnSummary(verdict='components', alpha_count=1, beta=True, dimensions=(6, 6)))",
        "  Discrepancy(h_squared=2, n=2, length=4, threshold=1, "
        "check='bn_dimension_identity[alpha(1, 0, 2)]', main=7, oracle=6)",
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a716c71f270dd683c3ebb3785f292731af101bd715b05913a741eaac6a17bf66"
    )


def test_verify_takes_h2_and_threshold_from_config(capsys, tmp_path, monkeypatch):
    import moduli_atlas.cli as cli

    swept = []

    def spy(grid, *thresholds):
        swept.append((grid.h_squared_values, thresholds))
        return []

    monkeypatch.setattr(cli, "sweep", spy)
    grid_flags = ("verify", "--n-range", "0..1", "--N-range", "0..2")
    run(capsys, *grid_flags)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h2": 4, "threshold": -1}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, out, _ = run(capsys, *grid_flags)
    assert code == EXIT_OK and out == "threshold -1: 0 discrepancies\n"
    run(capsys, *grid_flags, "--h2", "2", "--h2", "6", "--threshold", "1")
    assert swept == [((2, 4, 6), (1, -1)), ((4,), (-1,)), ((2, 6), (1,))]


def test_config_file_supplies_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h2": 4, "format": "json", "threshold": 1}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, out, _ = run(capsys, "classify-bn", "--n", "1", "--N", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["h2"] == 4
    assert [c["dimension"] for c in doc["components"]] == [7]


def test_flags_override_config(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h2": 4}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    _, out, _ = run(capsys, "classify-bn", "--h2", "2", "--n", "1", "--N", "5", "--format", "json")
    assert json.loads(out)["h2"] == 2


def test_config_out_dir_prefixes_relative_outputs(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h2": 2, "out_dir": str(tmp_path)}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, out, _ = run(
        capsys, "scan", "--n-range", "0..1", "--N-range", "0..1", "--out", "rows.csv",
    )
    assert code == EXIT_OK
    assert (tmp_path / "rows.csv").exists()
    assert str(tmp_path / "rows.csv") in out


def test_config_unknown_keys_rejected(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h2": 2, "colour": "red"}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, _, err = run(capsys, "classify-bn", "--n", "1", "--N", "4")
    assert code == EXIT_USAGE
    assert "unknown config keys: colour" in err


def test_config_invalid_json_rejected(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, _, err = run(capsys, "classify-bn", "--h2", "2", "--n", "1", "--N", "4")
    assert code == EXIT_USAGE
    assert "invalid config file" in err


def test_config_non_object_rejected(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, _, err = run(capsys, "classify-bn", "--h2", "2", "--n", "1", "--N", "4")
    assert code == EXIT_USAGE
    assert "expected a JSON object" in err


def test_config_unreadable_path_rejected(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "absent.json"))
    code, _, err = run(capsys, "classify-bn", "--h2", "2", "--n", "1", "--N", "4")
    assert code == EXIT_USAGE
    assert "cannot read config file" in err


@pytest.mark.parametrize(
    "key, value",
    [("out_dir", 5), ("h2", 2.9), ("threshold", True), ("m_max", "3")],
    ids=["out_dir-int", "h2-float", "threshold-bool", "m_max-str"],
)
def test_config_value_of_wrong_type_rejected(capsys, tmp_path, monkeypatch, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "scan", "--h2", "2", "--n-range", "1..2", "--N-range", "0..3", "--out", "t.csv",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"config key {key!r}" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["classify-tf", "polygon"])
def test_window_below_ceil_half_degree_rejected(capsys, tmp_path, monkeypatch, command, source):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--h2", "2", "--deg", "3", "--a", "5"]
    if command == "polygon":
        argv += ["--out", "p.svg"]

    def run_window(m_max):
        if source == "flag":
            return run(capsys, *argv, "--m-max", str(m_max))
        (tmp_path / "cfg.json").write_text(json.dumps({"m_max": m_max}))
        monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "cfg.json"))
        return run(capsys, *argv)

    for m_max in (-100, 1):
        code, out, err = run_window(m_max)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: window m_max={m_max} is below ceil(deg/2)=2\n"
        assert not (tmp_path / "p.svg").exists()
    code, _, err = run_window(2)
    assert code == EXIT_OK and err == ""


def test_verify_repeated_h2_is_a_usage_error(capsys, monkeypatch):
    import moduli_atlas.cli as cli

    swept = []
    monkeypatch.setattr(cli, "sweep", lambda grid, *thresholds: swept.append(grid) or [])
    code, out, err = run(
        capsys, "verify", "--h2", "2", "--h2", "2", "--n-range", "0..1", "--N-range", "0..2",
    )
    assert (code, out, err) == (EXIT_USAGE, "", "error: repeated h2 2\n")
    assert swept == []


@pytest.mark.parametrize(
    "argv, fmt",
    [
        (("scan", "--n-range", "1..3", "--N-range", "0..12", "--out", "t.csv"), "text"),
        (("classify-bn", "--n", "1", "--N", "4"), "xml"),
        (("classify-tf", "--deg", "3", "--a", "5"), "xml"),
    ],
    ids=["scan", "classify-bn", "classify-tf"],
)
def test_unwritable_config_format_is_rejected_before_any_work(capsys, tmp_path, monkeypatch, argv, fmt):
    import moduli_atlas.cli as cli

    calls = []
    for name in ("scan_rows", "bn_runs", "tf_listings"):
        honest = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, _name=name, _honest=honest: calls.append(_name) or _honest(*a)
        )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h2": 2, "format": fmt}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: unknown format {fmt!r}\n")
    assert calls == []
    assert not (tmp_path / "t.csv").exists()


OPTIONS = {
    "classify-tf": ["--h2", "--deg", "--a", "--c2", "--m-max", "--threshold", "--format", "--verbose"],
    "classify-bn": ["--h2", "--n", "--N", "--threshold", "--format"],
    "scan": ["--h2", "--n-range", "--N-range", "--threshold", "--format", "--out"],
    "polygon": ["--h2", "--deg", "--a", "--c2", "--m-max", "--threshold", "--out"],
    "verify": ["--h2", "--n-range", "--N-range", "--margin", "--threshold"],
}


def option_help(capsys, monkeypatch, command) -> dict:
    """{option: its help text, whitespace collapsed} as `command --help` prints it."""
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = run(capsys, command, "--help")
    assert code == EXIT_OK and err == ""
    entries = []
    for line in out.split("\noptions:\n")[1].splitlines():
        if line.startswith("  -"):  # wrapped help lines are indented deeper
            entries.append(line.split())
        elif entries:
            entries[-1] += line.split()
    helps = {}
    for words in entries:
        option, rest = (words[1], words[2:]) if words[0] == "-h," else (words[0], words[1:])
        metavar = option.lstrip("-").replace("-", "_").upper()
        if rest and (rest[0] == metavar or rest[0].startswith("{")):
            rest = rest[1:]
        helps[option] = " ".join(rest)
    return helps


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_help_names_every_option(capsys, monkeypatch, command):
    assert sorted(option_help(capsys, monkeypatch, command)) == sorted(OPTIONS[command] + ["--help"])


def test_shared_options_have_one_help_text(capsys, monkeypatch):
    shared = ["--h2", "--threshold", "--deg", "--a", "--c2", "--m-max", "--format", "--out"]
    texts = {option: set() for option in shared}
    for command in ("classify-tf", "classify-bn", "scan", "polygon"):
        for option, text in option_help(capsys, monkeypatch, command).items():
            if option in texts:
                texts[option].add(text)
    assert all(len(found) == 1 and "" not in found for found in texts.values()), texts


def test_module_entry_point_prints_the_version():
    import os
    import subprocess
    import sys

    import moduli_atlas

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(moduli_atlas.__file__)))
    env.pop(CONFIG_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-m", "moduli_atlas.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"moduli-atlas {VERSION}\n", "")


# command -> its argv without --h2 and the other options READS names for it
MATRIX_BASE = {
    "classify-tf": "classify-tf --deg 2 --c2 10",
    "classify-bn": "classify-bn --n 3 --N 7",
    "scan": "scan --n-range 0..3 --N-range 0..8 --out table",
    "polygon": "polygon --deg 2 --c2 10 --out p.svg",
    "verify": "verify --n-range 0..1 --N-range 0..3",
}
READS = {
    "classify-tf": ("h2", "threshold", "format", "m_max"),
    "classify-bn": ("h2", "threshold", "format"),
    "scan": ("h2", "threshold", "format"),
    "polygon": ("h2", "threshold", "m_max"),
    "verify": ("h2", "threshold"),
}
# key -> its flag, a value and a second value that gives other bytes
MATRIX_VALUES = {
    "h2": ("--h2", 4, 2),
    "threshold": ("--threshold", -1, 5),
    "format": ("--format", "json", "csv"),
    "m_max": ("--m-max", 4, 2),
}
MATRIX = [(command, key) for command, keys in READS.items() for key in keys]


@pytest.fixture
def run_with(capsys, tmp_path, monkeypatch):
    """run_with(argv, config) -> exit code, stdout, stderr, the bytes of the
    file written and the grid and thresholds verify swept."""
    import moduli_atlas.cli as cli

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    swept = []
    honest = cli.sweep

    def spy(grid, *thresholds):
        swept.append((grid, thresholds))
        return honest(grid, *thresholds)

    monkeypatch.setattr(cli, "sweep", spy)

    def run_with(argv: str, config: dict):
        if config:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "cfg.json"))
        else:
            monkeypatch.delenv(CONFIG_ENV, raising=False)
        code, out, err = run(capsys, *argv.split())
        written = b""
        for path in sorted(work.iterdir()):
            written += path.read_bytes()
            path.unlink()
        result = (code, out, err, written, list(swept))
        swept.clear()
        return result

    return run_with


def _matrix_argv(command: str, key: str, *flags: str) -> str:
    surface = "" if key == "h2" else " --h2 2"
    return " ".join([MATRIX_BASE[command] + surface, *flags])


@pytest.mark.parametrize("command, key", MATRIX)
def test_config_value_gives_the_bytes_of_the_flag(run_with, command, key):
    flag, value, _ = MATRIX_VALUES[key]
    via_flag = run_with(_matrix_argv(command, key, flag, str(value)), {})
    assert via_flag[0] == EXIT_OK and via_flag[2] == ""
    assert run_with(_matrix_argv(command, key), {key: value}) == via_flag


@pytest.mark.parametrize("command, key", MATRIX)
def test_flag_beats_a_different_config_value(run_with, command, key):
    flag, value, other = MATRIX_VALUES[key]
    argv = _matrix_argv(command, key, flag, str(value))
    flag_only = run_with(argv, {})
    assert run_with(_matrix_argv(command, key), {key: other}) != flag_only  # the values differ
    assert run_with(argv, {key: other}) == flag_only


@pytest.mark.parametrize("verbose", [(), ("--verbose",)], ids=["plain", "verbose"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_tf_pairs_v_once(capsys, monkeypatch, fmt, verbose):
    # the head reads the semistable verdict from the listings instead of
    # working it out again
    import moduli_atlas.torsion_free as torsion_free

    calls = []
    real = torsion_free.mukai_pairing
    monkeypatch.setattr(
        torsion_free, "mukai_pairing", lambda s, v, w: calls.append(v) or real(s, v, w)
    )
    for vector in (("--a", "5"), ("--a", "9")):  # semistable locus nonempty, empty
        calls.clear()
        code, _, _ = run(capsys, "classify-tf", "--h2", "2", "--deg", "3", *vector,
                         "--m-max", "3", "--format", fmt, *verbose)
        assert code == EXIT_OK and len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("classify-bn", "--h2", "2", "--n", "3", "--N", "4"),
        ("verify", "--h2", "2", "--n-range", "0..2", "--N-range", "0..4"),
        ("classify-tf", "--help"),
        ("classify-bn", "--h2", "two"),  # argparse's usage error
    ],
    ids=["classify-bn", "verify", "help", "usage-error"],
)
def test_each_call_queries_the_terminal_once(capsys, monkeypatch, argv):
    # argparse would ask once per formatter it builds, one per option
    import shutil

    calls = []
    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or real(*a))
    run(capsys, *argv)
    assert len(calls) == 1


def test_help_width_follows_columns_on_every_call(capsys, monkeypatch):
    # one process, COLUMNS changed between calls: no width frozen at import
    # or at the first call
    helps = []
    for columns in ("60", "120", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(capsys, "classify-tf", "--help")
        assert code == EXIT_OK
        helps.append(out)
    assert helps[0] == helps[2] != helps[1]
