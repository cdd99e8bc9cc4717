import json

import jsonschema
import pytest

import moduli_atlas.cli as cli
from moduli_atlas.cli import (
    CONFIG_ENV,
    EXIT_IO,
    EXIT_OK,
    EXIT_OVERFLOW,
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


def test_scan_empty_range_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "scan", "--h2", "2", "--n-range", "3..1", "--N-range", "0..12",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == EXIT_USAGE
    assert "empty range" in err


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
    import dataclasses

    import moduli_atlas.brill_noether as bn
    import moduli_atlas.hn as hn

    honest = hn.hn_runs
    monkeypatch.setattr(
        bn,
        "hn_runs",
        lambda s, v, m_max: [
            dataclasses.replace(r, dimension=r.dimension + 1) for r in honest(s, v, m_max)
        ],
    )
    code, out, _ = run(
        capsys, "verify", "--h2", "2", "--n-range", "2..3", "--N-range", "4..8",
        "--threshold", "1",
    )
    assert code == 1
    assert "0 discrepancies" not in out


def test_overflow_maps_to_exit_three(capsys, monkeypatch):
    def blow_up(*args, **kwargs):
        raise OverflowError("integer width exceeded")

    monkeypatch.setattr(cli, "classify_tf_components", blow_up)
    code, _, err = run(capsys, "classify-tf", "--h2", "2", "--deg", "3", "--a", "5")
    assert code == EXIT_OVERFLOW
    assert "arithmetic overflow" in err


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
