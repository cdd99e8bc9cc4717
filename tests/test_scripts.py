import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worked_cases_script_reports_no_drift(capsys):
    assert load_script("worked_cases").main() == 0
    assert "drifted" not in capsys.readouterr().err


def test_sweep_report_script_is_reproducible(tmp_path, capsys):
    sweep_report = load_script("sweep_report")
    runs = []
    for out_dir in (tmp_path / "first", tmp_path / "second"):
        argv = ["--h2", "2", "--n-max", "2", "--N-max", "6", "--out-dir", str(out_dir)]
        assert sweep_report.main(argv) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert sorted(runs[0]) == ["polygons_h2_2.svg", "scan_h2_2.csv"]
    assert runs[0] == runs[1]
    assert "0 discrepancies" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad",
    [["--h2", "3"], ["--h2", "2", "--h2", "2"], ["--n-max", "-1"], ["--margin", "-1"]],
    ids=["h2", "h2_repeated", "n_max", "margin"],
)
def test_sweep_report_rejects_bad_input(tmp_path, capsys, bad):
    out_dir = tmp_path / "out"
    assert load_script("sweep_report").main(bad + ["--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_dir.exists()


def _file_in_the_way(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "sub"


def _csv_path_taken(tmp_path):
    (tmp_path / "out" / "scan_h2_2.csv").mkdir(parents=True)
    return tmp_path / "out"


@pytest.mark.parametrize(
    "out_dir", [_file_in_the_way, _csv_path_taken], ids=["makedirs", "write"]
)
def test_sweep_report_maps_io_errors_to_exit_four(tmp_path, capsys, out_dir):
    argv = ["--h2", "2", "--n-max", "1", "--N-max", "2", "--out-dir", str(out_dir(tmp_path))]
    assert load_script("sweep_report").main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
