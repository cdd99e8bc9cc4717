import importlib.util
from pathlib import Path

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
