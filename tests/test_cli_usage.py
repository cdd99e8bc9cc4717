"""The exact exit code, stdout and stderr of `--help`, `--version` and usage errors.

Help is printed at 80 columns (`COLUMNS=80`), where Python 3.10, 3.11 and
3.12 lay it out alike.  The usage errors cover both kinds: argparse's (no
command, an unknown command, a bad int, a missing required option, `--a`
with `--c2`, an ambiguous abbreviation), which print the usage and exit 2,
and the CLI's own (a range without `..`, a range of non-integers, an empty
range, a scan range below zero, no surface, a negative verify margin, an odd
verify h2), which print one `error:` line and exit 2.
"""

import pytest

from moduli_atlas.cli import CONFIG_ENV, main
from moduli_atlas.version import VERSION

USAGE = """\
usage: moduli-atlas [-h] [--version]
                    {classify-tf,classify-bn,scan,polygon,verify} ...
"""

USAGE_TF = """\
usage: moduli-atlas classify-tf [-h] [--h2 H2] --deg DEG [--a A | --c2 C2]
                                [--m-max M_MAX] [--threshold THRESHOLD]
                                [--format {text,json,csv}] [--verbose]
"""

USAGE_BN = """\
usage: moduli-atlas classify-bn [-h] [--h2 H2] --n N --N N
                                [--threshold THRESHOLD]
                                [--format {text,json,csv}]
"""

USAGE_SCAN = """\
usage: moduli-atlas scan [-h] [--h2 H2] --n-range N_RANGE --N-range N_RANGE
                         [--threshold THRESHOLD] [--format {csv,json}] --out
                         OUT
"""

# Python 3.13's argparse keeps a required option and its metavar on one line
USAGE_SCAN_313 = """\
usage: moduli-atlas scan [-h] [--h2 H2] --n-range N_RANGE --N-range N_RANGE
                         [--threshold THRESHOLD] [--format {csv,json}]
                         --out OUT
"""

USAGE_POLYGON = """\
usage: moduli-atlas polygon [-h] [--h2 H2] --deg DEG [--a A | --c2 C2]
                            [--m-max M_MAX] [--threshold THRESHOLD] --out OUT
"""

USAGE_VERIFY = """\
usage: moduli-atlas verify [-h] [--h2 H2] [--n-range N_RANGE]
                           [--N-range N_RANGE] [--margin MARGIN]
                           [--threshold THRESHOLD]
"""

HELP = {
    "": USAGE + """
Exact classification of rank-2 torsion-free moduli components and of Brill-
Noether loci of point Hilbert schemes on a Picard-rank-1 K3.

positional arguments:
  {classify-tf,classify-bn,scan,polygon,verify}
    classify-tf         strata of the rank-2 torsion-free stack
    classify-bn         components of the locus W in Hilb^N
    scan                classify a rectangle of (n, N) to a table
    polygon             SVG of the filtration polygons
    verify              sweep the oracle grid and report discrepancies

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "classify-tf": USAGE_TF + """
options:
  -h, --help            show this help message and exit
  --h2 H2               self-intersection of the ample generator
  --deg DEG             degree entry of the vector
  --a A                 trailing entry of the vector
  --c2 C2               second Chern number instead of --a
  --m-max M_MAX         enumeration window, at least ceil(deg/2) (default
                        ceil(deg/2)+8)
  --threshold THRESHOLD
                        absorption threshold (default 1)
  --format {text,json,csv}
                        output format
  --verbose             include absorbed strata
""",
    "classify-bn": USAGE_BN + """
options:
  -h, --help            show this help message and exit
  --h2 H2               self-intersection of the ample generator
  --n N                 twist degree
  --N N                 subscheme length
  --threshold THRESHOLD
                        absorption threshold (default 1)
  --format {text,json,csv}
                        output format
""",
    "scan": USAGE_SCAN + """
options:
  -h, --help            show this help message and exit
  --h2 H2               self-intersection of the ample generator
  --n-range N_RANGE     inclusive range A..B
  --N-range N_RANGE     inclusive range A..B
  --threshold THRESHOLD
                        absorption threshold (default 1)
  --format {csv,json}   output format
  --out OUT             output file
""",
    "polygon": USAGE_POLYGON + """
options:
  -h, --help            show this help message and exit
  --h2 H2               self-intersection of the ample generator
  --deg DEG             degree entry of the vector
  --a A                 trailing entry of the vector
  --c2 C2               second Chern number instead of --a
  --m-max M_MAX         enumeration window, at least ceil(deg/2) (default
                        ceil(deg/2)+8)
  --threshold THRESHOLD
                        absorption threshold (default 1)
  --out OUT             output file
""",
    "verify": USAGE_VERIFY + """
options:
  -h, --help            show this help message and exit
  --h2 H2               repeatable; default: the config h2, else 2 4 6
  --n-range N_RANGE     inclusive range A..B (default 0..8)
  --N-range N_RANGE     inclusive range A..B (default 0..40)
  --margin MARGIN       window above n at each point
  --threshold THRESHOLD
                        default: the config threshold, else both 1 and -1
""",
}

SCAN = "scan --h2 2 --N-range 0..2 --out t.csv --n-range"

# argv -> (exit code, stderr); stdout is empty in every case
ERRORS = {
    "": USAGE + "moduli-atlas: error: the following arguments are required: command\n",
    "frobnicate": USAGE + "moduli-atlas: error: argument command: invalid choice: 'frobnicate' "
    "(choose from 'classify-tf', 'classify-bn', 'scan', 'polygon', 'verify')\n",
    "classify-bn --h2 2 --n x --N 4":
        USAGE_BN + "moduli-atlas classify-bn: error: argument --n: invalid int value: 'x'\n",
    "classify-bn --h2 2 --n 1":
        USAGE_BN + "moduli-atlas classify-bn: error: the following arguments are required: --N\n",
    "classify-tf --h2 2 --deg 3 --a 5 --c2 6":
        USAGE_TF + "moduli-atlas classify-tf: error: argument --c2: not allowed with argument --a\n",
    "classify-tf --h 2 --deg 3 --a 5":
        USAGE_TF + "moduli-atlas classify-tf: error: ambiguous option: --h could match --help, --h2\n",
    f"{SCAN} 1-3": "error: invalid range '1-3': expected A..B\n",
    f"{SCAN} a..3": "error: invalid range 'a..3': expected integers\n",
    f"{SCAN} 3..1": "error: empty range\n",
    # a range that reaches below zero: the twist is checked before the length
    "scan --h2 2 --n-range=-1..2 --N-range 0..2 --out t.csv":
        "error: twist degree must be nonnegative\n",
    "scan --h2 2 --n-range 0..2 --N-range=-3..3 --out t.csv":
        "error: negative subscheme length\n",
    "scan --h2 2 --n-range=-1..2 --N-range=-3..3 --out t.csv":
        "error: twist degree must be nonnegative\n",
    "classify-bn --n 1 --N 4": "error: missing --h2\n",
    "verify --margin=-1 --n-range 0..1 --N-range 0..2": "error: negative enumeration margin\n",
    "verify --h2 3 --n-range 0..1 --N-range 0..2": "error: h2 must be even and >= 2\n",
}


@pytest.fixture
def run(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    monkeypatch.chdir(tmp_path)

    def run(argv: str):
        code = main(argv.split())
        captured = capsys.readouterr()
        assert list(tmp_path.iterdir()) == []
        return code, captured.out, captured.err

    return run


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_bytes_are_pinned(run, command):
    code, out, err = run(f"{command} --help")
    expected = [HELP[command]]
    if command == "scan":
        expected.append(HELP[command].replace(USAGE_SCAN, USAGE_SCAN_313))
    assert (code, err) == (0, "") and out in expected


def test_version_bytes_are_pinned(run):
    assert run("--version") == (0, f"moduli-atlas {VERSION}\n", "")


@pytest.mark.parametrize("argv", sorted(ERRORS))
def test_usage_error_bytes_are_pinned(run, argv):
    assert run(argv) == (2, "", ERRORS[argv])
