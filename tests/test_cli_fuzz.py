"""Grammar-driven fuzzing of the command line.

Argv for all five subcommands is drawn from a small grammar of good and bad
flag values (missing and repeated flags, empty or malformed ranges, odd or
negative h2, non-integers), optionally with a config file of good and bad keys
and value types.  Whatever is drawn, `main` must return one of the documented
exit codes, and a failure must be reported as one `error:` line or as an
argparse usage message, never as a traceback.  A usage or domain error (exit
2) must write nothing to stdout: reports are written piece by piece, so
every check has to come before the first piece.  Sizes stay small (n <= 6,
N <= 30, ranges of at most 4 x 10 points), and files are written only under a
temporary directory.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from moduli_atlas.cli import CONFIG_ENV, main

EXIT_CODES = {0, 1, 2, 4}

NOT_INTEGERS = st.sampled_from(["x", "1.5", "", "2e3", "--"])


def _mostly(good, bad):
    """`good` five times in six, else `bad`."""
    return st.integers(0, 5).flatmap(lambda k: bad if k == 0 else good)


def _int_text(lo, hi):
    return _mostly(st.integers(lo, hi).map(str), NOT_INTEGERS)


def _range_text(width):
    """`A..B` with at most `width` points, or an empty or malformed range."""
    good = st.integers(0, 3).flatmap(
        lambda a: st.integers(a, a + width - 1).map(lambda b: f"{a}..{b}")
    )
    return _mostly(good, st.sampled_from(["3..1", "1-3", "5", "a..b", "1..2..3", "..", "0..x"]))


h2_text = _mostly(st.sampled_from(["2", "4", "6"]), st.sampled_from(["3", "0", "-2", "1", "x"]))
threshold_text = _int_text(-2, 2)

# flag -> strategy for its value (None: a switch without value); --a and
# --c2 exclude each other
FLAGS = {
    "classify-tf": {
        "--h2": h2_text,
        "--deg": _int_text(-3, 6),
        "--a": _int_text(-6, 8),
        "--c2": _int_text(-2, 12),
        "--m-max": _int_text(-3, 7),
        "--threshold": threshold_text,
        "--format": _mostly(st.sampled_from(["text", "json", "csv"]), st.just("xml")),
        "--verbose": None,
    },
    "classify-bn": {
        "--h2": h2_text,
        "--n": _int_text(-2, 6),
        "--N": _int_text(-2, 30),
        "--threshold": threshold_text,
        "--format": _mostly(st.sampled_from(["text", "json", "csv"]), st.just("xml")),
    },
    "scan": {
        "--h2": h2_text,
        "--n-range": _range_text(4),
        "--N-range": _range_text(10),
        "--threshold": threshold_text,
        "--format": _mostly(st.sampled_from(["csv", "json"]), st.just("text")),
        "--out": _mostly(st.just("rows.out"), st.sampled_from(["missing/rows.out", ""])),
    },
    "polygon": {
        "--h2": h2_text,
        "--deg": _int_text(-3, 6),
        "--a": _int_text(-6, 8),
        "--c2": _int_text(-2, 12),
        "--m-max": _int_text(-3, 7),
        "--threshold": threshold_text,
        "--out": _mostly(st.just("p.svg"), st.just("missing/p.svg")),
    },
    "verify": {
        "--h2": h2_text,
        "--n-range": _range_text(4),
        "--N-range": _range_text(10),
        "--margin": _int_text(-2, 3),
        "--threshold": threshold_text,
    },
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    # most flags present, one of --a/--c2 mostly, then a few repeated flags
    chosen = [f for f in flags if f not in ("--a", "--c2") and draw(st.integers(0, 3)) > 0]
    if "--a" in flags:
        chosen += draw(st.sampled_from([["--a"], ["--c2"], ["--a"], ["--c2"], ["--a", "--c2"], []]))
    chosen += draw(st.lists(st.sampled_from(sorted(flags)), max_size=2))
    chosen = draw(st.permutations(chosen))
    argv = [command]
    if command == "verify":
        # the default verify grid takes seconds; drawn ranges may still follow
        argv += ["--n-range", "0..3", "--N-range", "0..9"]
    for flag in chosen:
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    if draw(st.integers(0, 5)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--help", "--version"])))
    return argv


config_values = st.one_of(
    st.integers(-3, 8),
    st.booleans(),
    st.none(),
    st.sampled_from([2.5, "2", "json", "csv", "text", ".", "missing", [2], {"h2": 2}]),
)
config_texts = st.one_of(
    st.dictionaries(
        st.sampled_from(["h2", "format", "out_dir", "threshold", "m_max", "colour"]),
        config_values,
        max_size=4,
    ).map(json.dumps),
    st.sampled_from(["{not json", "[1, 2]", "", "null"]),
)


def _is_clean_failure(err: str) -> bool:
    if "Traceback" in err:
        return False
    if err.startswith("error: ") and err.count("\n") == 1:
        return True
    # argparse: a usage block, then one "prog: error: ..." line
    return err.startswith("usage: ") and ": error: " in err.rstrip("\n").splitlines()[-1]


# each example works in a fresh directory of its own under tmp_path
@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs(), config=st.none() | config_texts)
def test_cli_exits_cleanly_on_any_argv(tmp_path, argv, config):
    work = tempfile.mkdtemp(dir=tmp_path)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        mp.delenv(CONFIG_ENV, raising=False)
        if config is not None:
            with open(os.path.join(work, "cfg.json"), "w", encoding="utf-8") as handle:
                handle.write(config)
            mp.setenv(CONFIG_ENV, os.path.join(work, "cfg.json"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in EXIT_CODES, (argv, config, code, err.getvalue())
    if code != 0:
        assert _is_clean_failure(err.getvalue()), (argv, config, err.getvalue())
    if code == 2:
        # every check runs before the first write, so a rejected command prints nothing
        assert out.getvalue() == "", (argv, config, out.getvalue())
