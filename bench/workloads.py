"""Seeded operation plans for the three benchmark workloads.

A plan is a list of CLI invocations (argv for `moduli_atlas.cli.main`).  Each
workload is a full factorial over size cells.  The coarse, discrete sizes of
a cell (twist degree, enumeration window, first twist of a scan) are fixed;
the seed draws the fine-grained ones (a length N, c2, the first length of a
scan or sweep) from the middle fifth of the cell's bin, and the order of the
ops.  Two seeds therefore give the same op mix (commands, formats, size
cells) on different inputs.  Cost grows steeply with the discrete sizes, so
drawing those too would let the few heaviest ops of a plan, and with them
the tail latency and the peak memory, change a lot from seed to seed.

This module does not import the program: the inputs must not change when the
program changes.  `run_op` imports the CLI when it is first called.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("query_mix", "scan_grid", "verify_sweep")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9173

H2_VALUES = (2, 4, 6)
FORMATS = ("text", "json", "csv")
SCAN_FORMATS = ("csv", "json")

# query_mix, classify-bn: twist bins [4,7] .. [32,35], [36,40]; N in one
# third of [h0(n)/4, h0(n)].
BN_N_BINS = tuple((4 + 4 * b, 7 + 4 * b if b < 8 else 40) for b in range(9))
BN_LENGTH_BINS = 3
# query_mix, classify-tf and polygon: degree bins, window bins (how far
# --m-max reaches above ceil(deg/2)) and c2 bins.
TF_KINDS = ("classify-tf", "classify-tf-verbose", "polygon")
TF_DEG_BINS = ((1, 5), (6, 10), (11, 15))
TF_EXTRA_BINS = ((0, 3), (4, 7), (8, 11))
TF_C2_BINS = ((1, 50), (51, 100), (101, 150))
# scan_grid: rectangles of 4 twists x 120 lengths; the first length sits in
# one of two quarters of h0(n0 + 3).
SCAN_TWISTS, SCAN_LENGTHS = 4, 120
SCAN_N0_BINS = ((2, 3), (4, 5), (6, 7), (8, 9))
SCAN_START_BINS = ((0.0, 0.25), (0.25, 0.5))
# verify_sweep: one twist per grid, 15 lengths starting in one of four
# bins of [0, 40).
VERIFY_N_BINS = ((1, 2), (3, 4), (5, 6), (7, 8))
VERIFY_START_BINS = 4
VERIFY_START_MAX = 40
VERIFY_LENGTHS = 15
VERIFY_THRESHOLDS = (1, -1)

# A fixed, seed-independent first op per workload: the warm-up that set-up
# time includes.
WARMUP = {
    "query_mix": ("classify-bn", "--h2", "2", "--n", "10", "--N", "40", "--format", "json"),
    "scan_grid": ("scan", "--h2", "2", "--n-range", "4..7", "--N-range", "0..119", "--out", "warmup.csv"),
    "verify_sweep": ("verify", "--h2", "2", "--n-range", "2..2", "--N-range", "0..14"),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation with the parameters the correctness checks need.

    `cell` names the size cell of the op; it does not depend on the seed.
    `out` is the file the op writes, relative to the working directory, or
    None when it only writes to stdout.
    """

    kind: str
    argv: tuple[str, ...]
    cell: tuple
    params: tuple[tuple[str, object], ...]
    out: str | None = None

    def param(self, key: str):
        return dict(self.params)[key]

    @property
    def fmt(self) -> str | None:
        return dict(self.params).get("format")


def h0(h2: int, n: int) -> int:
    """Sections of O(n*H) on a K3 with H.H = h2 (0 for n < 0)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return n * n * h2 // 2 + 2


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    """A seeded value from the middle fifth of [lo, hi]."""
    return lo + (hi - lo) * (0.4 + 0.2 * rng.random())


def _pick(bin_: tuple[int, int], k: int) -> int:
    """The k-th value of an integer bin, cycling: spreads cells over a bin."""
    lo, hi = bin_
    return lo + k % (hi - lo + 1)


def _classify_bn_ops(rng: random.Random) -> list[Op]:
    ops = []
    for hi, h2 in enumerate(H2_VALUES):
        for nb, n_bin in enumerate(BN_N_BINS):
            for lb in range(BN_LENGTH_BINS):
                n = _pick(n_bin, hi + lb)
                top = h0(h2, n)
                bottom = -(-top // 4)
                length = bottom + int(_draw(rng, lb, lb + 1) / BN_LENGTH_BINS * (top - bottom))
                fmt = FORMATS[(hi + nb + lb) % len(FORMATS)]
                argv = ("classify-bn", "--h2", str(h2), "--n", str(n), "--N", str(length),
                        "--format", fmt)
                params = (("h2", h2), ("n", n), ("N", length), ("format", fmt))
                ops.append(Op("classify-bn", argv, ("classify-bn", h2, n, lb, fmt), params))
    return ops


def _classify_tf_ops(rng: random.Random) -> list[Op]:
    ops = []
    for k, kind in enumerate(TF_KINDS):
        for hi, h2 in enumerate(H2_VALUES):
            for db, deg_bin in enumerate(TF_DEG_BINS):
                for eb, extra_bin in enumerate(TF_EXTRA_BINS):
                    deg = _pick(deg_bin, hi + eb + k)
                    m_max = (deg + 1) // 2 + _pick(extra_bin, hi + db + k)
                    # a Latin square: each c2 bin meets each h2, degree and window bin
                    c2 = round(_draw(rng, *TF_C2_BINS[(hi + 2 * db + eb) % len(TF_C2_BINS)]))
                    a = deg * deg * h2 // 2 + 2 - c2
                    i = len(ops)
                    # alternate the two ways of naming the same vector
                    vector = ("--c2", str(c2)) if i % 2 == 0 else ("--a", str(a))
                    params = [("h2", h2), ("deg", deg), ("c2", c2), ("a", a), ("m_max", m_max)]
                    argv = ["polygon" if kind == "polygon" else "classify-tf", "--h2", str(h2),
                            "--deg", str(deg), *vector, "--m-max", str(m_max)]
                    out = fmt = None
                    if kind == "polygon":
                        out = f"polygon-{i:02d}.svg"
                        argv += ["--out", out]
                    else:
                        fmt = FORMATS[(hi + db + eb) % len(FORMATS)]
                        argv += ["--format", fmt]
                        params.append(("format", fmt))
                        if kind == "classify-tf-verbose":
                            argv.append("--verbose")
                    cell = (kind, h2, deg, m_max, fmt)
                    ops.append(Op(kind, tuple(argv), cell, tuple(params), out))
    return ops


def _query_mix(rng: random.Random) -> list[Op]:
    return _classify_bn_ops(rng) + _classify_tf_ops(rng)


def _scan_grid(rng: random.Random) -> list[Op]:
    ops = []
    for hi, h2 in enumerate(H2_VALUES):
        for nb, n0_bin in enumerate(SCAN_N0_BINS):
            for sb, start_bin in enumerate(SCAN_START_BINS):
                n0 = _pick(n0_bin, hi + sb)
                start = int(_draw(rng, *start_bin) * h0(h2, n0 + SCAN_TWISTS - 1))
                n_range = (n0, n0 + SCAN_TWISTS - 1)
                length_range = (start, start + SCAN_LENGTHS - 1)
                fmt = SCAN_FORMATS[(hi + nb + sb) % len(SCAN_FORMATS)]
                out = f"scan-{len(ops):02d}.{fmt}"
                argv = ("scan", "--h2", str(h2), "--n-range", "{}..{}".format(*n_range),
                        "--N-range", "{}..{}".format(*length_range), "--format", fmt, "--out", out)
                params = (("h2", h2), ("n_range", n_range), ("N_range", length_range),
                          ("format", fmt))
                ops.append(Op("scan", argv, ("scan", h2, n0, sb, fmt), params, out))
    return ops


def _verify_sweep(rng: random.Random) -> list[Op]:
    ops = []
    width = VERIFY_START_MAX / VERIFY_START_BINS
    for hi, h2 in enumerate(H2_VALUES):
        for nb, n_bin in enumerate(VERIFY_N_BINS):
            n = _pick(n_bin, hi)
            # a Latin square: each start bin meets each h2 and twist bin
            sb = (hi + nb) % VERIFY_START_BINS
            start = int(_draw(rng, sb * width, (sb + 1) * width))
            length_range = (start, start + VERIFY_LENGTHS - 1)
            argv = ("verify", "--h2", str(h2), "--n-range", f"{n}..{n}",
                    "--N-range", "{}..{}".format(*length_range))
            params = (("h2", h2), ("n", n), ("N_range", length_range))
            ops.append(Op("verify", argv, ("verify", h2, n, sb), params))
    return ops


_GENERATORS = {"query_mix": _query_mix, "scan_grid": _scan_grid, "verify_sweep": _verify_sweep}


def make_plan(workload: str, seed: int) -> list[Op]:
    """The ops of one pass over `workload`, in the order the benchmark runs them."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops


def mix_summary(ops: list[Op]) -> dict:
    """Seed-independent description of a plan: ops per command, per format
    and per size cell, plus the range each size parameter spans."""
    ranges: dict[str, list] = {}

    def widen(key, value):
        lo_hi = ranges.setdefault(key, [value, value])
        lo_hi[0], lo_hi[1] = min(lo_hi[0], value), max(lo_hi[1], value)

    for op in ops:
        for key, value in op.params:
            if isinstance(value, tuple):
                widen(f"{op.kind}.{key}.start", value[0])
                widen(f"{op.kind}.{key}.size", value[1] - value[0] + 1)
            elif key != "format":
                widen(f"{op.kind}.{key}", value)
    return {
        "ops": len(ops),
        "by_command": dict(sorted(Counter(op.kind for op in ops).items())),
        "by_format": dict(sorted(Counter(f"{op.kind}:{op.fmt or '-'}" for op in ops).items())),
        "cells": sorted(Counter(str(op.cell) for op in ops).items()),
        "ranges": dict(sorted(ranges.items())),
    }


def run_op(argv) -> tuple[int, str, str]:
    """Run one CLI invocation in-process; return (exit code, stdout, stderr)."""
    from moduli_atlas import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()
