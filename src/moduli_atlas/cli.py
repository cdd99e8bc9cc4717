"""Command line front end.

Subcommands: classify-tf, classify-bn, scan, polygon, verify.  Exit codes:
0 success, 1 verify found discrepancies, 2 usage or domain error or out of
memory, 4 I/O error.  An optional JSON config file, named by the
MODULI_ATLAS_CONFIG environment variable, can preset defaults for h2,
format, threshold, m_max and the output directory.  `main` merges it into
the parsed arguments once, filling each option the command line left unset,
so explicit flags win over the config and every command reads only its
arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys

from .brill_noether import BNInput, bn_runs
from .lattice import MukaiVector, Surface
from .oracle import DEFAULT_GRID, GridSpec, sweep
from .polygon import write_polygon_svg
from .report import SCAN_WRITERS, WRITERS, bn_head, scan_rows, tf_head
from .torsion_free import DEFAULT_THRESHOLD, tf_listings
from .version import VERSION

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 4

CONFIG_ENV = "MODULI_ATLAS_CONFIG"
CONFIG_TYPES = {"h2": int, "format": str, "out_dir": str, "threshold": int, "m_max": int}


def load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid config file: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("invalid config file: expected a JSON object")
    unknown = set(data) - set(CONFIG_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in data.items():
        kind = CONFIG_TYPES[key]
        # bool is a subclass of int, but true/false is no number
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return data


def _merge_config(args, config: dict) -> None:
    """Fill each option the command line left unset from the config; `out_dir`
    has no flag, and verify's repeatable --h2 takes the config h2 as one surface."""
    args.out_dir = config.get("out_dir", "")
    for key, value in config.items():
        if getattr(args, key, "") is None:
            setattr(args, key, [value] if key == "h2" and args.command == "verify" else value)


def _surface(args) -> Surface:
    if args.h2 is None:
        raise ValueError("missing --h2")
    return Surface(args.h2)


def _threshold(args) -> int:
    return DEFAULT_THRESHOLD if args.threshold is None else args.threshold


def _vector_inputs(args) -> tuple[Surface, MukaiVector, int, int]:
    """Surface, vector, window and threshold of classify-tf and polygon."""
    s = _surface(args)
    if args.a is None and args.c2 is None:
        raise ValueError("one of --a or --c2 is required")
    deg = args.deg
    a = args.a if args.a is not None else (deg * deg * s.h_squared) // 2 + 2 - args.c2
    v = MukaiVector(2, deg, a)
    lowest = (deg + 1) // 2  # ceil(deg/2), the lowest sub-degree m of a filtration type
    m_max = lowest + 8 if args.m_max is None else args.m_max
    if m_max < lowest:
        raise ValueError(f"window m_max={m_max} is below ceil(deg/2)={lowest}")
    return s, v, m_max, _threshold(args)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"invalid range {text!r}: expected A..B")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"invalid range {text!r}: expected integers") from None


def _format(args, table: dict, default: str):
    """The writer in `table` (`WRITERS` or `SCAN_WRITERS`) for the format asked for."""
    fmt = default if args.format is None else args.format
    if fmt not in table:
        raise ValueError(f"unknown format {fmt!r}")
    return table[fmt]


def _write_output(args, fill) -> str:
    """Open --out (a relative path under the config `out_dir`) for `fill(write)`."""
    path = os.path.join(args.out_dir, args.out)  # join keeps an absolute --out
    with open(path, "w", encoding="utf-8", newline="") as handle:
        fill(handle.write)
    return path


# Each command resolves every input, its writer too, before it classifies,
# so a rejected command does no work and writes nothing.


def cmd_classify_tf(args) -> int:
    s, v, m_max, threshold = _vector_inputs(args)
    writer = _format(args, WRITERS, "text")
    listings = tf_listings(s, v, m_max, threshold)
    if not args.verbose:
        listings = [listing for listing in listings if not listing[3]]  # absorbed
    writer(sys.stdout.write, tf_head(s, v, listings, m_max, threshold), listings)
    return EXIT_OK


def cmd_classify_bn(args) -> int:
    inp = BNInput(_surface(args), args.n, args.N)
    threshold = _threshold(args)
    writer = _format(args, WRITERS, "text")
    runs = bn_runs(inp, threshold)
    writer(sys.stdout.write, bn_head(inp, runs, threshold), runs.listings)
    return EXIT_OK


def cmd_scan(args) -> int:
    s = _surface(args)
    threshold = _threshold(args)
    n_range, length_range = _parse_range(args.n_range), _parse_range(args.N_range)
    writer = _format(args, SCAN_WRITERS, "csv")
    rows = scan_rows(s, n_range, length_range, threshold)  # checked here, made as written
    path = _write_output(args, lambda write: writer(write, rows))
    (n_lo, n_hi), (length_lo, length_hi) = n_range, length_range
    print(f"{(n_hi - n_lo + 1) * (length_hi - length_lo + 1)} rows -> {path}")
    return EXIT_OK


def cmd_polygon(args) -> int:
    s, v, m_max, threshold = _vector_inputs(args)
    listings = tf_listings(s, v, m_max, threshold)
    path = _write_output(args, lambda write: write_polygon_svg(write, s, v, listings, m_max))
    print(f"polygon -> {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    h2s = DEFAULT_GRID.h_squared_values if args.h2 is None else tuple(args.h2)
    grid = GridSpec(h2s, _parse_range(args.n_range), _parse_range(args.N_range), args.margin)
    thresholds = [1, -1] if args.threshold is None else [args.threshold]
    records = sweep(grid, *thresholds)
    for threshold in thresholds:
        mine = [r for r in records if r.threshold == threshold]
        print(f"threshold {threshold}: {len(mine)} discrepancies")
        for record in mine[:20]:
            print(f"  {record}")
    return EXIT_OK if not records else 1


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand on one surface, given by --h2.  This and the next three
    helpers declare each shared option once; verify keeps its own --h2
    (repeatable) and --threshold (default: both readings)."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--h2", type=int, help="self-intersection of the ample generator")
    parser.set_defaults(func=func)
    return parser


def _vector_options(parser) -> None:
    parser.add_argument("--deg", type=int, required=True, help="degree entry of the vector")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--a", type=int, help="trailing entry of the vector")
    group.add_argument("--c2", type=int, help="second Chern number instead of --a")
    parser.add_argument("--m-max", type=int, dest="m_max", help="enumeration window, at least ceil(deg/2) (default ceil(deg/2)+8)")


def _range_options(parser, grid: GridSpec | None = None) -> None:
    """--n-range and --N-range: required, or defaulting to the ranges of `grid`."""
    ranges = (None, None) if grid is None else (grid.n_range, grid.length_range)
    for flag, bounds in zip(("--n-range", "--N-range"), ranges):
        default = None if bounds is None else "{}..{}".format(*bounds)
        suffix = "" if default is None else f" (default {default})"
        parser.add_argument(flag, required=default is None, default=default,
                            help=f"inclusive range A..B{suffix}")


def _output_options(parser, formats=None, out: bool = False) -> None:
    """--threshold, then --format over `formats` and a required --out where asked."""
    parser.add_argument("--threshold", type=int, help="absorption threshold (default 1)")
    if formats is not None:
        parser.add_argument("--format", choices=formats, help="output format")
    if out:
        parser.add_argument("--out", required=True, help="output file")


def build_parser() -> argparse.ArgumentParser:
    # argparse builds a HelpFormatter for every add_argument call (to check the
    # metavar), and each one asks the terminal for its size: read the width
    # once here, as HelpFormatter itself would, and hand it to every parser.
    # It is read per call, not at import, so that help follows COLUMNS.
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(
        prog="moduli-atlas",
        formatter_class=formatter,
        description="Exact classification of rank-2 torsion-free moduli components "
        "and of Brill-Noether loci of point Hilbert schemes on a Picard-rank-1 K3.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=formatter),
    )

    tf = _command(sub, "classify-tf", cmd_classify_tf, "strata of the rank-2 torsion-free stack")
    _vector_options(tf)
    _output_options(tf, WRITERS)
    tf.add_argument("--verbose", action="store_true", help="include absorbed strata")

    bn = _command(sub, "classify-bn", cmd_classify_bn, "components of the locus W in Hilb^N")
    bn.add_argument("--n", type=int, required=True, help="twist degree")
    bn.add_argument("--N", type=int, required=True, help="subscheme length")
    _output_options(bn, WRITERS)

    scan = _command(sub, "scan", cmd_scan, "classify a rectangle of (n, N) to a table")
    _range_options(scan)
    _output_options(scan, SCAN_WRITERS, out=True)

    poly = _command(sub, "polygon", cmd_polygon, "SVG of the filtration polygons")
    _vector_options(poly)
    _output_options(poly, out=True)

    verify = sub.add_parser("verify", help="sweep the oracle grid and report discrepancies")
    verify.add_argument("--h2", type=int, action="append", help="repeatable; default: the config h2, else 2 4 6")
    _range_options(verify, DEFAULT_GRID)
    verify.add_argument("--margin", type=int, default=DEFAULT_GRID.m_margin, help="window above n at each point")
    verify.add_argument("--threshold", type=int, help="default: the config threshold, else both 1 and -1")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        _merge_config(args, load_config())
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
