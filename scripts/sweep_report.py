"""Run the oracle sweep and emit the scan artifacts for a parameter grid.

Writes, per surface, a CSV of locus classifications over the (n, N)
rectangle and an SVG of the filtration polygons of one showcase vector,
then cross-checks the whole grid against the independent oracles at both
threshold readings.  Everything is deterministic; rerunning into the same
directory reproduces identical bytes.  Exit codes: 0 no discrepancies, 1 the
oracle found discrepancies, 2 bad input (nothing is written), 4 the output
directory or a file in it cannot be written.
"""

import argparse
import os
import sys

from moduli_atlas.brill_noether import BNInput, bn_mukai_vector
from moduli_atlas.lattice import Surface
from moduli_atlas.oracle import DEFAULT_GRID, GridSpec, sweep
from moduli_atlas.polygon import write_polygon_svg
from moduli_atlas.report import render_scan_csv, scan_rows
from moduli_atlas.torsion_free import tf_listings


def write_artifacts(grid, out_dir):
    """Write the scan CSV and the showcase polygon SVG of every surface."""
    os.makedirs(out_dir, exist_ok=True)
    for h2 in grid.h_squared_values:
        s = Surface(h2)
        rows = scan_rows(s, grid.n_range, grid.length_range, 1)
        csv_path = os.path.join(out_dir, f"scan_h2_{h2}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(render_scan_csv(rows))
        proper = sum(1 for r in rows if r.verdict == "components")
        print(f"h2={h2}: {len(rows)} rows ({proper} with proper components) -> {csv_path}")

        # showcase polygon: the largest-N column with proper components
        showcase = max(
            (r for r in rows if r.verdict == "components"),
            key=lambda r: (r.length, r.n),
            default=None,
        )
        if showcase is not None:
            v = bn_mukai_vector(BNInput(s, showcase.n, showcase.length))
            m_max = showcase.n + grid.m_margin
            svg_path = os.path.join(out_dir, f"polygons_h2_{h2}.svg")
            with open(svg_path, "w", encoding="utf-8", newline="") as handle:
                write_polygon_svg(handle.write, s, v, tf_listings(s, v, m_max), m_max)
            print(f"h2={h2}: polygons of v={v.triple()} -> {svg_path}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h2", type=int, action="append", help="repeatable; default 2 4 6")
    ap.add_argument("--n-max", type=int, default=DEFAULT_GRID.n_range[1])
    ap.add_argument("--N-max", type=int, default=DEFAULT_GRID.length_range[1])
    ap.add_argument("--margin", type=int, default=DEFAULT_GRID.m_margin, help="enumeration window above n")
    ap.add_argument("--out-dir", default="sweep_out")
    args = ap.parse_args(argv)

    h2s = tuple(args.h2) if args.h2 else DEFAULT_GRID.h_squared_values
    try:
        grid = GridSpec(h2s, (0, args.n_max), (0, args.N_max), args.margin)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        write_artifacts(grid, args.out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    records = sweep(grid, 1, -1)
    for threshold in (1, -1):
        mine = [r for r in records if r.threshold == threshold]
        print(f"oracle sweep, threshold {threshold}: {len(mine)} discrepancies")
        for record in mine[:10]:
            print(f"  {record}")
    return 1 if records else 0


if __name__ == "__main__":
    sys.exit(main())
