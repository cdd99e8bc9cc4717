"""Reproduce the worked classification numbers on one screen.

Runs the handful of (h2, n, N) inputs whose component counts and dimensions
are known exactly, prints them as a table, and exits nonzero if any number
drifts.  Useful as a smoke check after touching the classifiers.
"""

import sys

from moduli_atlas.brill_noether import BNInput, bn_runs
from moduli_atlas.hn import listing_size
from moduli_atlas.lattice import MukaiVector, Surface
from moduli_atlas.torsion_free import classify_tf_components

# (h2, n, N) -> (verdict, beta dimension or None, alpha count, alpha dims)
EXPECTED = {
    (4, 1, 4): ("components", 7, 0, ()),
    (4, 2, 4): ("components", 4, 0, ()),
    (2, 1, 2): ("components", 2, 0, ()),
    (2, 2, 2): ("components", 2, 0, ()),
    (2, 3, 2): ("empty", None, 0, ()),
    (2, 3, 6): ("components", None, 3, (8, 8, 8)),
    (2, 1, 5): ("whole_hilbert_scheme", None, 0, ()),
    (2, 2, 3): ("components", None, 1, (4,)),
}


def main():
    drift = 0
    print(f"{'h2':>3} {'n':>2} {'N':>3}  {'verdict':<22} {'beta':>5}  alphas")
    for (h2, n, length), want in sorted(EXPECTED.items()):
        runs = bn_runs(BNInput(Surface(h2), n, length))
        beta = next((x[1] for x in runs.listings if x[0] == "beta"), None)
        alpha_dims = tuple(
            x[1] for x in runs.listings if x[0] == "alpha" for _ in range(listing_size(x))
        )
        got = (runs.verdict, beta, len(alpha_dims), alpha_dims)
        mark = "" if got == want else "  <- expected " + repr(want)
        if got != want:
            drift += 1
        beta_cell = "-" if beta is None else str(beta)
        alpha_cell = " ".join(str(d) for d in alpha_dims) or "-"
        print(f"{h2:>3} {n:>2} {length:>3}  {runs.verdict:<22} {beta_cell:>5}  {alpha_cell}{mark}")

    print()
    print("torsion-free strata of the rigid vector (2, 3, 5) at h2=2, window m<=3:")
    for c in classify_tf_components(Surface(2), MukaiVector(2, 3, 5), 3):
        label = "semistable" if c.triple is None else f"type {c.triple}"
        print(f"  {label:<18} stack dimension {c.dimension}")

    if drift:
        print(f"\n{drift} case(s) drifted", file=sys.stderr)
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
