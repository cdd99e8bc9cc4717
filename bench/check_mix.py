"""Show that the held-out seed gives the same op mix as the default seed.

    python3 bench/check_mix.py

For every workload, compares the plans of the default and the held-out seed:
ops per command, per format and per size cell must be identical, and the
range of every size parameter is printed side by side.  Exits 1 on any
difference.  Needs no checkout of the program: plans do not import it.
"""

import sys

import workloads


def main() -> int:
    seeds = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
    differ = False
    for name in workloads.WORKLOADS:
        default, held_out = (workloads.mix_summary(workloads.make_plan(name, s)) for s in seeds)
        same = {key: default[key] == held_out[key] for key in ("ops", "by_command", "by_format", "cells")}
        differ |= not all(same.values())
        print(f"{name}: {default['ops']} ops per pass; "
              + ", ".join(f"{key} {'same' if ok else 'DIFFERENT'}" for key, ok in same.items()))
        for key, counts in default["by_format"].items():
            print(f"  {key:<32} {counts:>4} ops")
        print(f"  {'size parameter':<32} {'seed ' + str(seeds[0]):>14} {'seed ' + str(seeds[1]):>14}")
        for key, (lo, hi) in default["ranges"].items():
            other = held_out["ranges"][key]
            print(f"  {key:<32} {f'{lo}..{hi}':>14} {f'{other[0]}..{other[1]}':>14}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
