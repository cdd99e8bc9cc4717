"""Cold-start probe, run in a fresh interpreter for every set-up sample.

    python3 bench/probe.py SRC_DIR WORKLOAD SEED

Times `import moduli_atlas.cli`, the generation of the workload's plan and
the workload's warm-up op, and prints the three durations (seconds) and the
warm-up op's exit code as one JSON object.  Nothing else is imported before the clock starts, so the
import time is what a CLI invocation pays.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import moduli_atlas.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.make_plan(sys.argv[2], int(sys.argv[3]))
t2 = time.perf_counter()
code, _, _ = workloads.run_op(workloads.WARMUP[sys.argv[2]])
t3 = time.perf_counter()
print(f'{{"import_s": {t1 - t0!r}, "generate_s": {t2 - t1!r}, "warmup_s": {t3 - t2!r}, '
      f'"warmup_code": {code}}}')
