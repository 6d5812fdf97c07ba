"""Run one specmcmc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload arma21_taylor --seed 1 --seconds 30 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  The full record (environment, checks, every metric's median,
maximum and sample count) is written to ``perfbench/work/results/``.
"""

import argparse
import json
import os
import shutil
import sys

# One BLAS thread, fixed before numpy loads (bench imports it).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = bench.WORK / f"{tag}-{os.getpid()}"
    try:
        record = bench.run_workload(
            bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = bench.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(bench.report_lines(record)))
    print(json.dumps(bench.result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
