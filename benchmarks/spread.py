"""Run the benchmark over many seeds, workloads round-robin, and summarise.

    python3 benchmarks/spread.py --seeds 0-9 --seconds 40
    python3 benchmarks/spread.py --seeds 0-9 --seconds 40 --write-baseline

Rounds go seed by seed, and within a seed workload by workload, so slow drift
in host speed hits every workload alike.  For each workload and end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``),
the spread (q3 - q1) / median, and, once n >= 11, the highest percentile that
still has ten runs above it.  ``--write-baseline`` adds two traced runs per
workload at the first seed, checks that their counts are equal, and writes
the first's per-layer table and everything else, with the report digests of
every seed and the machine, to ``benchmarks/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}
    out["spread"] = (q3 - q1) / out["median"]
    if len(values) >= 11:
        ordered = sorted(values)
        out[f"p{100 * (len(values) - 10) / len(values):.0f}"] = ordered[-11]
    return out


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")

    values = {w: {m: [] for m in run.END_TO_END} for w in workloads}
    digests = {w: {} for w in workloads}
    ok = True
    for seed in seeds:
        for workload in workloads:
            res = run.measure(workload, seed, args.seconds, trace=False)
            e2e = res["end_to_end"]
            print(
                f"seed {seed:3d} {workload:14s} "
                + " ".join(f"{m}={e2e[m]:.4f}" for m in run.END_TO_END)
                + f" rounds={res['rounds']}"
                + ("" if not res["problems"] else "  FAILED: " + "; ".join(res["problems"])),
                flush=True,
            )
            ok = ok and not res["problems"]
            digests[workload][str(seed)] = res["digest"]
            for m in run.END_TO_END:
                values[workload][m].append(e2e[m])

    summary = {w: {m: summarise(v) for m, v in values[w].items()} for w in workloads}
    print(f"\n{'workload':14s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s}  n")
    for w in workloads:
        for m, s in summary[w].items():
            print(f"{w:14s} {m:12s} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} {s['spread']:8.2%}  {s['n']}")

    if args.write_baseline:
        traced = {}
        for workload in workloads:
            first, second = (run.measure(workload, seeds[0], args.seconds, trace=True) for _ in range(2))
            repeat = all(
                first["per_layer"][n] == second["per_layer"][n] for n, u in run.per_layer_units().items() if u == "count"
            )
            ok = ok and repeat and not first["problems"] and not second["problems"]
            traced[workload] = {"seed": seeds[0], "counts_repeat": repeat, **first["per_layer"]}
            print(
                f"traced {workload}: overhead {first['per_layer']['trace.overhead_s']:+.3f} s, "
                f"counts {'repeat exactly' if repeat else 'DIFFER'} in a second traced run",
                flush=True,
            )
        baseline = {
            "machine": machine(),
            "run_seconds": args.seconds,
            "seeds": seeds,
            "end_to_end": summary,
            "per_layer": traced,
            "digests": digests,
        }
        with open(run.BASELINE, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
