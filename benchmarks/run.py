"""homcat benchmark: cold-process suite workloads, with an optional traced run.

    python3 benchmarks/run.py --workload tr_battery --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout (``src/homcat`` must exist).  Every
measurement is a fresh interpreter, so every cache starts cold, as it does for
a user of ``homcat verify``.  One run:

1. spawns ``SETUP_SAMPLES`` set-up-only processes (import homcat, build the
   workload's presets);
2. then, round after round while another round fits in ``--seconds`` (at
   least one round), spawns one process running the workload's suites.

With ``--trace 0`` round r runs the suites at seed ``--seed + SEED_STRIDE *
r``: the work in a random sample varies a lot, so medians over rounds with
fresh inputs vary less between seeds than repeats of one input set.  With
``--trace 1`` every round runs the suites at ``--seed`` twice, untraced and
then traced, so reports and counts can be compared.

Processes run one at a time (a closed loop with one client) and each is
waited for.  The run fails when a check fails, a suite raises, the report
digests of processes at the same seed differ, or traced counts differ
between traced processes.  It prints every metric by name with its unit, then one JSON
object as the last line: end-to-end metrics with ``--trace 0``, per-layer
metrics (from the traced processes) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS, suite_label  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_SAMPLES = 5
SEED_STRIDE = 1_000_003
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = metric_units()
    for spec in WORKLOADS.values():
        for suite_id, prime, _ in spec["suites"]:
            out[f"exercises.{suite_label(suite_id, prime)}.wall_pct"] = "%"
    out["trace.wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """One fresh benchmark process; set-up time is measured from its spawn."""
    # A fixed hash seed makes dict-collision-driven counts (Alg.__eq__) repeat
    # exactly between processes; reports are identical with or without it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def combined_digest(result: dict) -> str:
    parts = [f"{label}:{entry['digest']}" for label, entry in sorted(result["suites"].items())]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def baseline_digest(workload: str, seed: int) -> str | None:
    if not os.path.exists(BASELINE):
        return None
    with open(BASELINE) as fh:
        data = json.load(fh)
    return data.get("digests", {}).get(workload, {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns metrics plus the evidence behind them."""
    if not os.path.isfile(os.path.join(ROOT, "src", "homcat", "__init__.py")):
        raise BenchError(f"no homcat sources under {ROOT}/src; run from a source checkout")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = [spawn("setup", workload, seed, deadline) for _ in range(SETUP_SAMPLES)]
    runs, traces = [], []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        suite_seed = seed if trace else seed + SEED_STRIDE * len(runs)
        runs.append(spawn("run", workload, suite_seed, deadline))
        if trace:
            traces.append(spawn("trace", workload, seed, deadline))
        now = time.monotonic()
        # stop before a round that would overrun --seconds, so run length
        # stays near --seconds on a slow host too
        if now - start + (now - round_start) > seconds:
            break

    measured = runs + traces
    digest = combined_digest(runs[0])
    problems = []
    failed = sum(r["failed"] for r in measured)
    if failed:
        bad = sorted({label for r in measured for label, e in r["suites"].items() if e["failed"]})
        problems.append(f"{failed} failed checks in suites {', '.join(bad)}")
    digests_match = all(combined_digest(r) == digest for r in measured) if trace else None
    if digests_match is False:
        problems.append("report digests differ between processes at the same seed")
    if trace and any(t["counts"] != traces[0]["counts"] for t in traces):
        problems.append("traced counts differ between traced processes")

    out = {
        "workload": workload,
        "seed": seed,
        "rounds": len(runs),
        "attempted": sum(r["attempted"] for r in measured),
        "failed": failed,
        "problems": problems,
        "digest": digest,
        "digests_match": digests_match,
        "baseline_digest": baseline_digest(workload, seed),
        "end_to_end": {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in setups + measured),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        },
        "samples": {"wall_s": len(runs), "setup_s": len(setups) + len(measured)},
    }
    if trace:
        out["per_layer"] = per_layer(runs, traces)
    return out


def per_layer(runs: list[dict], traces: list[dict]) -> dict:
    """Per-layer metrics: counts from the traced processes (equal in each),
    time shares as medians over them, tracing overhead against the untraced
    processes of the same run."""
    out = {name: 0 for name in per_layer_units()}
    first = traces[0]
    out.update({k: v for k, v in first["counts"].items() if k in out})
    out.update({k: v for k, v in first["ratios"].items() if k in out})
    for key in first["self_s"]:
        name = f"{key}.self_pct"
        if name in out:
            out[name] = statistics.median(100.0 * t["self_s"][key] / t["wall_s"] for t in traces)
    for label in first["suites"]:
        out[f"exercises.{label}.wall_pct"] = statistics.median(
            100.0 * t["suites"][label]["wall_s"] / t["wall_s"] for t in traces
        )
    traced_wall = statistics.median(t["wall_s"] for t in traces)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in runs)
    return out


def print_human(res: dict, trace: bool) -> None:
    e2e = res["end_to_end"]
    print(f"workload {res['workload']} seed {res['seed']}: {res['rounds']} round(s), closed loop, one process at a time")
    print(f"  wall_s      {e2e['wall_s']:.4f} s   (median of n={res['samples']['wall_s']} cold processes)")
    print(f"  cpu_s       {e2e['cpu_s']:.4f} s   (median of n={res['samples']['wall_s']})")
    print(f"  setup_s     {e2e['setup_s']:.4f} s   (median of n={res['samples']['setup_s']})")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MB  (median of n={res['samples']['wall_s']})")
    print(f"  fail_frac   {res['failed'] / res['attempted']:.4f}     ({res['failed']} of {res['attempted']} checks)")
    base = res["baseline_digest"]
    if base is None:
        verdict = f"{res['digest'][:16]} (no baseline digest for this seed)"
    else:
        verdict = f"{res['digest'][:16]} ({'matches' if base == res['digest'] else 'DIFFERS FROM'} the baseline commit)"
    same = "traced == untraced, " if res["digests_match"] else ""
    print(f"  report digest at seed {res['seed']}: {same}{verdict}")
    if trace:
        layer = res["per_layer"]
        units = per_layer_units()
        print(f"  tracing overhead {layer['trace.overhead_s']:+.4f} s on traced wall {layer['trace.wall_s']:.4f} s")
        print("  per-layer (traced; self_pct = self time as % of traced wall):")
        for name in sorted(units, key=lambda n: (-layer[n] if n.endswith("_pct") else 0, n)):
            if name.startswith("trace."):
                continue
            print(f"    {name:48s} {layer[name]:>14.6g} {units[name]}")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print_human(res, bool(args.trace))
    if args.trace:
        units = per_layer_units()
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u in units.items()}
    else:
        metrics = {n: {"value": res["end_to_end"][n], "unit": u} for n, u in END_TO_END.items()}
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
