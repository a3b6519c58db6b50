"""One cold benchmark process: set up, optionally run a workload's suites.

    python3 benchmarks/child.py setup|run|trace <workload> <seed>

Prints one JSON object on stdout.  ``ready`` is ``time.monotonic()`` once
homcat is imported and the workload's presets are built; on Linux that clock
is system-wide, so the parent turns it into set-up time from its own spawn
timestamp.  ``run`` and ``trace`` then call ``run_exercise`` for each suite
with caches cold, exactly as a fresh ``homcat verify`` process would.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from workloads import WORKLOADS, suite_label  # noqa: E402


def setup(presets) -> float:
    import homcat.exercises  # noqa: F401  (loads every layer the suites use)
    from homcat.algebras import preset

    if not os.path.abspath(homcat.exercises.__file__).startswith(SRC + os.sep):
        raise ImportError(f"homcat imported from {homcat.exercises.__file__}, not from {SRC}")
    for name, p in presets:
        preset(name, p)
    return time.monotonic()


def report_digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


def run_suites(suites, seed: int) -> dict:
    """Run each suite once; wall and CPU span from first call to last report."""
    from homcat import exercises

    out = {"suites": {}, "attempted": 0, "failed": 0}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for suite_id, prime, samples in suites:
        label = suite_label(suite_id, prime)
        start = time.perf_counter()
        options = exercises.Options(prime=prime, seed=seed, samples=samples)
        try:
            report = exercises.run_exercise(suite_id, options)
        except Exception as exc:  # a suite that raises counts as one failed check
            entry = {"checks": 1, "failed": 1, "digest": None, "error": repr(exc)}
        else:
            failed = sum(1 for c in report.checks if not c.passed)
            entry = {"checks": len(report.checks), "failed": failed, "digest": report_digest(report)}
        entry["wall_s"] = time.perf_counter() - start
        out["suites"][label] = entry
        out["attempted"] += entry["checks"]
        out["failed"] += entry["failed"]
    out["wall_s"] = time.perf_counter() - wall0
    out["cpu_s"] = time.process_time() - cpu0
    return out


def measure(spec: dict, seed: int, mode: str) -> dict:
    result = {"ready": setup(spec["presets"])}
    if mode == "setup":
        return result
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result.update(run_suites(spec["suites"], seed))
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counts"] = tracer.counts()
        result["ratios"] = tracer.ratios()
        result["spans"] = len(tracer.span_name)
    return result


if __name__ == "__main__":
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(measure(WORKLOADS[workload], seed, mode)))
