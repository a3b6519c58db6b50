"""Self-tests for the benchmark: tracer coverage, install/uninstall, count
determinism, and agreement of BENCHMARK.json with the code.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import homcat.exercises  # noqa: E402,F401  (loads every traced layer)
import run  # noqa: E402
from child import run_suites  # noqa: E402
from tracer import METHODS, SPANS, Tracer, homcat_namespaces  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Small enough for a test, and it touches triangles, complexes, modules and
# the GF(2) classification path.
SMALL = {"suites": [("7.4.1", 101, 2), ("1.6.3-counts", 2, None)], "presets": [("lambda1", 101)]}


def _originals():
    return [getattr(importlib.import_module(f"homcat.{layer}"), f) for layer, fs in SPANS.items() for f in fs]


def _bindings():
    snap = {}
    for ns in homcat_namespaces():
        for attr, value in vars(ns).items():
            snap[(ns.__name__, attr)] = value
    for layer, cls_name, method, _, _ in METHODS:
        cls = getattr(sys.modules[f"homcat.{layer}"], cls_name)
        snap[(cls.__qualname__, method)] = cls.__dict__[method]
    return snap


def test_every_traced_name_exists():
    for layer, fnames in SPANS.items():
        module = importlib.import_module(f"homcat.{layer}")
        for fname in fnames:
            assert callable(getattr(module, fname, None)), f"homcat.{layer}.{fname} is gone"
    for layer, cls_name, method, _, _ in METHODS:
        cls = getattr(importlib.import_module(f"homcat.{layer}"), cls_name)
        assert method in cls.__dict__, f"homcat.{layer}.{cls_name}.{method} is gone"


def test_missing_name_fails_install_and_leaves_nothing_patched(monkeypatch):
    monkeypatch.delattr(sys.modules["homcat.stable"], "stable_hom")
    before = _bindings()
    with pytest.raises(AttributeError):
        Tracer().install()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_install_wraps_every_binding_and_uninstall_restores_it():
    before = _bindings()
    originals = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        for ns in homcat_namespaces():
            for attr, value in vars(ns).items():
                assert not any(value is orig for orig in originals), f"{ns.__name__}.{attr} still unwrapped"
        for layer, cls_name, method, _, _ in METHODS:
            cls = getattr(sys.modules[f"homcat.{layer}"], cls_name)
            assert cls.__dict__[method] is not before[(cls.__qualname__, method)]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_partition_the_root_spans():
    tracer = Tracer()
    tracer.install()
    try:
        result = run_suites(SMALL["suites"], seed=0)
    finally:
        tracer.uninstall()
    assert result["failed"] == 0
    self_s = tracer.self_times()
    assert all(v >= 0 for v in self_s.values())
    roots = [
        tracer.span_end[i] - tracer.span_start[i]
        for i in range(len(tracer.span_name))
        if tracer.span_parent[i] < 0
    ]
    assert sum(self_s.values()) == pytest.approx(sum(roots), rel=1e-9)
    assert sum(roots) <= result["wall_s"]
    counts = tracer.counts()
    assert counts["exercises.run_exercise.calls"] == 2
    assert counts["modules.classify_indecomposables.calls"] > 0
    assert counts["triangles.split_seq_to_triangle.calls"] == 2


def _child(mode):
    code = (
        "import json, child; r = child.measure(json.loads(__import__('sys').argv[1]), 0, %r); "
        "print(json.dumps(r))" % mode
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(SMALL)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=HERE,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_exactly_and_reports_match_untraced():
    first, second, plain = _child("trace"), _child("trace"), _child("run")
    assert first["counts"] == second["counts"]
    assert first["ratios"] == second["ratios"]
    digests = [{k: e["digest"] for k, e in r["suites"].items()} for r in (first, second, plain)]
    assert digests[0] == digests[1] == digests[2]


def test_missing_sources_fail_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    with pytest.raises(run.BenchError):
        run.measure("derived", 0, 1, False)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {k: v["why"] for k, v in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
