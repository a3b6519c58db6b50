"""The benchmark's workloads: which suites each one runs, at which primes.

Each suite entry is ``(suite id, prime, samples)``; ``samples=None`` keeps the
suite's own pinned count.  ``presets`` are the algebras the workload's suites
are built over; the set-up phase builds them once after importing homcat, so
set-up time covers import plus preset validation.
"""

WORKLOADS = {
    # The suites of acceptance criterion 08, at a sixth of its samples so a
    # run holds several rounds with fresh seeds.  Nearly all time is in
    # triangles/complexes certifying cones, octahedra and homotopies; linalg
    # is a small share and Krull-Schmidt is never reached.
    "tr_battery": {
        "why": "TR1-TR4 battery at p=101: check-on-construction and lifting dominate, Krull-Schmidt is bypassed",
        "suites": [("2.5.1", 101, 10), ("2.1.1", 101, 5), ("7.4.1", 101, 5)],
        "presets": [("lambda1", 101), ("ground_field", 101)],
    },
    # Criteria 03, 11 and 15: the exhaustive small-field decompositions and
    # the elimination volume behind them.  The p=2 half is the only GF(2)
    # traffic, so a GF(2)-only kernel moves only that half.
    "krull_schmidt": {
        "why": "classification and stable suites at p=2 then p=3: decompose_with_maps and rref dominate, the only GF(2) traffic",
        "suites": [
            ("1.6.3-counts", 2, None),
            ("3.3.2", 2, None),
            ("1.6.3-counts", 3, None),
            ("3.3.2", 3, None),
        ],
        "presets": [
            (name, p)
            for p in (2, 3)
            for name in ("lambda1", "lambda2", "lambda3", "truncpoly(2)", "truncpoly(3)", "truncpoly(4)", "truncpoly(5)")
        ],
    },
    # Criteria 01, 06, 07, 10 and 13: time spread over complexes, derived and
    # linalg at a large prime, with resolutions of the simples shared across
    # suites, so cache reuse matters here and not in tr_battery.
    "derived": {
        "why": "derived-category suites at p=101: spread over complexes/derived/linalg, resolutions reused across suites",
        "suites": [
            ("1.5.1", 101, None),
            ("1.7.1", 101, None),
            ("3.1.1", 101, None),
            ("5.1.1", 101, None),
            ("5.3.1", 101, None),
            ("6.1.1", 101, None),
        ],
        "presets": [("lambda1", 101), ("lambda2", 101), ("lambda3", 101)],
    },
}


def suite_label(suite_id: str, prime: int) -> str:
    """Metric-name fragment for one suite call, e.g. ``3.3.2_p3``."""
    return f"{suite_id}_p{prime}"
