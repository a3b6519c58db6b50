"""Acceptance suite: one test per criterion, at the pinned counts and primes.

Every test ends by printing one pass/fail line; run with ``pytest -s`` (or
read the captured output) to see the full scoreboard.
"""

from homcat.exercises import Options, run_exercise

RESULTS = []


def _record(number: int, title: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:02d} [{'PASS' if passed else 'FAIL'}] {title}"
    if detail:
        line += f" ({detail})"
    RESULTS.append(line)
    print(line)


def _run(exercise, **kw):
    return run_exercise(exercise, Options(**kw))


def test_criterion_01_derived_hom_of_regular_is_cohomology():
    report = _run("1.5.1", samples=50)
    _record(1, "derived Hom from the regular module equals cohomology (50 complexes)", report.passed)
    assert report.passed


def test_criterion_02_stalk_embedding_full_faithful():
    report = _run("1.5.2")
    _record(2, "module stalks embed fully faithfully (all indecomposable pairs)", report.passed)
    assert report.passed


def test_criterion_03_classification_counts():
    got = {}
    ok = True
    for p in (2, 3):
        report = _run("1.6.3-counts", prime=p)
        got[p] = tuple(c.got for c in report.checks)
        ok = ok and report.passed
    ok = ok and got[2] == (6, 6, 5) == got[3]
    _record(3, "indecomposable counts are 6/6/5 at p = 2 and p = 3", ok, f"{got}")
    assert ok


def test_criterion_04_ext_bounded_by_one():
    ok = True
    for p in (2, 3):
        report = _run("1.6.3-ext", prime=p)
        bound_checks = [c for c in report.checks if "at most 1" in c.name]
        ok = ok and all(c.passed for c in bound_checks)
    _record(4, "Ext dimensions bounded by 1 for degrees 0..4, all three algebras", ok)
    assert ok


def test_criterion_05_hereditary_flags():
    ok = True
    for p in (2, 3):
        report = _run("1.6.3-ext", prime=p)
        flag_checks = [c for c in report.checks if "Ext^2" in c.name]
        ok = ok and all(c.passed for c in flag_checks)
    _record(5, "Ext^2 vanishes over the hereditary algebras, survives once over the third", ok)
    assert ok


def test_criterion_06_tilting_endomorphism_algebras():
    report = _run("5.3.1")
    _record(6, "End(B) and End(C) have dim 5 and match their targets; table injective", report.passed)
    assert report.passed


def test_criterion_07_dg_end_cohomology():
    report = _run("6.1.1")
    _record(7, "dg end of the simples' resolution has H-dims (3,2,0,...) = Ext totals", report.passed)
    assert report.passed


def test_criterion_08_triangulated_axiom_suite():
    reports = [
        _run("2.5.1", samples=60),
        _run("2.1.1", samples=20),
        _run("7.4.1", samples=20),
    ]
    ok = all(r.passed for r in reports)
    _record(8, "TR1-TR4 / coproducts / split-vs-cone suite over 100 seeded samples", ok)
    assert ok


def test_criterion_09_fillin_ambiguity_witness():
    report = _run("2.4.1")
    ok = report.passed and report.runtime < 10.0
    _record(9, "fill-in nonuniqueness witness found at p = 2", ok, f"{report.runtime:.2f}s")
    assert ok


def test_criterion_10_quasi_iso_iff_invertible():
    report = _run("3.1.1", samples=50)
    _record(10, "is_iso_in_D matches the cohomology oracle with certificates (50 maps)", report.passed)
    assert report.passed


def test_criterion_11_stable_category_data():
    reports = [_run("3.3.2", prime=2), _run("7.5.1", prime=2)]
    ok = all(r.passed for r in reports)
    _record(11, "stable classification, Z^0 round trips, stable Hom agreement, stable AR", ok)
    assert ok


def test_criterion_12_idempotent_slice_exactness():
    report = _run("3.5.1", samples=50)
    _record(12, "H^n(Xe) = (H^n X)e over 50 seeded complexes", report.passed)
    assert report.passed


def test_criterion_13_hom_agreement_injective_complexes():
    report = _run("5.1.1", samples=20)
    _record(13, "Hom agreement for all simples against 20 injective-component complexes", report.passed)
    assert report.passed


def test_criterion_14_semisimple_splitting():
    report = _run("1.6.1", samples=50)
    _record(14, "semisimple splitting certificates and Betti numbers (50 complexes)", report.passed)
    assert report.passed


def test_criterion_15_field_robustness():
    ok = True
    # counts identical at p = 2, 3 and 101; stable data identical at p = 2 and p = 3
    counts = {}
    for p in (2, 3, 101):
        r = _run("1.6.3-counts", prime=p)
        counts[p] = tuple(c.got for c in r.checks)
        ok = ok and r.passed
    ok = ok and counts[2] == counts[3] == counts[101] == (6, 6, 5)
    stable_counts = {}
    for p in (2, 3):
        r = _run("3.3.2", prime=p)
        stable_counts[p] = tuple(c.got for c in r.checks if "stable indecomposables" in c.name)
        ok = ok and r.passed
    ok = ok and stable_counts[2] == stable_counts[3]
    for p in (2, 3):
        ok = ok and _run("1.6.3-ext", prime=p).passed
        ok = ok and _run("7.5.1", prime=p).passed
    # criteria 1-2 hold equally at p = 101 and p = 3
    for p in (101, 3):
        ok = ok and _run("1.5.1", prime=p, samples=50).passed
        ok = ok and _run("1.5.2", prime=p).passed
    _record(15, "counts and checks agree across p in {2, 3, 101} and {3, 101}", ok)
    assert ok


def teardown_module(module):
    print()
    for line in RESULTS:
        print(line)
