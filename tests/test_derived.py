"""Derived layer: resolutions, derived Hom/Ext, D-inverses, dg ends, slices,
endomorphism algebras, tilting, Hom-agreement with injective complexes."""

import ast
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import homcat
from homcat.algebras import algebra_iso_search, make_algebra, opposite, preset
from homcat.complexes import (
    CMap,
    cohomology_dim,
    cohomology_dims,
    make_complex,
    stalk,
)
from homcat.derived import (
    _verify_dg,
    dg_cohomology_dims,
    dg_end,
    end_algebra,
    ext,
    hom_derived,
    idempotent_slice,
    idempotent_slice_algebra,
    idempotent_slice_dims,
    inj_resolution,
    is_iso_in_D,
    khom_agreement,
    proj_resolution,
    resolve_complex,
    tilting_check,
)
from homcat.errors import CapExhausted, ValidationError
from homcat.linalg import Mat, column_space, solve
from homcat.exercises import _ext_table_rows
from homcat.modules import (
    direct_sum,
    hom_space,
    injective_envelope,
    is_isomorphic,
    projective_module,
    quotient_module,
    regular_module,
    simple_module,
    socle,
    radical_submodule,
)
from homcat.samples import random_complex, random_injective_complex

from preset_lists import known_indecomposables
from test_modules import _d4_subspace

L1 = preset("lambda1", 101)
L3 = preset("lambda3", 101)
T2 = preset("truncpoly(2)", 101)


def _simples(alg):
    return [simple_module(alg, j) for j in range(len(alg.idempotents))]


def test_proj_resolution_of_projective_is_itself():
    p1 = projective_module(L1, 0)
    res = proj_resolution(p1)
    assert res.res.lo == 0 and res.res.hi == 0
    assert res.res.obj(0).dim == p1.dim


def test_proj_resolution_of_simple1():
    s1 = simple_module(L1, 0)
    res = proj_resolution(s1)
    assert res.res.lo == -1 and res.res.hi == 0
    assert res.res.obj(0).dim == 3
    assert is_isomorphic(res.res.obj(-1), projective_module(L1, 1)) is not None


def test_proj_resolution_lambda3_length_two():
    s1 = simple_module(L3, 0)
    res = proj_resolution(s1)
    assert res.res.lo == -2
    assert res.res.obj(-2).dim == 1


def test_inj_resolution_cap_exhaustion_truncpoly():
    k = simple_module(T2, 0)
    with pytest.raises(CapExhausted) as exc:
        inj_resolution(k, cap=4)
    assert exc.value.leftover is not None
    # partial data: every envelope along the way is the regular module
    env = regular_module(T2)
    assert exc.value.leftover.dim == 1


@pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3"])
def test_inj_resolution_starts_with_the_injective_envelope(name):
    # the dual of a minimal projective resolution is minimal: I^0 is the envelope
    for m in known_indecomposables(preset(name, 101)):
        assert is_isomorphic(inj_resolution(m).res.obj(0), injective_envelope(m)[0]) is not None


def test_inj_resolution_cap_leftover_lives_over_the_algebra():
    # the resolution runs over the opposite algebra; the leftover is dualized back
    with pytest.raises(CapExhausted) as exc:
        inj_resolution(simple_module(L3, 2), cap=1)
    assert exc.value.leftover.dim == 1
    assert exc.value.leftover.alg is L3


def test_inj_resolution_refuses_a_cap_below_one():
    with pytest.raises(ValueError, match="cap must be at least 1"):
        inj_resolution(injective_envelope(simple_module(L1, 0))[0], 0)


def test_inj_resolution_resolves_no_module_over_the_opposite_algebra():
    # the cover chain of D m is dualized directly; no second verified resolution
    inj_resolution.cache_clear()
    before = proj_resolution.cache_info().misses
    inj_resolution(simple_module(L3, 0))
    assert inj_resolution.cache_info().misses == 1
    assert proj_resolution.cache_info().misses == before


def test_proj_resolution_cap_exhaustion_truncpoly():
    k = simple_module(T2, 0)
    with pytest.raises(CapExhausted):
        proj_resolution(k, cap=3)


def test_proj_resolution_cap_leftover_is_the_surviving_syzygy():
    # S1 over lambda3 has P_2 = Omega^2 S1 one-dimensional: cap 1 stops with it left over
    s1 = simple_module(L3, 0)
    with pytest.raises(CapExhausted) as exc:
        proj_resolution(s1, cap=1)
    assert is_isomorphic(exc.value.leftover, proj_resolution(s1).res.obj(-2)) is not None


def test_only_the_cover_chain_takes_covers_in_a_loop():
    # every minimal resolution, syzygy and presentation reads derived._cover_chain;
    # a call of its memoized step _cover_step takes a cover too
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp)
    cover_takers = ("projective_cover", "_cover_step")
    takers = set()
    for path in sorted(Path(homcat.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for loop in (node for node in ast.walk(fn) if isinstance(node, loops)):
                calls = (node.func for node in ast.walk(loop) if isinstance(node, ast.Call))
                if any(getattr(f, "id", getattr(f, "attr", None)) in cover_takers for f in calls):
                    takers.add((path.name, fn.name))
    assert takers == {("derived.py", "_cover_chain")}


def test_resolve_complex_stalk_of_projective():
    x = stalk(projective_module(L1, 0), 0)
    res = resolve_complex(x)
    assert cohomology_dims(res.res) == cohomology_dims(x)


def test_resolve_complex_matches_module_resolution():
    s1 = simple_module(L1, 0)
    res = resolve_complex(stalk(s1, 0))
    module_res = proj_resolution(s1)
    assert cohomology_dims(res.res) == cohomology_dims(module_res.res)
    assert [res.res.obj(n).dim for n in res.res.degrees()] == [
        module_res.res.obj(n).dim for n in module_res.res.degrees()
    ]


def test_resolve_complex_two_stalks():
    from homcat.modules import MMap

    s1 = simple_module(L1, 0)
    s2 = simple_module(L1, 1)
    x = make_complex(L1, -1, [s2, s1], [MMap.zero(s2, s1)])
    res = resolve_complex(x)
    want = {n: d for n, d in cohomology_dims(x).items()}
    got = {n: d for n, d in cohomology_dims(res.res).items()}
    for n in set(want) | set(got):
        assert want.get(n, 0) == got.get(n, 0)


def test_resolve_random_complexes_are_quasi_isos():
    rng = np.random.default_rng(21)
    for _ in range(6):
        x = random_complex(L1, rng, max_support=3, dim_cap=5)
        res = resolve_complex(x)
        hx = cohomology_dims(x)
        hr = cohomology_dims(res.res)
        for n in set(hx) | set(hr):
            assert hx.get(n, 0) == hr.get(n, 0)


def test_resolve_random_complexes_global_dimension_two():
    # lambda3 forces genuinely longer resolutions through the recursion
    rng = np.random.default_rng(33)
    for _ in range(6):
        x = random_complex(L3, rng, max_support=3, dim_cap=5)
        res = resolve_complex(x)
        hx = cohomology_dims(x)
        hr = cohomology_dims(res.res)
        for n in set(hx) | set(hr):
            assert hx.get(n, 0) == hr.get(n, 0)


def test_resolve_complex_cap_guard_infinite_global_dimension():
    k = simple_module(T2, 0)
    with pytest.raises(CapExhausted):
        resolve_complex(stalk(k, 0), cap=5)


def test_hom_derived_shift_invariance():
    from homcat.complexes import shift

    rng = np.random.default_rng(34)
    for _ in range(4):
        x = random_complex(L1, rng, max_support=3, dim_cap=4)
        y = random_complex(L1, rng, max_support=3, dim_cap=4)
        for n in (-1, 0, 1):
            assert hom_derived(x, y, n) == hom_derived(shift(x, 1), shift(y, 1), n)


def test_hom_derived_regular_computes_cohomology():
    rng = np.random.default_rng(22)
    reg = stalk(regular_module(L1), 0)
    for _ in range(5):
        x = random_complex(L1, rng, max_support=3, dim_cap=5)
        h = cohomology_dims(x)
        for n in range(-2, 3):
            assert hom_derived(reg, x, n) == h.get(n, 0)


def test_hom_derived_between_stalks():
    for m in _simples(L1):
        for n in _simples(L1):
            d0 = hom_derived(stalk(m, 0), stalk(n, 0), 0)
            assert d0 == len(hom_space(m, n))
            assert hom_derived(stalk(m, 0), stalk(n, 0), -1) == 0


def test_hom_derived_resolves_once():
    rng = np.random.default_rng(35)
    x = random_complex(L1, rng, max_support=3, dim_cap=4)
    y = random_complex(L1, rng, max_support=3, dim_cap=4)
    resolve_complex.cache_clear()
    hom_derived(x, y, 0)
    assert resolve_complex.cache_info().misses == 1


def test_resolve_complex_is_the_same_at_a_larger_cap():
    # the cap only bounds cover chains, which stop at a zero syzygy
    rng = np.random.default_rng(36)
    for _ in range(6):
        x = random_complex(L1, rng, max_support=3, dim_cap=5)
        small, large = resolve_complex(x, 12), resolve_complex(x, 14)
        assert small.res == large.res and small.comparison == large.comparison


def test_ext_degree_zero_is_hom():
    p1 = projective_module(L1, 0)
    s1 = simple_module(L1, 0)
    assert ext(p1, s1, 0) == len(hom_space(p1, s1))


def test_ext_values_lambda1():
    s = _simples(L1)
    assert ext(s[0], s[1], 1) == 1
    assert ext(s[0], s[2], 1) == 0
    assert ext(s[1], s[2], 1) == 1
    assert ext(s[0], s[1], 2) == 0


def test_ext_lambda3_not_hereditary():
    s = _simples(L3)
    assert ext(s[0], s[2], 2) == 1


def test_ext_matches_hom_derived():
    s = _simples(L1)
    for m in s:
        for n in s:
            for d in range(3):
                assert ext(m, n, d) == hom_derived(stalk(m, 0), stalk(n, 0), d)


def test_is_iso_in_D_identity_and_quotient():
    x = stalk(projective_module(L1, 0), 0)
    ok, cert = is_iso_in_D(CMap.identity(x))
    assert ok and cert is not None
    p1 = projective_module(L1, 0)
    s1 = simple_module(L1, 0)
    quotient = hom_space(p1, s1)[0]
    f = CMap.build(stalk(p1, 0), stalk(s1, 0), {0: quotient})
    ok, cert = is_iso_in_D(f)
    assert not ok and cert is None


def test_is_iso_in_D_refuses_the_zero_map_between_equal_stalks():
    # equal cohomology dimensions, but H^0 of the zero map is not invertible
    x = stalk(simple_module(L1, 0), 0)
    assert is_iso_in_D(CMap.zero(x, x)) == (False, None)


def test_is_iso_in_D_of_resolution_comparison():
    s1 = simple_module(L1, 0)
    res = proj_resolution(s1)
    ok, cert = is_iso_in_D(res.comparison)
    assert ok
    assert cert["round_trip"] is not None


def test_is_iso_in_D_builds_one_cone_per_true_answer(monkeypatch):
    # with the target's resolution cached, only f itself is checked: the lift
    # g is a quasi-isomorphism by two out of three
    import homcat.derived

    x = random_complex(L1, np.random.default_rng(17), max_support=3, dim_cap=4)
    res = resolve_complex(x, 12)
    calls = []
    real = homcat.derived._verify_quasi_iso
    monkeypatch.setattr(homcat.derived, "_verify_quasi_iso", lambda f: calls.append(f) or real(f))
    ok, cert = is_iso_in_D(res.comparison, 12)
    assert ok and cert["resolution"] is res
    assert calls == [res.comparison]


def test_dg_end_of_projective_stalk():
    p = stalk(projective_module(L1, 0), 0)
    dga = dg_end(p)
    dims = dg_cohomology_dims(dga)
    assert dims == {0: 1}


def test_dg_end_of_simple_resolutions():
    # P = resolution of S1 + S2 + S3 over Lambda_1: H-dims (3, 2, 0, ...)
    simples = _simples(L1)
    resolutions = [proj_resolution(s).res for s in simples]
    from homcat.complexes import direct_sum_cx

    total, _, _ = direct_sum_cx(resolutions)
    dga = dg_end(total)
    dims = dg_cohomology_dims(dga)
    assert dims.get(0, 0) == 3
    assert dims.get(1, 0) == 2
    assert all(dims.get(n, 0) == 0 for n in dims if n not in (0, 1))
    # matches the Ext table
    want0 = sum(ext(a, b, 0) for a in simples for b in simples)
    want1 = sum(ext(a, b, 1) for a in simples for b in simples)
    assert dims.get(0, 0) == want0 and dims.get(1, 0) == want1


def _simples_dg_end():
    from homcat.complexes import direct_sum_cx

    total, _, _ = direct_sum_cx([proj_resolution(s).res for s in _simples(L1)])
    return dg_end(total)


def _tampered_mult(dga, key, unit_col):
    # add 1 to entry [0, 0, j] of one product table; with unit_col, j is a
    # coordinate where the unit is nonzero, so a right factor of degree 0 sees it
    mult = {k: v.copy() for k, v in dga.mult.items()}
    j = int(np.flatnonzero(dga.unit)[0]) if unit_col else 0
    mult[key][0, 0, j] = (mult[key][0, 0, j] + 1) % L1.p
    return replace(dga, mult=mult)


def _tampered_unit(dga):
    d0 = dga.differential(0).a
    j = int(np.flatnonzero(d0.any(axis=0))[0])  # a degree-0 element that is not a cocycle
    unit = dga.unit.copy()
    unit[j] = (unit[j] + 1) % L1.p
    return replace(dga, unit=unit)


def _scaled_differential(dga, n):
    cx = dga.hom.cx
    diffs = [d.scale(2) if cx.lo + k == n else d for k, d in enumerate(cx.diffs)]
    return replace(dga, hom=replace(dga.hom, cx=make_complex(cx.alg, cx.lo, list(cx.objects), diffs)))


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_tampered_unit, "dg unit is not a cocycle"),
        (lambda d: replace(d, unit=d.unit * 2 % L1.p), "dg unit fails as a left identity"),
        (lambda d: _tampered_mult(d, (1, 0), unit_col=True), "dg unit fails as a right identity"),
        (lambda d: _tampered_mult(d, (1, -1), unit_col=False), "dg multiplication not associative"),
        (lambda d: _scaled_differential(d, 0), "dg differential fails the Leibniz rule"),
    ],
    ids=["unit-cocycle", "left-identity", "right-identity", "associativity", "leibniz"],
)
def test_verify_dg_rejects_a_tampered_structure(tamper, message):
    dga = _simples_dg_end()
    _verify_dg(dga)
    with pytest.raises(ValidationError, match=message):
        _verify_dg(tamper(dga))


def test_idempotent_slice_full_unit_is_identity():
    gamma, basis, e = idempotent_slice_algebra(L1, [0, 1, 2])
    assert gamma.dim == L1.dim
    rng = np.random.default_rng(23)
    x = random_complex(L1, rng, max_support=3, dim_cap=4)
    sliced = idempotent_slice(L1, [0, 1, 2], x)
    assert cohomology_dims(sliced) == cohomology_dims(x)


def test_idempotent_slice_commutes_with_cohomology():
    rng = np.random.default_rng(24)
    for _ in range(5):
        x = random_complex(L1, rng, max_support=3, dim_cap=5)
        h_slice, slice_h = idempotent_slice_dims(L1, 0, x)
        for n in set(h_slice) | set(slice_h):
            assert h_slice.get(n, 0) == slice_h.get(n, 0)


def test_idempotent_slice_of_regular():
    x = stalk(regular_module(L1), 0)
    gamma, _, _ = idempotent_slice_algebra(L1, 0)
    assert gamma.dim == 1  # e11 Lambda_1 e11 is one-dimensional
    sliced = idempotent_slice(L1, 0, x)
    # the slice is Lambda * e11 = the first column span: just E11
    reg = regular_module(L1)
    e = L1.idempotents[0]
    from homcat.linalg import rank as _rank

    assert sliced.obj(0).dim == _rank(reg.rho(e)) == 1


def _reference_slice_algebra(alg, indices):
    """e A e one product and one solve at a time, with zero images of the radical skipped."""
    e = sum(alg.idempotents[i] for i in indices) % alg.p
    peirce = alg.left_mult(e) @ alg.right_mult(e)
    basis = column_space(peirce)
    g = basis.cols
    c = np.zeros((g, g, g), dtype=np.int64)
    for i in range(g):
        for j in range(g):
            coords = solve(basis, Mat.column(alg.p, alg.mul(basis.a[:, i], basis.a[:, j])))
            assert coords is not None
            c[i, j, :] = coords.a[:, 0]
    unit = solve(basis, Mat.column(alg.p, e)).a[:, 0]
    idems = [solve(basis, Mat.column(alg.p, alg.idempotents[i])).a[:, 0] for i in indices]
    rad_cols = []
    for t in range(alg.radical.cols):
        img = (peirce @ Mat.column(alg.p, alg.radical.a[:, t])).a[:, 0]
        if img.any():
            rad_cols.append(solve(basis, Mat.column(alg.p, img)).a[:, 0])
    rad = column_space(Mat(alg.p, np.stack(rad_cols, axis=1) if rad_cols else np.zeros((g, 0), dtype=np.int64)))
    return make_algebra(g, c, unit, idems, rad, alg.p, name=f"slice({alg.name})"), basis, e


def test_idempotent_slice_algebra_matches_the_per_product_reference():
    count = 0
    for p in (2, 3, 101):
        for name in ("lambda1", "lambda2", "lambda3", "truncpoly(3)", "truncpoly(4)"):
            alg = preset(name, p)
            m = len(alg.idempotents)
            for indices in (list(s) for k in range(1, m + 1) for s in itertools.combinations(range(m), k)):
                gamma, basis, e = idempotent_slice_algebra(alg, indices)
                ref_gamma, ref_basis, ref_e = _reference_slice_algebra(alg, indices)
                assert gamma == ref_gamma and gamma.labels == ref_gamma.labels and gamma.name == ref_gamma.name
                assert basis == ref_basis and np.array_equal(e, ref_e)
                count += 1
    assert count == 69


def test_end_algebra_of_regular_is_the_algebra():
    reg = regular_module(L1)
    gamma, basis = end_algebra(reg)
    assert gamma.dim == 6
    iso = algebra_iso_search(gamma, L1) or algebra_iso_search(opposite(gamma), L1)
    assert iso is not None


def test_tilting_check_B_against_lambda2():
    p1 = projective_module(L1, 0)
    p2 = projective_module(L1, 1)
    s2_quot = quotient_module(p2, socle(p2)[1].mat)[0]
    b, _, _ = direct_sum([p1, p2, s2_quot])
    assert b.dim == 6
    report = tilting_check(b, preset("lambda2", 101))
    assert report["end_dim"] == 5
    assert report["iso_found"]
    assert report["injective_on_shifts"]


def test_tilting_check_C_against_lambda3():
    p1 = projective_module(L1, 0)
    rad_p1 = radical_submodule(p1)
    s1_quot = quotient_module(p1, rad_p1)[0]
    c, _, _ = direct_sum([s1_quot, p1, projective_module(L1, 2)])
    assert c.dim == 5
    report = tilting_check(c, preset("lambda3", 101))
    assert report["end_dim"] == 5
    assert report["iso_found"]


def test_tilting_check_regular_identity_case():
    report = tilting_check(regular_module(L1), L1)
    assert report["end_dim"] == 6
    assert report["iso_found"]


@pytest.mark.parametrize("p", [2, 101])
def test_tilting_check_runs_on_an_algebra_that_is_not_a_preset(p):
    # the module list comes from the certified classifier: D4 has Gabriel's n(n-1) = 12 indecomposables
    alg = _d4_subspace(p)
    report = tilting_check(regular_module(alg), alg)
    assert report["end_dim"] == 7
    assert report["iso_found"] and report["iso_side"] == "direct"
    assert report["injective_on_shifts"]
    assert len({row["module_index"] for row in report["table"]}) == 12


def test_khom_agreement_simples_vs_injective_complexes():
    rng = np.random.default_rng(25)
    for j in range(3):
        m = simple_module(L1, j)
        for _ in range(3):
            x = random_injective_complex(L1, rng)
            a, b = khom_agreement(m, x)
            assert a == b


def test_derived_dimensions_build_no_hom_complex(monkeypatch):
    rng = np.random.default_rng(3)
    simples = _simples(L1)
    x, inj = random_complex(L1, rng), random_injective_complex(L1, rng)
    px, res = resolve_complex(x).res, inj_resolution(simples[0]).res
    original = homcat.complexes.hom_complex
    want_derived = [cohomology_dim(original(px, stalk(simples[0], 0)).cx, n) for n in range(-1, 3)]
    want_khom = tuple(cohomology_dim(original(src, inj).cx, 0) for src in (res, stalk(simples[0], 0)))
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return original(x, y)

    for name, module in list(sys.modules.items()):
        if name.startswith("homcat") and getattr(module, "hom_complex", None) is original:
            monkeypatch.setattr(module, "hom_complex", counted)
    assert [hom_derived(x, stalk(simples[0], 0), n) for n in range(-1, 3)] == want_derived
    assert khom_agreement(simples[0], inj) == want_khom
    assert ext(simples[0], simples[1], 1) == 1
    assert len(_ext_table_rows(simples, 2, 12)) == 3 * len(simples) ** 2
    assert calls == []


def test_khom_agreement_rejects_non_injective():
    m = simple_module(L1, 0)
    x = stalk(projective_module(L1, 2), 0)  # P3 = S3 is not injective
    with pytest.raises(ValidationError):
        khom_agreement(m, x)


def test_khom_agreement_identity_class():
    m = simple_module(L1, 0)
    res = inj_resolution(m)
    a, b = khom_agreement(m, res.res)
    assert a == b
    assert a >= 1
