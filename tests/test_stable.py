"""Stable category machinery over self-injective algebras."""

import itertools

import numpy as np
import pytest

from homcat import stable
from homcat.algebras import algebra_from_json, preset
from homcat.complexes import make_complex, shift, squares_system
from homcat.errors import GuardError, ValidationError
from homcat.linalg import Mat, column_space, rank
from homcat.modules import (
    MMap,
    direct_sum,
    hom_space,
    is_isomorphic,
    is_projective,
    make_module,
    regular_module,
    simple_module,
)
from homcat.stable import (
    _interior_h0,
    _projective_factoring_subspace,
    assert_self_injective,
    complete_resolution,
    cosyzygy,
    stable_ar_quiver,
    stable_hom,
    stable_hom_via_cr,
    stable_indecomposables,
    syzygy,
    z0,
)

from preset_lists import known_indecomposables

T2 = preset("truncpoly(2)", 101)
T3 = preset("truncpoly(3)", 101)
T4 = preset("truncpoly(4)", 101)
GF = preset("ground_field", 101)
L1 = preset("lambda1", 101)


def _kmod(alg):
    return simple_module(alg, 0)


def test_self_injective_certificates():
    assert assert_self_injective(T2)
    assert assert_self_injective(T3)
    assert assert_self_injective(GF)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_regular_module_and_cogenerator_are_the_per_basis_constructions(p, monkeypatch):
    # one stacked array of structure constants gives the interned module of one matrix per basis element
    built = []
    monkeypatch.setattr(stable, "make_module", lambda alg, acts: built.append(make_module(alg, acts)) or built[-1])
    for name in ("lambda1", "lambda2", "lambda3", "ground_field", "truncpoly(2)", "truncpoly(4)"):
        alg = preset(name, p)
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        assert regular_module.__wrapped__(alg) is make_module(alg, [alg.right_mult(b) for b in basis])
        built.clear()
        try:
            assert_self_injective.__wrapped__(alg)
        except ValidationError:
            pass
        assert built[0] is make_module(alg, [alg.left_mult(b).transpose() for b in basis])


def test_lambda1_not_self_injective():
    with pytest.raises(ValidationError, match="self-injective"):
        assert_self_injective(L1)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: stable_hom(m, m),
        syzygy,
        cosyzygy,
        complete_resolution,
    ],
    ids=["stable_hom", "syzygy", "cosyzygy", "complete_resolution"],
)
def test_stable_entry_points_refuse_lambda1_with_guard_error(call):
    with pytest.raises(GuardError, match="self-injective"):
        call(simple_module(L1, 0))


def test_stable_hom_projective_source_or_target():
    reg = regular_module(T2)
    k = _kmod(T2)
    assert stable_hom(reg, k)[0] == 0
    assert stable_hom(k, reg)[0] == 0


def _reference_stable_reps(m, n):
    """Stable representatives by two column spaces: a basis of the factoring
    subspace, extended by the Hom basis columns outside it."""
    p = m.alg.p
    through = column_space(_projective_factoring_subspace(m, n))
    flat = [f.mat.a.reshape(-1) for f in hom_space(m, n)]
    combined = column_space(Mat(p, np.column_stack([through.a] + flat)))
    return [Mat(p, combined.a[:, t].reshape(n.dim, m.dim)) for t in range(through.cols, combined.cols)]


@pytest.mark.parametrize("p", [2, 3, 101])
def test_stable_hom_representatives_match_the_two_span_reference(p):
    count = 0
    for k in range(2, 6):
        mods = known_indecomposables(preset(f"truncpoly({k})", p))
        for x, y in itertools.product(mods, repeat=2):
            dim, reps = stable_hom(x, y)
            assert dim == len(reps) and [f.mat for f in reps] == _reference_stable_reps(x, y)
            count += 1
    assert count == 54


def test_stable_hom_simple_truncpoly2():
    k = _kmod(T2)
    dim, reps = stable_hom(k, k)
    assert dim == 1
    assert len(reps) == 1


def test_syzygy_of_projective_vanishes():
    assert syzygy(regular_module(T3)).dim == 0


def test_syzygy_values_truncpoly():
    # Omega(k[T]/(T^j)) = k[T]/(T^(n-j)) over k[T]/(T^n)
    mods4 = sorted(known_indecomposables(T4), key=lambda m: m.dim)
    for j in range(1, 4):
        om = syzygy(mods4[j - 1])
        assert om.dim == 4 - j


def test_cosyzygy_inverts_syzygy():
    k = _kmod(T3)
    om = syzygy(k)
    back = cosyzygy(om)
    assert is_isomorphic(back, k) is not None


def test_complete_resolution_truncpoly2():
    k = _kmod(T2)
    cr = complete_resolution(k, (-3, 3))
    for n in cr.cx.degrees():
        assert cr.cx.obj(n).dim == 2  # every component is the regular module
    # differentials all have rank one (multiplication by T)
    from homcat.linalg import rank

    for n in range(-3, 3):
        assert rank(cr.cx.diff(n).mat) == 1
    assert cr.z0_iso.src.dim == 1


def test_complete_resolution_middle_module_truncpoly4():
    mods = sorted(known_indecomposables(T4), key=lambda m: m.dim)
    m2 = mods[1]  # k[T]/(T^2) over k[T]/(T^4): Omega(m2) = m2
    cr = complete_resolution(m2, (-3, 3))
    from homcat.linalg import rank

    for n in range(-3, 3):
        assert rank(cr.cx.diff(n).mat) == 2  # multiplication by T^2
    assert is_isomorphic(z0(cr.cx), m2) is not None


def test_complete_resolution_rejects_projective_summand():
    with pytest.raises(ValidationError, match="projective summand"):
        complete_resolution(regular_module(T2), (-3, 3))


def test_complete_resolution_window_guard():
    with pytest.raises(ValueError, match="window"):
        complete_resolution(_kmod(T2), (-1, 1))


def test_z0_of_complete_resolution():
    k = _kmod(T3)
    cr = complete_resolution(k, (-3, 3))
    assert is_isomorphic(z0(cr.cx), k) is not None


def test_z0_of_shifted_complete_resolution_is_syzygy():
    # shifting down by one turns Z^0 into the syzygy, up by one into the
    # cosyzygy; over k[T]/(T^3) these differ from the module itself
    k = _kmod(T3)
    cr = complete_resolution(k, (-4, 4))
    om = syzygy(k)
    assert om.dim == 2
    assert is_isomorphic(z0(shift(cr.cx, -1)), om) is not None
    assert is_isomorphic(z0(shift(cr.cx, 1)), cosyzygy(k)) is not None


@pytest.mark.parametrize("defect", [-1, 0, 1])
def test_z0_refuses_a_complex_not_exact_at_one_interior_degree(defect):
    # P -T-> P -T-> P -T-> P -T-> P over k[T]/(T^2), exact inside, plus a second
    # summand P in degree `defect` that d kills and nothing hits: H^defect = P
    alg = preset("truncpoly(2)", 5)
    pm = regular_module(alg)
    t = MMap(pm, pm, pm.action[1])  # multiplication by T, a module map of the commutative algebra
    pp, (first, _), (onto_first, _) = direct_sum([pm, pm])
    objects = [pp if n == defect else pm for n in range(-2, 3)]
    diffs = [t @ onto_first if n == defect else first @ t if n + 1 == defect else t for n in range(-2, 2)]
    x = make_complex(alg, -2, objects, diffs)
    with pytest.raises(ValidationError, match=f"complex not acyclic at interior degree {defect}$"):
        z0(x)


def test_a_narrower_window_reuses_the_covers_of_a_wider_one():
    from homcat.modules import _cover_step

    m = simple_module(preset("truncpoly(4)", 10007), 0)
    wide = complete_resolution(m, (-6, 6))
    misses = _cover_step.cache_info().misses
    narrow = complete_resolution(m, (-4, 4))
    assert _cover_step.cache_info().misses == misses
    for n in narrow.cx.degrees():
        assert narrow.cx.obj(n) == wide.cx.obj(n)
        if n < narrow.cx.hi:
            assert narrow.cx.diff(n) == wide.cx.diff(n)


def test_stable_hom_via_cr_matches_direct_truncpoly2():
    k = _kmod(T2)
    assert stable_hom_via_cr(k, k, (-4, 4)) == stable_hom(k, k)[0] == 1


def test_stable_hom_via_cr_matches_direct_truncpoly3():
    mods = sorted(stable_indecomposables(preset("truncpoly(3)", 2)), key=lambda m: m.dim)
    for a in mods:
        for b in mods:
            assert stable_hom_via_cr(a, b, (-4, 4)) == stable_hom(a, b)[0]


def _interior_h0_by_chain_maps(x, y):
    """Chain maps from the null space of ``squares_system`` and homotopy
    images from checked compositions, flattened and restricted to the
    interior degrees: the construction ``_interior_h0`` replaced, kept as its
    reference."""
    p = x.alg.p
    lo = max(x.lo, y.lo) + 1
    hi = min(x.hi, y.hi) - 1

    def restricted(comps):
        parts = []
        for n in range(lo, hi + 1):
            f = comps.get(n)
            parts.append(np.zeros(y.obj(n).dim * x.obj(n).dim, dtype=np.int64) if f is None else f.a.reshape(-1))
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    v_cols = [
        restricted({n: m for (_, n), m in sol.items()})
        for sol in squares_system((x, y), []).nullspace()
    ]
    b_cols = []
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 2):
        if x.obj(n).dim == 0 or y.obj(n - 1).dim == 0:
            continue
        for h in hom_space(x.obj(n), y.obj(n - 1)):
            comps = {}
            lead = y.diff(n - 1) @ h
            if not lead.is_zero():
                comps[n] = lead.mat
            trail = h @ x.diff(n - 1)
            if not trail.is_zero():
                comps[n - 1] = trail.mat
            b_cols.append(restricted(comps))
    v_rank = rank(Mat(p, np.stack(v_cols, axis=1))) if v_cols else 0
    b_rank = rank(Mat(p, np.stack(b_cols, axis=1))) if b_cols else 0
    return v_rank - b_rank


@pytest.mark.parametrize("p", [2, 3])
def test_interior_h0_matches_the_chain_map_reference(p):
    windows = ((-2, 2), (-3, 4), (-4, 2))
    values = []
    for n in (2, 3, 4, 5):
        mods = stable_indecomposables(preset(f"truncpoly({n})", p))
        for a in mods:
            for b in mods:
                for wa in windows:
                    for wb in windows:
                        x, y = complete_resolution(a, wa).cx, complete_resolution(b, wb).cx
                        values.append(_interior_h0(x, y))
                        assert values[-1] == _interior_h0_by_chain_maps(x, y), (n, a, b, wa, wb)
    assert len(values) == 9 * (1 + 4 + 9 + 16) and set(values) >= {1, 2}


def test_stable_indecomposables_counts():
    assert len(stable_indecomposables(preset("truncpoly(2)", 2))) == 1
    assert len(stable_indecomposables(preset("truncpoly(3)", 2))) == 2
    assert stable_indecomposables(preset("ground_field", 2)) == []


@pytest.mark.parametrize("p", [2, 3, 101, 10007])
def test_stable_indecomposable_counts_at_every_prime(p):
    for n in (2, 3, 4, 5):
        assert len(stable_indecomposables(preset(f"truncpoly({n})", p))) == n - 1


def test_stable_indecomposables_of_a_self_injective_nakayama_algebra():
    # two vertices, arrows a: 1 -> 2 and b: 2 -> 1, rad^2 = 0 (basis e1, e2, a, b): not a truncpoly
    alg = algebra_from_json({
        "prime": 5, "dim": 4,
        "structconst": [[0, 0, 0, 1], [1, 1, 1, 1], [0, 2, 2, 1], [2, 1, 2, 1], [1, 3, 3, 1], [3, 0, 3, 1]],
        "unit": [1, 1, 0, 0], "idempotents": [[1, 0, 0, 0], [0, 1, 0, 0]],
        "radical": [[0, 0, 1, 0], [0, 0, 0, 1]],
    })
    stables = stable_indecomposables(alg)
    assert sorted(m.dim_vector() for m in stables) == [(0, 1), (1, 0)]


def test_stable_indecomposables_guard():
    with pytest.raises(GuardError):
        stable_indecomposables(preset("lambda1", 2))


def test_injective_envelopes_are_projective_when_self_injective():
    from homcat.modules import injective_envelope, is_projective

    for n in (2, 3, 4):
        alg = preset(f"truncpoly({n})", 2)
        for m in stable_indecomposables(alg):
            env, _ = injective_envelope(m)
            assert is_projective(env)


def test_stable_ar_quiver_truncpoly2():
    q = stable_ar_quiver(preset("truncpoly(2)", 2))
    assert len(q.vertices) == 1
    assert q.n_arrows == 0


def test_stable_ar_quiver_truncpoly3():
    q = stable_ar_quiver(preset("truncpoly(3)", 2))
    assert len(q.vertices) == 2
    assert q.n_arrows == 2
    arrow_set = {(s, t) for s, t, _ in q.arrows}
    assert arrow_set == {(0, 1), (1, 0)}


def _self_injective_nakayama(n, loewy, p):
    """Cyclic quiver on n vertices modulo paths of length loewy; basis: paths (start, length)."""
    index = {(s, k): k * n + s for k in range(loewy) for s in range(n)}
    entries = [
        [index[(s, k)], index[((s + k) % n, m)], index[(s, k + m)], 1]
        for (s, k) in index for m in range(loewy - k)
    ]
    unit = [1] * n + [0] * (n * (loewy - 1))
    return algebra_from_json({
        "prime": p, "dim": n * loewy, "structconst": entries, "unit": unit,
        "idempotents": [np.eye(n * loewy, dtype=int)[s].tolist() for s in range(n)],
        "radical": np.eye(n * loewy, dtype=int)[n:].tolist(),
    })


@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("n, loewy", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), *((1, k) for k in range(3, 7))])
def test_stable_ar_quiver_of_self_injective_nakayama_algebras(n, loewy, p):
    # the stable AR quiver is Z A_(loewy-1) / tau^n: n(loewy-1) vertices, 2n(loewy-2) arrows
    alg = preset(f"truncpoly({loewy})", p) if n == 1 else _self_injective_nakayama(n, loewy, p)
    q = stable_ar_quiver(alg)
    assert len(q.vertices) == n * (loewy - 1)
    assert q.n_arrows == 2 * n * (loewy - 2)
    assert all(mult == 1 for _, _, mult in q.arrows)


@pytest.mark.parametrize("n, loewy", [(2, 3), (3, 2)])
def test_complete_resolutions_over_a_noncommutative_self_injective_algebra(n, loewy):
    # the injective side is built over the opposite algebra, which differs from
    # the algebra itself here (unlike a truncated polynomial ring)
    alg = _self_injective_nakayama(n, loewy, 5)
    stables = stable_indecomposables(alg)
    assert len(stables) == n * (loewy - 1)
    for m in stables:
        cx = complete_resolution(m, (-3, 3)).cx
        assert all(is_projective(cx.obj(d)) for d in cx.degrees())
        assert is_isomorphic(z0(cx), m) is not None
        assert is_isomorphic(cosyzygy(syzygy(m)), m) is not None
    for a in stables:
        for b in stables:
            assert stable_hom_via_cr(a, b, (-3, 3)) == stable_hom(a, b)[0]
