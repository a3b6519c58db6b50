"""Module category tests: constructors, Hom, (co)kernels, covers, envelopes,
Krull-Schmidt, classification, AR quivers."""

import dataclasses
import functools
import itertools
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcat.algebras import algebra_from_json, algebra_generators, opposite, preset
from homcat.derived import proj_resolution
from homcat.errors import CapExhausted, GuardError, ValidationError
from homcat.linalg import Mat, block_diag, column_space, inverse, is_invertible, kernel_basis, rank, solve
from homcat.knitting import almost_split_sequence, ar_translate, ar_translate_inverse
from homcat.modules import (
    ar_quiver,
    classify_indecomposables,
    decompose,
    decompose_with_maps,
    direct_sum,
    dual_module,
    hom_coords,
    hom_space,
    injective_envelope,
    is_injective,
    is_isomorphic,
    is_projective,
    kci,
    local_end_radical,
    make_module,
    projective_cover,
    projective_module,
    quotient_module,
    radical_submodule,
    regular_module,
    simple_module,
    socle,
    submodule,
    top,
    zero_module,
    MMap,
    _first_iso,
    _hom_basis,
    _projective_with_inclusion,
    _singular_shift,
)
from preset_lists import known_indecomposables
from test_stable import _self_injective_nakayama

L1 = preset("lambda1", 101)
L1_3 = preset("lambda1", 3)
_PRESETS = ["lambda1", "lambda2", "lambda3", "truncpoly(2)", "truncpoly(3)", "truncpoly(4)", "truncpoly(5)"]


def test_regular_module_dims():
    assert regular_module(L1).dim == 6
    assert regular_module(preset("lambda2", 101)).dim == 5


def test_module_hash_is_computed_once_from_the_key():
    m = regular_module(preset("lambda2", 101))
    h = hash(m)
    assert m._hash == h == hash((m.dim, m.key()))


def test_projective_dims_lambda1():
    # basis counts of the row ideals E_jj * Lambda_1
    assert projective_module(L1, 0).dim == 3
    assert projective_module(L1, 1).dim == 2
    assert projective_module(L1, 2).dim == 1


def test_simples_are_one_dimensional():
    for j in range(3):
        s = simple_module(L1, j)
        assert s.dim == 1
        assert s.dim_vector() == tuple(1 if t == j else 0 for t in range(3))


def test_make_module_rejects_bad_action():
    a = preset("truncpoly(2)", 5)
    good = regular_module(a)
    bad = [good.action[0], Mat.identity(5, 2)]  # T acting as identity
    with pytest.raises(ValidationError, match="structure constants"):
        make_module(a, bad)


# -- interned modules ------------------------------------------------------------------


def test_equal_actions_give_one_module_object():
    alg = preset("lambda1", 101)
    first = make_module(alg, regular_module(alg).action)
    stacked = np.stack([a.a for a in first.action])
    for action in (
        list(first.action),
        [a.a.tolist() for a in first.action],
        stacked,
        stacked.astype(np.int32),
        stacked - alg.p,  # unreduced entries reduce to the same action
        [a + alg.p for a in stacked],
    ):
        assert make_module(alg, action) is first
    # one array; the Mat matrices are read-only views of it
    assert first.acts.shape == (alg.dim, first.dim, first.dim) and not first.acts.flags.writeable
    assert all(np.shares_memory(a.a, first.acts) for a in first.action)


def test_other_algebras_do_not_share_an_interned_module():
    alg = preset("lambda1", 101)
    simple = simple_module(alg, 0)  # a 1-dimensional module: also a module over p = 3 and over A^op
    others = [preset("lambda1", 3), opposite(alg), dataclasses.replace(alg, name="a copy")]
    for other in others:
        m = make_module(other, simple.acts)
        assert m is not simple and m.alg is other and make_module(other, [a.a for a in simple.action]) is m
    with pytest.raises(ValueError, match="mixed moduli"):  # Mats over p = 101 given to an algebra over 3
        make_module(others[0], simple.action)
    assert make_module(others[0], simple.acts) != simple  # another prime
    assert make_module(others[1], simple.acts) != simple  # the opposite algebra
    assert make_module(others[2], simple.acts) == simple  # equal algebras: equal modules, two objects


def test_a_rejected_action_is_not_cached():
    from homcat.modules import _interned

    a = preset("truncpoly(2)", 5)
    bad = [regular_module(a).action[0], Mat.identity(5, 2)]  # T acting as identity
    hits = _interned.cache_info().hits
    witnesses = []
    for _ in range(2):
        with pytest.raises(ValidationError, match="structure constants") as err:
            make_module(a, bad)
        witnesses.append(err.value.witness)
    assert witnesses == [(1, 1), (1, 1)]
    assert _interned.cache_info().hits == hits


def test_the_module_cache_is_bounded_and_a_rebuilt_module_is_equal():
    from homcat.modules import _interned

    assert _interned.cache_info().maxsize is not None
    alg = preset("lambda2", 101)
    old = make_module(alg, regular_module(alg).action)
    _interned.cache_clear()
    new = make_module(alg, old.action)
    assert new is not old and new == old and hash(new) == hash(old)
    assert make_module(alg, old.action) is new


def _per_basis_rho(m, x):
    """The sum over basis elements that ``Mod.rho`` replaced; the reference."""
    out = np.zeros((m.dim, m.dim), dtype=np.int64)
    for i, xi in enumerate(np.mod(x, m.alg.p)):
        if xi:
            out = out + xi * m.action[i].a
    return Mat(m.alg.p, out)


@pytest.mark.parametrize("p", [2, 101, 2097143])
@pytest.mark.parametrize("name", ["ground_field", *_PRESETS])
def test_rho_matches_the_per_basis_sum(name, p):
    alg = preset(name, p)
    rng = np.random.default_rng(p)
    reg = regular_module(alg)
    mods = [reg, _rebased(reg, 0), injective_envelope(simple_module(alg, 0))[0], zero_module(alg)]
    xs = [rng.integers(-p, 2 * p, size=alg.dim) for _ in range(5)] + [np.full(alg.dim, p - 1), alg.unit]
    for m in mods:
        for x in xs:
            assert m.rho(x) == _per_basis_rho(m, x)
        # the key keeps the bytes of the per-matrix keys
        assert m.key() == b"".join(a.key() for a in m.action)
        assert hash(m) == hash((m.dim, b"".join(a.key() for a in m.action)))


def test_hom_space_simple_scalars():
    s = simple_module(L1, 0)
    assert len(hom_space(s, s)) == 1


def test_hom_space_proj_to_simple():
    assert len(hom_space(projective_module(L1, 0), simple_module(L1, 0))) == 1
    assert len(hom_space(projective_module(L1, 0), simple_module(L1, 1))) == 0


def test_hom_space_proj3_to_proj1():
    # inclusion of the last column: E_33*Lambda -> E_11*Lambda
    assert len(hom_space(projective_module(L1, 2), projective_module(L1, 0))) == 1


def test_kci_identity_and_zero():
    m = projective_module(L1, 0)
    (ker, _), (cok, _), (img, _) = kci(MMap.identity(m))
    assert ker.dim == 0 and cok.dim == 0 and img.dim == m.dim
    n = simple_module(L1, 1)
    (ker, _), (cok, _), (img, _) = kci(MMap.zero(m, n))
    assert ker.dim == m.dim and cok.dim == n.dim and img.dim == 0


def test_kci_of_cover_of_simple2():
    # kernel of P_2 ->> S_2 is the socle E_23, a copy of S_3
    p2 = projective_module(L1, 1)
    s2 = simple_module(L1, 1)
    maps = hom_space(p2, s2)
    assert len(maps) == 1
    (ker, _), (cok, _), _ = kci(maps[0])
    assert cok.dim == 0
    assert ker.dim == 1
    assert is_isomorphic(ker, simple_module(L1, 2)) is not None


def test_direct_sum_biproduct_identities():
    mods = [projective_module(L1, 0), projective_module(L1, 1), simple_module(L1, 1)]
    total, injs, projs = direct_sum(mods)
    assert total.dim == 6
    for i in range(3):
        for j in range(3):
            comp = projs[i] @ injs[j]
            if i == j:
                assert comp == MMap.identity(mods[i])
            else:
                assert comp.is_zero()
    acc = None
    for inj, proj in zip(injs, projs):
        term = inj @ proj
        acc = term if acc is None else acc + term
    assert acc == MMap.identity(total)


def test_direct_sum_empty_and_singleton():
    z, _, _ = direct_sum([], L1)
    assert z.dim == 0
    m = projective_module(L1, 0)
    total, injs, _ = direct_sum([m])
    assert total.dim == m.dim and injs[0].mat == Mat.identity(101, 3)


def test_direct_sum_action_is_the_block_diagonal_of_the_summands():
    mods = [projective_module(L1, 0), simple_module(L1, 1), zero_module(L1), _rebased(regular_module(L1), 1)]
    total, _, _ = direct_sum(mods)
    for i, a in enumerate(total.action):
        assert a == block_diag([m.action[i] for m in mods])
    assert direct_sum(mods)[0] is total


def test_top_and_socle():
    p1 = projective_module(L1, 0)
    t, q = top(p1)
    assert t.dim == 1
    assert is_isomorphic(t, simple_module(L1, 0)) is not None
    assert rank(q.mat) == 1
    s = simple_module(L1, 2)
    ts, _ = top(s)
    assert ts.dim == 1
    so, _ = socle(s)
    assert so.dim == 1


def test_socle_of_truncpoly_regular():
    a = preset("truncpoly(3)", 101)
    so, _ = socle(regular_module(a))
    assert so.dim == 1


def test_projective_cover_of_projective_is_iso():
    p = projective_module(L1, 1)
    cover, epi = projective_cover(p)
    assert cover.dim == p.dim
    assert kernel_basis(epi.mat).cols == 0


def test_projective_cover_of_simple1():
    cover, epi = projective_cover(simple_module(L1, 0))
    assert cover.dim == 3
    assert is_isomorphic(cover, projective_module(L1, 0)) is not None
    ker_basis = kernel_basis(epi.mat)
    ker, _ = submodule(cover, ker_basis)
    assert ker.dim == 2
    assert is_isomorphic(ker, projective_module(L1, 1)) is not None


def test_projective_cover_local_algebra():
    a = preset("truncpoly(2)", 101)
    s = known_indecomposables(a)[0]
    assert s.dim == 1
    cover, epi = projective_cover(s)
    assert cover.dim == 2
    assert kernel_basis(epi.mat).cols == 1


def _reference_cover_columns(m):
    """The cover epi one top vector and one basis element of e_j A at a time:
    the generator v lifted from the top, then v * beta for every beta."""
    alg = m.alg
    t, q = top(m)
    columns = []
    for j, e in enumerate(alg.idempotents):
        slice_basis = column_space(t.rho(e))
        _, pj_basis = _projective_with_inclusion(alg, j)
        for s in range(slice_basis.cols):
            v = m.rho(e) @ solve(q.mat, Mat.column(alg.p, slice_basis.a[:, s]))
            for b in range(pj_basis.cols):
                columns.append((m.rho(pj_basis.a[:, b]) @ v).a[:, 0])
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("p", [2, 3, 101, 2097143])
@pytest.mark.parametrize("name", _PRESETS)
def test_projective_cover_matches_the_per_basis_element_loop(name, p):
    for ind in classify_indecomposables(preset(name, p)):
        twice = direct_sum([ind, ind])[0]  # two generators per top slice
        for m in (ind, twice, _rebased(twice, ind.dim)):  # the last with dense actions
            _, epi = projective_cover(m)
            assert np.array_equal(epi.mat.a, _reference_cover_columns(m))


def test_a_cover_reduces_its_map_once(monkeypatch):
    # one kernel of the cover map certifies minimality and spans Omega m
    import homcat.modules
    from homcat.modules import _cover_step

    calls = []
    real = homcat.modules.kernel_basis
    monkeypatch.setattr(homcat.modules, "kernel_basis", lambda a: calls.append(a) or real(a))
    m = simple_module(L1, 0)
    epi, inc = _cover_step.__wrapped__(m)
    assert len(calls) == 1 and inc.src.dim == epi.src.dim - m.dim > 0
    assert (epi @ inc).is_zero() and projective_cover(m) == (epi.src, epi)


def test_injective_envelope_cases():
    a = preset("truncpoly(3)", 101)
    reg = regular_module(a)
    env, mono = injective_envelope(reg)
    assert env.dim == reg.dim
    assert rank(mono.mat) == reg.dim
    env3, _ = injective_envelope(simple_module(L1, 2))
    assert env3.dim == 3
    z = zero_module(L1)
    envz, _ = injective_envelope(z)
    assert envz.dim == 0


def test_double_dual_is_isomorphic():
    for m in [projective_module(L1, 0), simple_module(L1, 1)]:
        dd = dual_module(dual_module(m), L1)
        assert is_isomorphic(m, dd) is not None


def test_is_isomorphic_basics():
    m = projective_module(L1, 1)
    assert is_isomorphic(m, m) is not None
    assert is_isomorphic(simple_module(L1, 0), simple_module(L1, 1)) is None


def test_p2_isomorphic_to_radical_of_p1():
    p1 = projective_module(L1, 0)
    radm, _ = submodule(p1, radical_submodule(p1))
    assert radm.dim == 2
    iso = is_isomorphic(projective_module(L1, 1), radm)
    assert iso is not None
    # verified: invertible and intertwining (MMap construction checks it)
    assert rank(iso.mat) == 2


def test_decompose_regular_lambda1():
    parts = decompose(regular_module(L1))
    assert len(parts) == 3
    assert all(mult == 1 for _, mult in parts)
    dims = sorted(m.dim for m, _ in parts)
    assert dims == [1, 2, 3]


def test_decompose_tilting_module_three_distinct_summands():
    # B = P1 + P2 + P2/socle: three pairwise non-isomorphic pieces
    from homcat.modules import quotient_module

    p1 = projective_module(L1, 0)
    p2 = projective_module(L1, 1)
    b, _, _ = direct_sum([p1, p2, quotient_module(p2, socle(p2)[1].mat)[0]])
    parts = decompose(b)
    assert len(parts) == 3
    assert all(mult == 1 for _, mult in parts)


def test_decompose_simple_is_itself():
    s = simple_module(L1, 0)
    parts = decompose(s)
    assert len(parts) == 1 and parts[0][1] == 1 and parts[0][0].dim == 1


def test_decompose_with_maps_reassembles():
    total, _, _ = direct_sum([projective_module(L1, 0), simple_module(L1, 1), simple_module(L1, 1)])
    pieces = decompose_with_maps(total)
    assert sum(p.dim for p, _, _ in pieces) == total.dim
    acc = None
    for piece, inc, proj in pieces:
        assert (proj @ inc) == MMap.identity(piece)
        term = inc @ proj
        acc = term if acc is None else acc + term
    assert acc == MMap.identity(total)


def test_decompose_direct_sum_into_its_summands():
    p1, p2, s3 = projective_module(L1_3, 0), projective_module(L1_3, 1), simple_module(L1_3, 2)
    total, _, _ = direct_sum([p1, p2, s3])
    parts = decompose(total)
    assert [(m.dim, m.dim_vector(), mult) for m, mult in parts] == [
        (1, (0, 0, 1), 1),
        (2, (0, 1, 1), 1),
        (3, (1, 1, 1), 1),
    ]
    for (m, _), summand in zip(parts, [s3, p2, p1]):
        assert is_isomorphic(m, summand) is not None


@pytest.mark.parametrize("name", ["lambda1", "lambda2", "truncpoly(4)"])
def test_decompose_and_isomorphism_at_a_large_prime(name):
    # at p = 10007 no coefficient sweep is possible; the answers are certified
    alg = preset(name, 10007)
    known = known_indecomposables(alg)
    total, _, _ = direct_sum(known)
    parts = decompose(total)
    assert [mult for _, mult in parts] == [1] * len(known)
    for k in known:
        assert sum(1 for m, _ in parts if is_isomorphic(m, k) is not None) == 1
    swapped, _, _ = direct_sum(known[::-1])
    iso = is_isomorphic(total, swapped)
    assert iso is not None and rank(iso.mat) == total.dim
    if name == "truncpoly(4)":
        # same dimension and dimension vector, different summands
        other, _, _ = direct_sum([known[0], known[0], known[3], known[3]])
        assert other.dim == total.dim and is_isomorphic(total, other) is None


def _gaussian_integers(p):
    """k[x]/(x^2 + 1): a field with p^2 elements when p = 3 mod 4."""
    return algebra_from_json(
        {
            "prime": p,
            "dim": 2,
            "structconst": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, p - 1]],
            "unit": [1, 0],
            "idempotents": [[1, 0]],
            "radical": [],
        }
    )


@pytest.mark.parametrize("p", [3, 7])
def test_non_split_residue_field_is_decided_by_the_exhaustive_sweep(p):
    reg = regular_module(_gaussian_integers(p))
    assert [(m.dim, mult) for m, mult in decompose(reg)] == [(2, 1)]
    (rep, mult), = decompose(direct_sum([reg, reg])[0])
    assert mult == 2 and is_isomorphic(rep, reg) is not None


def test_non_split_residue_field_above_the_sweep_bound_is_refused():
    with pytest.raises(GuardError):
        decompose(regular_module(_gaussian_integers(10007)))


def test_a_refused_end_certification_is_not_cached():
    # End(m) certification is memoized per module; a GuardError must raise again, not read as local
    from homcat.modules import _split_or_certify

    reg = regular_module(_gaussian_integers(10007))
    for _ in range(2):
        misses = _split_or_certify.cache_info().misses
        with pytest.raises(GuardError):
            decompose(reg)
        assert _split_or_certify.cache_info().misses == misses + 1


@pytest.mark.parametrize("p", [100003, 2097143])
def test_no_eigenvalue_is_decided_without_scanning_the_field(p):
    reg = regular_module(_gaussian_integers(p))
    start = time.perf_counter()
    with pytest.raises(GuardError, match="no eigenvalue"):
        decompose(reg)
    assert time.perf_counter() - start < 0.1


def _scanned_shift(g):
    """The rank-per-candidate eigenvalue scan the gcd test replaced; the reference."""
    p, n = g.p, g.rows
    first = [int(np.trace(g.a)) * pow(n, -1, p) % p] if n % p else []
    for lam in itertools.chain(first, range(p)):
        shift = Mat(p, g.a - lam * np.eye(n, dtype=np.int64))
        if not is_invertible(shift):
            return shift
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 101]), st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_singular_shift_picks_the_scanned_eigenvalue(p, n, seed):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, p, size=(n, n))
    if seed % 2:  # triangular with at most two eigenvalues, in a permuted basis
        cut = int(rng.integers(0, n + 1))
        eigenvalues = [int(rng.integers(0, p))] * cut + [int(rng.integers(0, p))] * (n - cut)
        perm = rng.permutation(n)
        g = (np.triu(g, 1) + np.diag(eigenvalues))[perm][:, perm]
    assert _singular_shift(Mat(p, g)) == _scanned_shift(Mat(p, g))


def test_two_eigenvalues_at_a_large_prime_are_found_without_a_python_scan():
    p = 2097143
    start = time.perf_counter()
    shift = _singular_shift(Mat(p, np.diag([10**6, 2 * 10**6])))
    assert time.perf_counter() - start < 0.1
    assert shift == Mat(p, np.diag([0, 10**6]))


def _preset_module(alg, kind, j):
    j %= len(alg.idempotents)
    if kind == "regular":
        return regular_module(alg)
    if kind == "projective":
        return projective_module(alg, j)
    if kind == "simple":
        return simple_module(alg, j)
    if kind == "injective":
        return injective_envelope(simple_module(alg, j))[0]
    # the regular module in a random basis, whose Hom bases are dense
    return _rebased(regular_module(alg), j)


def _rebased(m, seed):
    """m in a random basis: dense action matrices with entries all over [0, p)."""
    rng = np.random.default_rng(seed)
    g_inv = None
    while g_inv is None:
        g = Mat(m.alg.p, rng.integers(0, m.alg.p, size=(m.dim, m.dim)))
        g_inv = inverse(g)
    return make_module(m.alg, [g_inv @ a @ g for a in m.action])


def _solved_coords(m, n, g):
    """The stacked-solve coordinate read that ``hom_coords`` replaced; the reference."""
    basis = np.stack([f.mat.a.reshape(-1) for f in hom_space(m, n)], axis=1)
    x = solve(Mat(m.alg.p, basis), Mat(m.alg.p, g.reshape(-1, 1)))
    return None if x is None else x.a[:, 0]


MODULE_KINDS = st.sampled_from(["regular", "projective", "simple", "injective", "rebased"])


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([2, 3, 101, 2097143]),
    st.sampled_from(["lambda1", "lambda2", "truncpoly(3)"]),
    MODULE_KINDS,
    st.integers(0, 2),
    MODULE_KINDS,
    st.integers(0, 2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hom_coords_match_the_solved_coordinates(p, name, kind_m, j_m, kind_n, j_n, seed):
    alg = preset(name, p)
    m, n = _preset_module(alg, kind_m, j_m), _preset_module(alg, kind_n, j_n)
    basis = hom_space(m, n)
    rng = np.random.default_rng(seed)
    c = rng.integers(0, p, size=len(basis))
    g = sum((int(ct) * f.mat.a for ct, f in zip(c, basis)), np.zeros((n.dim, m.dim), dtype=np.int64)) % p
    if basis:
        assert list(hom_coords(m, n, g[None])[0]) == list(c) == list(_solved_coords(m, n, g))
    # one entry moved off the combination: read back if still a homomorphism, refused if not
    bad = g.copy()
    bad[rng.integers(0, n.dim), rng.integers(0, m.dim)] += 1
    bad %= p
    expected = _solved_coords(m, n, bad) if basis else None
    if expected is None:
        with pytest.raises(ValidationError) as err:
            hom_coords(m, n, np.stack([g, bad]))
        assert err.value.witness == 1
    else:
        assert list(hom_coords(m, n, bad[None])[0]) == list(expected)


def _solved_action(acts, basis):
    """The one-``solve`` restriction of an action to an independent column
    basis, which submodule's single rref replaced; the reference."""
    p, d, k = basis.p, len(acts), basis.cols
    if k == 0:
        return np.zeros((d, 0, 0), dtype=np.int64)
    stacked = solve(basis, Mat(p, np.hstack(acts @ basis.a)))
    if stacked is None:
        raise ValidationError("column span is not invariant under the action")
    return stacked.a.reshape(k, d, k).transpose(1, 0, 2)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 101]),
    st.sampled_from(["lambda1", "lambda2", "truncpoly(3)"]),
    MODULE_KINDS,
    st.integers(0, 2),
    st.sampled_from(["zero", "full", "cyclic", "dependent", "random"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_submodule_equals_the_solved_restriction(p, name, kind, j, span_kind, seed):
    alg = preset(name, p)
    m = _preset_module(alg, kind, j)
    rng = np.random.default_rng(seed)
    if span_kind == "zero":
        span = np.zeros((m.dim, int(rng.integers(0, 3))), dtype=np.int64)
    elif span_kind == "full":
        span = np.hstack([np.eye(m.dim, dtype=np.int64), rng.integers(0, p, size=(m.dim, 2))])
    elif span_kind in ("cyclic", "dependent"):  # v times every basis element: invariant, dependent columns
        span = np.hstack([(m.acts @ rng.integers(0, p, size=m.dim)).T for _ in range(int(rng.integers(1, 3)))])
        if span_kind == "dependent":
            span = np.hstack([span, span @ rng.integers(0, p, size=(span.shape[1], 2))])
    else:  # most random spans are not invariant
        span = rng.integers(0, p, size=(m.dim, int(rng.integers(1, m.dim + 1))))
    span = Mat(p, span)
    basis = column_space(span)
    try:
        ref = make_module(m.alg, _solved_action(m.acts, basis))
    except ValidationError as err:
        with pytest.raises(ValidationError, match=str(err)):
            submodule(m, span)
        return
    sub, inc = submodule(m, span)
    assert sub is ref and inc.mat == basis


def test_hom_coords_refuses_a_stack_of_the_wrong_shape():
    p1, s1 = projective_module(L1, 0), simple_module(L1, 0)
    with pytest.raises(ValidationError, match="1x3"):
        hom_coords(p1, s1, np.eye(3, dtype=np.int64)[None])


def test_isomorphism_of_swapped_sum_without_invertible_basis_element():
    a, b = simple_module(L1, 0), projective_module(L1, 1)
    ab, _, _ = direct_sum([a, b])
    ba, _, _ = direct_sum([b, a])
    assert not any(rank(f.mat) == ab.dim for f in hom_space(ab, ba))
    iso = is_isomorphic(ab, ba)
    assert iso is not None and rank(iso.mat) == ab.dim


def test_classify_guards():
    # no prime guard: the knitted classification carries Auslander's certificate at every prime
    counts = {"lambda1": 6, "lambda2": 6, "lambda3": 5}
    counts.update({f"truncpoly({n})": n for n in range(2, 6)})
    for p in (101, 10007):
        for name, want in counts.items():
            alg = preset(name, p)
            ind = classify_indecomposables(alg)
            assert len(ind) == want
            known = known_indecomposables(alg)
            assert all(sum(1 for k in known if is_isomorphic(m, k) is not None) == 1 for m in ind)


def _kronecker(p):
    return algebra_from_json({
        "prime": p, "dim": 4,
        "structconst": [[0, 0, 0, 1], [1, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1], [2, 1, 2, 1], [3, 1, 3, 1]],
        "unit": [1, 1, 0, 0], "idempotents": [[1, 0, 0, 0], [0, 1, 0, 0]],
        "radical": [[0, 0, 1, 0], [0, 0, 0, 1]],
    })


def test_classify_refuses_the_kronecker_algebra_with_cap_exhausted():
    # representation infinite: the preprojective component grows without bound
    start = time.perf_counter()
    with pytest.raises(CapExhausted):
        classify_indecomposables(_kronecker(3))
    assert time.perf_counter() - start < 30


def _f4_dual_numbers():
    """F_4[T]/(T^2) over F_2, basis 1, x, T, xT with x^2 = x + 1 and T^2 = 0: its top is F_4."""
    def mul(a, b):
        def f4(a0, a1, b0, b1):
            return (a0 * b0 + a1 * b1) % 2, (a0 * b1 + a1 * b0 + a1 * b1) % 2
        lo = f4(a[0], a[1], b[0], b[1])
        hi = [(u + v) % 2 for u, v in zip(f4(a[0], a[1], b[2], b[3]), f4(a[2], a[3], b[0], b[1]))]
        return [*lo, *hi]
    basis = np.eye(4, dtype=int).tolist()
    entries = [[i, j, k, 1] for i in range(4) for j in range(4) for k, v in enumerate(mul(basis[i], basis[j])) if v]
    return algebra_from_json({
        "prime": 2, "dim": 4, "structconst": entries, "unit": [1, 0, 0, 0],
        "idempotents": [[1, 0, 0, 0]], "radical": [[0, 0, 1, 0], [0, 0, 0, 1]],
    })


def test_classify_refuses_a_non_split_residue_field():
    with pytest.raises(GuardError):
        classify_indecomposables(_f4_dual_numbers())


@pytest.mark.parametrize("build", [projective_cover, injective_envelope, proj_resolution])
def test_covers_refuse_a_non_split_residue_field(build):
    # one generator per F_2-basis vector of the top F_4 is not a minimal cover
    simple = top(regular_module(_f4_dual_numbers()))[0]
    with pytest.raises(GuardError, match="split basic"):
        build(simple)


def test_classify_refuses_a_disconnected_algebra():
    # F_p x F_p: Auslander's theorem needs a connected algebra
    alg = algebra_from_json({
        "prime": 3, "dim": 2, "structconst": [[0, 0, 0, 1], [1, 1, 1, 1]], "unit": [1, 1],
        "idempotents": [[1, 0], [0, 1]], "radical": [],
    })
    with pytest.raises(GuardError, match="connected"):
        classify_indecomposables(alg)


def test_the_knitting_layer_loads_only_on_classification():
    # work that never classifies must not import (and, without bytecode, compile) homcat.knitting
    code = (
        "import sys, homcat, homcat.cli, homcat.exercises\n"
        "print('homcat.knitting' in sys.modules)\n"
        "homcat.classify_indecomposables(homcat.preset('truncpoly(2)', 2))\n"
        "print('homcat.knitting' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def _flat_columns(mats, p, rows, cols):
    """The row-major flattenings of rows x cols matrices (``Mat``s) as the columns of one ``Mat``."""
    return Mat(p, np.reshape([m.a for m in mats], (len(mats), rows * cols)).T)


def _radical_quiver_arrows(alg):
    """Arrow multiplicities dim rad(X,Y) / rad^2(X,Y) over the classified
    indecomposables, with rad^2 spanned by two-step composites; rad(X, Y) is
    all of Hom for distinct vertices, the maximal ideal of End for a vertex
    with itself.  An independent count: the reference for the arrows that
    ``ar_quiver`` reads from the knitting."""
    ind = classify_indecomposables(alg)
    p = alg.p
    n = len(ind)
    rad = {
        (i, j): [MMap(ind[i], ind[i], Mat(p, r)) for r in local_end_radical(ind[i])] if i == j
        else hom_space(ind[i], ind[j])
        for i in range(n)
        for j in range(n)
    }
    arrows = []
    for i in range(n):
        for j in range(n):
            target = ind[j]
            composites = []
            for z in range(n):
                for g in rad[(i, z)]:
                    for h in rad[(z, j)]:
                        composites.append((h @ g).mat)
            rad_vec = _flat_columns([f.mat for f in rad[(i, j)]], p, target.dim, ind[i].dim)
            rad2_vec = _flat_columns(composites, p, target.dim, ind[i].dim)
            # two-step composites always land inside rad, so the arrow count
            # is a plain rank difference
            mult = rank(rad_vec) - rank(rad2_vec)
            if mult > 0:
                arrows.append((i, j, mult))
    return tuple(arrows)


def _d4_subspace(p):
    """Path algebra of D4 with the three arrows a_i: i -> 0 into the centre (basis e0..e3, a1..a3)."""
    entries = [[i, i, i, 1] for i in range(4)]
    for i in (1, 2, 3):
        entries += [[i, 3 + i, 3 + i, 1], [3 + i, 0, 3 + i, 1]]
    return algebra_from_json({
        "prime": p, "dim": 7, "structconst": entries, "unit": [1, 1, 1, 1, 0, 0, 0],
        "idempotents": [[int(k == i) for k in range(7)] for i in range(4)],
        "radical": [[int(k == 3 + i) for k in range(7)] for i in (1, 2, 3)],
    })


# the presets, the D4 subspace orientation and the self-injective Nakayama algebras of test_stable
AR_REFERENCE_ALGEBRAS = [
    pytest.param(functools.partial(preset, name, p), id=f"{name}-p{p}")
    for p in (2, 3, 101)
    for name in ["ground_field", "lambda1", "lambda2", "lambda3"] + [f"truncpoly({n})" for n in range(2, 6)]
] + [
    pytest.param(functools.partial(_d4_subspace, p), id=f"d4-p{p}") for p in (2, 3, 101)
] + [
    pytest.param(functools.partial(_self_injective_nakayama, n, loewy, p), id=f"nakayama({n},{loewy})-p{p}")
    for p in (2, 5)
    for n, loewy in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4))
]


def _kronecker_hom_rows(m, n):
    """Hom(m, n) as the row-major flattenings that solve the intertwining system
    stacked from Kronecker products, one block per generator: the reference
    for the system ``_hom_basis`` writes in place."""
    eye_n, eye_m = np.eye(n.dim, dtype=np.int64), np.eye(m.dim, dtype=np.int64)
    blocks = [np.kron(eye_n, m.rho(g).a.T) - np.kron(n.rho(g).a, eye_m) for g in algebra_generators(m.alg)]
    return kernel_basis(Mat(m.alg.p, np.vstack(blocks))).a.T


@pytest.mark.parametrize("build", AR_REFERENCE_ALGEBRAS)
def test_hom_basis_equals_the_kronecker_system(build):
    # every pair of indecomposables, the regular module and a sum of three
    # indecomposables: square and non-square systems, over 1 to 4 idempotents
    alg = build()
    mods = classify_indecomposables(alg) + [regular_module(alg)]
    mods.append(direct_sum(mods[-4:-1])[0])
    for x in mods:
        for y in mods:
            stack = _hom_basis(x, y)[0]
            assert np.array_equal(stack.reshape(len(stack), x.dim * y.dim), _kronecker_hom_rows(x, y))


@pytest.mark.parametrize("build", AR_REFERENCE_ALGEBRAS)
def test_ar_quiver_arrows_equal_the_radical_count(build):
    alg = build()
    assert ar_quiver(alg).arrows == _radical_quiver_arrows(alg)


@pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3", "truncpoly(3)", "truncpoly(4)"])
def test_almost_split_middle_terms_match_the_radical_quiver(name):
    # the arrows X -> Y of rad/rad^2 are the summands of the middle term of the sequence starting at X
    alg = preset(name, 101)
    ind = classify_indecomposables(alg)
    arrows = {(s, t): m for s, t, m in _radical_quiver_arrows(alg)}
    for i, x in enumerate(ind):
        seq = almost_split_sequence(x)
        if seq is None:
            assert is_injective(x) and ar_translate_inverse(x).dim == 0
            continue
        left, right = seq
        z = right.dst
        assert not is_injective(x) and ar_translate(z).dim == x.dim
        assert left.dst.dim == x.dim + z.dim and (right @ left).is_zero()
        middle = {}
        for piece, mult in decompose(left.dst):
            j = next(k for k, y in enumerate(ind) if is_isomorphic(piece, y) is not None)
            middle[j] = mult
        assert middle == {t: m for (s, t), m in arrows.items() if s == i}


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name", ["ground_field", "lambda1", "lambda2", "lambda3"] + [f"truncpoly({n})" for n in range(2, 6)])
def test_the_knit_computes_each_tau_edge_once(monkeypatch, name, p):
    # tau and tau^-1 are inverse bijections: one transpose per edge, plus the
    # zero tau of each projective and the zero tau^-1 of each injective vertex
    import homcat.knitting

    alg = preset(name, p)
    calls = []
    real = homcat.knitting.transpose_module
    monkeypatch.setattr(homcat.knitting, "transpose_module", lambda m: calls.append(m) or real(m))
    ind, _ = homcat.knitting.knit.__wrapped__(alg)
    assert len(calls) == len(ind) + sum(is_injective(x) for x in ind)


@pytest.mark.parametrize("p", [3, 101])
@pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3", "truncpoly(4)"])
def test_a_sequence_ending_at_the_knit_representative_has_the_same_middle_term(name, p):
    ind = classify_indecomposables(preset(name, p))

    def middle(seq):
        return sorted((_first_iso(piece, ind), mult) for piece, mult in decompose(seq[0].dst))

    for x in ind:
        seq = almost_split_sequence(x)
        if seq is None:
            continue
        rep = ind[_first_iso(seq[1].dst, ind)]
        known = almost_split_sequence(x, z=rep)
        assert known[1].dst is rep
        assert middle(known) == middle(seq)


@pytest.mark.parametrize("injective, p", [(True, 13), (False, 17)])
def test_a_vertex_whose_end_is_not_split_local_refuses_the_quiver(monkeypatch, injective, p):
    # no preset has such a vertex, so the End check of homcat.knitting is
    # made to fail on the injective, or on the non-injective, vertices
    import homcat.knitting

    real = homcat.knitting.local_end_radical

    def refusing(m):
        if is_injective(m) == injective:
            raise GuardError("endomorphism algebra is not split local")
        return real(m)

    monkeypatch.setattr(homcat.knitting, "local_end_radical", refusing)
    with pytest.raises(GuardError, match="split local"):
        ar_quiver(preset("lambda1", p))  # primes no other test classifies at, so the knit runs


D4_POSITIVE_ROOTS = {
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
    (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1),
}


@pytest.mark.parametrize("p", [2, 3, 101])
def test_classify_d4_subspace_orientation_matches_gabriel(p):
    ind = classify_indecomposables(_d4_subspace(p))
    assert len(ind) == 12
    assert {m.dim_vector() for m in ind} == D4_POSITIVE_ROOTS


@pytest.mark.parametrize("p", [2, 3])
def test_classify_lambda1_counts_and_dims(p):
    ind = classify_indecomposables(preset("lambda1", p))
    assert len(ind) == 6
    assert sorted(m.dim for m in ind) == [1, 1, 1, 2, 2, 3]


@pytest.mark.parametrize("p", [2, 3])
def test_classify_truncpoly3(p):
    ind = classify_indecomposables(preset(f"truncpoly(3)", p))
    assert len(ind) == 3
    assert sorted(m.dim for m in ind) == [1, 2, 3]


def test_known_indecomposables_match_classification():
    for name in ["lambda1", "lambda2", "lambda3", "truncpoly(3)"]:
        ind = classify_indecomposables(preset(name, 3))
        known = known_indecomposables(preset(name, 3))
        assert len(ind) == len(known)
        assert sorted(m.dim for m in ind) == sorted(m.dim for m in known)
        for k in known:
            assert sum(1 for m in ind if is_isomorphic(m, k) is not None) == 1


def test_known_indecomposables_pairwise_distinct_at_101():
    known = known_indecomposables(L1)
    assert len(known) == 6
    for i, a in enumerate(known):
        for j, b in enumerate(known):
            if i != j:
                assert is_isomorphic(a, b) is None


def test_ar_quiver_ground_field():
    q = ar_quiver(preset("ground_field", 2))
    assert len(q.vertices) == 1
    assert q.n_arrows == 0


def test_ar_quiver_lambda1():
    q = ar_quiver(preset("lambda1", 2))
    assert len(q.vertices) == 6
    assert q.n_arrows == 6
    labels = {label: i for i, (label, _) in enumerate(q.vertices)}
    arrows = {(q.vertices[s][0], q.vertices[t][0]) for s, t, _ in q.arrows}
    # chain S3 -> [23] -> S2 -> [12] -> S1 plus [23] -> [123] -> [12]
    assert arrows == {
        ("m001", "m011"),
        ("m011", "m010"),
        ("m010", "m110"),
        ("m110", "m100"),
        ("m011", "m111"),
        ("m111", "m110"),
    }


def test_ar_quiver_truncpoly3():
    q = ar_quiver(preset("truncpoly(3)", 2))
    assert len(q.vertices) == 3
    assert q.n_arrows == 4


def test_hom_left_exactness_on_short_exact_sequence():
    # 0 -> rad P1 -> P1 -> S1 -> 0 against each projective test module
    p1 = projective_module(L1, 0)
    s1 = simple_module(L1, 0)
    epi = hom_space(p1, s1)[0]
    (ker, inc), _, _ = kci(epi)
    for j in range(3):
        t = projective_module(L1, j)
        hom_a = hom_space(t, ker)
        hom_b = hom_space(t, p1)
        hom_c = hom_space(t, s1)
        assert len(hom_a) - len(hom_b) + len(hom_c) >= 0
        # exactness of 0 -> Hom(T,A) -> Hom(T,B) -> Hom(T,C): the maps into B
        # that die in C are exactly those through A
        into_b_killed = [f for f in hom_b if (epi @ f).is_zero()]
        from_a = [inc @ g for g in hom_a]
        va = _flat_columns([f.mat for f in from_a], 101, p1.dim, t.dim)
        vb = _flat_columns([f.mat for f in into_b_killed], 101, p1.dim, t.dim)
        assert rank(va) == rank(vb)


def test_field_independence_of_classification_counts():
    for name in ["lambda1", "lambda2", "lambda3"]:
        c2 = classify_indecomposables(preset(name, 2))
        for p in (3, 101):
            cp = classify_indecomposables(preset(name, p))
            assert len(c2) == len(cp)
            assert sorted(m.dim for m in c2) == sorted(m.dim for m in cp)


def test_field_independence_of_ar_arrows():
    for name in ["lambda1", "lambda2", "lambda3", "truncpoly(3)"]:
        q2 = ar_quiver(preset(name, 2))
        q3 = ar_quiver(preset(name, 3))
        label = lambda q, i: q.vertices[i][0]
        arrows2 = sorted((label(q2, s), label(q2, t), m) for s, t, m in q2.arrows)
        arrows3 = sorted((label(q3, s), label(q3, t), m) for s, t, m in q3.arrows)
        assert arrows2 == arrows3


def test_mmap_rejects_non_commuting_matrix_with_first_failing_basis_index():
    r = regular_module(L1)
    # right multiplications on the regular module are not left-module maps;
    # (action index, first basis index it fails to commute with)
    for k, first_bad in ((0, 1), (3, 1), (5, 2)):
        with pytest.raises(ValidationError, match="commute") as err:
            MMap(r, r, r.action[k])
        assert err.value.witness == first_bad


def test_hom_basis_certifies_its_stack(monkeypatch):
    # with the unit as the only generator every matrix solves the intertwining
    # system, so only the certification of the stack rejects the non-module maps
    import homcat.modules

    alg = L1_3
    m, n = projective_module(alg, 0), simple_module(alg, 1)
    monkeypatch.setattr(homcat.modules, "algebra_generators", lambda a: [a.unit])
    _hom_basis.cache_clear()
    try:
        with pytest.raises(ValidationError, match="does not commute with the action of basis element 0") as err:
            _hom_basis(m, n)
        assert err.value.witness == 0
    finally:
        monkeypatch.undo()
        _hom_basis.cache_clear()
    assert len(_hom_basis(m, n)[0]) == 0
    # one map keeps the message and the witness of the per-map check
    r = regular_module(L1)
    with pytest.raises(ValidationError, match="does not commute with the action of basis element 1") as err:
        MMap(r, r, r.action[0])
    assert err.value.witness == 1


def test_mmap_check_matches_the_per_basis_loop():
    r = regular_module(L1)
    p = projective_module(L1, 0)
    rng = np.random.default_rng(5)
    mats = [Mat(101, rng.integers(0, 101, size=(r.dim, p.dim))) for _ in range(20)]
    mats += [f.mat for f in hom_space(p, r)]
    for f in mats:
        bad = [i for i in range(L1.dim) if f @ p.action[i] != r.action[i] @ f]
        if not bad:
            assert MMap(p, r, f).mat == f
            continue
        with pytest.raises(ValidationError) as err:
            MMap(p, r, f)
        assert err.value.witness == bad[0]


def test_mmap_zero_matrix_of_wrong_shape_is_rejected():
    p = projective_module(L1, 0)
    s = simple_module(L1, 2)
    MMap(p, s, Mat.zeros(101, s.dim, p.dim))
    with pytest.raises(ValidationError, match="shape"):
        MMap(p, s, Mat.zeros(101, p.dim, s.dim))


# -- caches and the projectivity checks -----------------------------------------------


def test_every_memo_is_a_bounded_lru_cache():
    import importlib
    import pkgutil

    import homcat

    containers, caches = [], []
    for info in pkgutil.iter_modules(homcat.__path__):
        mod = importlib.import_module(f"homcat.{info.name}")
        for name, value in vars(mod).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                containers.append(f"{mod.__name__}.{name}")
            if hasattr(value, "cache_parameters"):
                caches.append(value)
    assert containers == ["homcat.exercises._EXERCISES"]
    assert caches and all(c.cache_parameters()["maxsize"] is not None for c in caches)


def test_hom_bases_stay_within_the_cache_bound_and_recompute_after_eviction():
    from homcat.modules import _hom_basis

    bound = _hom_basis.cache_parameters()["maxsize"]
    alg = preset("truncpoly(2)", 10007)

    def module(x):  # T acts by [[0, x], [0, 0]]: pairwise distinct (all isomorphic) modules
        return make_module(alg, [np.eye(2, dtype=np.int64), np.array([[0, x], [0, 0]])])

    first = hom_space(module(1), module(1))
    for x in range(2, bound + 3):
        hom_space(module(x), module(x))
    assert _hom_basis.cache_info().currsize <= bound
    misses = _hom_basis.cache_info().misses
    again = hom_space(module(1), module(1))
    assert _hom_basis.cache_info().misses == misses + 1
    assert [f.mat for f in again] == [f.mat for f in first]
    _hom_basis.cache_clear()


@pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3"])
def test_projectivity_and_injectivity_of_the_known_indecomposables(name):
    alg = preset(name, 101)
    ind = known_indecomposables(alg)
    proj = [is_projective(m) for m in ind]
    inj = [is_injective(m) for m in ind]
    # a minimal cover (envelope) is an isomorphism exactly on projectives (injectives)
    assert proj == [projective_cover(m)[0].dim == m.dim for m in ind]
    assert inj == [injective_envelope(m)[0].dim == m.dim for m in ind]
    assert sum(proj) == sum(inj) == len(alg.idempotents)
    assert is_projective(regular_module(alg))
    non_projective = ind[proj.index(False)]
    assert not is_projective(direct_sum([regular_module(alg), non_projective])[0])
