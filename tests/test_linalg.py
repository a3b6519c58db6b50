"""Elimination-layer tests: frozen small cases plus randomized invariants."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcat.linalg import (
    Mat,
    _rref_array,
    block_diag,
    column_space,
    hstack,
    in_column_span,
    inverse,
    is_invertible,
    is_nilpotent,
    is_prime,
    kernel_basis,
    quotient_structure,
    rank,
    rref,
    solve,
    validate_prime,
    vstack,
)


def test_prime_validation():
    assert is_prime(2) and is_prime(101)
    assert not is_prime(1) and not is_prime(91)
    with pytest.raises(ValueError):
        Mat.zeros(6, 2, 2)
    with pytest.raises(ValueError):
        validate_prime(10)


def test_is_prime_is_deterministic_miller_rabin():
    from homcat.errors import GuardError

    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**4) if is_prime(n) != trial_division(n)] == []
    for carmichael in (561, 1105, 41041):
        assert not is_prime(carmichael)
    start = time.perf_counter()
    assert is_prime(2**61 - 1) and not is_prime((2**31 - 1) * (2**31 + 11))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(GuardError):
        is_prime(2**64 + 1)


def test_rref_identity_f5():
    m = Mat.identity(5, 2)
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1)


def test_rref_zero():
    m = Mat.zeros(7, 3, 4)
    r, pivots = rref(m)
    assert r == m
    assert pivots == ()


def test_rref_dependent_rows_f5():
    # hand row-reduction: second row is twice the first
    m = Mat.from_rows(5, [[1, 2], [2, 4]])
    r, pivots = rref(m)
    assert r == Mat.from_rows(5, [[1, 2], [0, 0]])
    assert pivots == (0,)


def test_kernel_identity_and_zero():
    assert kernel_basis(Mat.identity(3, 4)).cols == 0
    k = kernel_basis(Mat.zeros(3, 4, 4))
    assert k.cols == 4
    assert rank(k) == 4


def test_kernel_f3_enumeration_oracle():
    # oracle: enumerate all of F_3^2 and keep the vectors killed by [[1,1]]
    m = Mat.from_rows(3, [[1, 1]])
    true_kernel = {
        (x, y)
        for x, y in itertools.product(range(3), repeat=2)
        if (x + y) % 3 == 0
    }
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert k.cols == 1
    spanned = {tuple((k.a[:, 0] * t) % 3) for t in range(3)}
    assert spanned == true_kernel


def test_solve_trivial_cases():
    b = Mat.from_rows(7, [[1], [2]])
    assert solve(Mat.identity(7, 2), b) == b
    assert solve(Mat.zeros(7, 2, 2), b) is None
    with pytest.raises(ValueError):
        solve(Mat.zeros(7, 3, 2), b)


def test_solve_f7_brute_force_oracle():
    a = Mat.from_rows(7, [[1, 1], [0, 1]])
    b = Mat.from_rows(7, [[2], [3]])
    # oracle: brute force over F_7^2
    sols = [
        (x, y)
        for x, y in itertools.product(range(7), repeat=2)
        if (x + y) % 7 == 2 and y % 7 == 3
    ]
    assert sols == [(6, 3)]
    x = solve(a, b)
    assert x is not None
    assert a @ x == b
    assert tuple(x.a[:, 0]) == (6, 3)


def test_quotient_structure_trivial():
    proj, sec = quotient_structure(3, Mat.zeros(101, 3, 0))
    assert proj == Mat.identity(101, 3)
    assert sec == Mat.identity(101, 3)
    proj, sec = quotient_structure(2, Mat.identity(2, 2))
    assert proj.rows == 0 and proj.cols == 2


def test_quotient_structure_f2_kernel_by_enumeration():
    sub = Mat.from_rows(2, [[1], [1]])
    proj, sec = quotient_structure(2, sub)
    assert proj.rows == 1
    assert (proj @ sub).is_zero()
    assert proj @ sec == Mat.identity(2, 1)
    # oracle: the kernel of proj over F_2^2 is exactly {0, (1,1)}
    killed = {
        (x, y)
        for x, y in itertools.product(range(2), repeat=2)
        if ((proj.a @ np.array([x, y])) % 2 == 0).all()
    }
    assert killed == {(0, 0), (1, 1)}


def test_column_space_picks_original_columns():
    m = Mat.from_rows(5, [[1, 2, 0], [2, 4, 1]])
    cs = column_space(m)
    assert cs.cols == 2
    assert in_column_span(cs, m)


def test_inverse_and_nilpotence():
    m = Mat.from_rows(3, [[1, 1], [0, 1]])
    mi = inverse(m)
    assert mi is not None and m @ mi == Mat.identity(3, 2)
    assert inverse(Mat.from_rows(5, [[1, 2], [2, 1]])) is not None
    assert inverse(Mat.from_rows(3, [[1, 2], [2, 4]])) is None
    assert is_invertible(m) and not is_invertible(Mat.from_rows(3, [[1, 2], [2, 4]]))
    assert not is_invertible(Mat.zeros(3, 2, 3))
    assert is_nilpotent(Mat.from_rows(5, [[0, 1], [0, 0]]))
    assert not is_nilpotent(Mat.identity(5, 2))


def test_block_diag_shapes():
    b = block_diag([Mat.identity(3, 2), Mat.zeros(3, 1, 3)])
    assert b.shape == (3, 5)


PRIMES = st.sampled_from([2, 3, 5, 101])


@st.composite
def matrices(draw, max_dim=6):
    p = draw(PRIMES)
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    entries = draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=r * c,
            max_size=r * c,
        )
    )
    return Mat(p, np.array(entries, dtype=np.int64).reshape(r, c))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_properties(m):
    r, pivots = rref(m)
    assert len(pivots) == rank(m)
    assert all(pivots[i] < pivots[i + 1] for i in range(len(pivots) - 1))
    # pivot columns are standard basis columns
    for i, pc in enumerate(pivots):
        col = r.a[:, pc]
        assert col[i] == 1 and (np.delete(col, i) == 0).all()
    # row space preserved: each reduced row solves against original rows
    if m.rows and m.cols:
        assert in_column_span(m.transpose(), r.transpose())
        assert in_column_span(r.transpose(), m.transpose())


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_rank_nullity(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert rank(m) + k.cols == m.cols
    assert rank(k) == k.cols


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_columns_are_echelon_at_their_free_positions(m):
    # the contract modules.hom_coords reads coordinates by
    k = kernel_basis(m).a
    for t in range(k.shape[1]):
        free = np.flatnonzero(k[:, t])[-1]
        assert k[free, t] == 1
        assert not np.delete(k[free], t).any()


def _looped_kernel(m):
    """kernel_basis written entry by entry from the rref; the reference for
    its indexed writes."""
    r, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(r.a[i, f])) % m.p
    return basis


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_equals_the_looped_construction(m):
    k = kernel_basis(m)
    assert k.shape == (m.cols, m.cols - rank(m)) and np.array_equal(k.a, _looped_kernel(m))


@settings(max_examples=100, deadline=None)
@given(matrices(max_dim=5), st.integers(min_value=0, max_value=4))
def test_solve_round_trip(a, c):
    # manufacture a consistent right-hand side, then solve must verify
    rng = np.random.default_rng(0)
    x0 = Mat(a.p, rng.integers(0, a.p, size=(a.cols, c)))
    b = a @ x0
    x = solve(a, b)
    assert x is not None
    assert a @ x == b


@settings(max_examples=100, deadline=None)
@given(matrices(max_dim=5))
def test_quotient_structure_properties(m):
    proj, sec = quotient_structure(m.rows, m)
    r = rank(m)
    assert proj.rows == m.rows - r
    assert (proj @ m).is_zero()
    assert rank(proj) == m.rows - r
    assert proj @ sec == Mat.identity(m.p, m.rows - r)


def _inverted_complement(n, sub):
    """The column_space / transposed rref / inverse construction that the
    single-rref quotient_structure replaced; the reference."""
    basis = column_space(sub)
    _, pivot_coords = rref(basis.transpose())
    free = [i for i in range(n) if i not in pivot_coords]
    comp = Mat(sub.p, np.eye(n, dtype=np.int64)[:, free])
    return Mat(sub.p, inverse(hstack([basis, comp])).a[basis.cols :, :]), comp


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 101]),
    st.integers(min_value=0, max_value=6),
    st.sampled_from(["zero", "full", "dependent", "random"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_quotient_structure_equals_the_inverted_complement(p, n, kind, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, n + 3))
    if kind == "zero":
        sub = np.zeros((n, k), dtype=np.int64)
    elif kind == "full":  # spans everything: the identity in a random basis, plus extra columns
        sub = np.hstack([np.eye(n, dtype=np.int64)[:, rng.permutation(n)], rng.integers(0, p, size=(n, k))])
    elif kind == "dependent":  # k columns combined from r < k random ones
        r = int(rng.integers(0, max(k, 1)))
        sub = rng.integers(0, p, size=(n, r)) @ rng.integers(0, p, size=(r, k))
    else:
        sub = rng.integers(0, p, size=(n, k))
    sub = Mat(p, sub)
    proj, sec = quotient_structure(n, sub)
    ref_proj, ref_sec = _inverted_complement(n, sub)
    assert np.array_equal(proj.a, ref_proj.a) and np.array_equal(sec.a, ref_sec.a)
    assert proj.shape == (n - rank(sub), n)


def test_modulus_above_bound_is_refused():
    from homcat.errors import GuardError
    from homcat.linalg import MAX_PRIME, validate_prime

    validate_prime(2_097_143)  # the largest prime below MAX_PRIME = 2**21
    assert MAX_PRIME == 2**21
    with pytest.raises(GuardError, match="MAX_PRIME"):
        Mat(2**31 - 1, np.full((4, 4), 2**31 - 2))
    with pytest.raises(GuardError, match="MAX_PRIME"):
        validate_prime(2**61 - 1)  # prime, but above the bound
    with pytest.raises(ValueError):
        validate_prime(2_097_151)  # composite below the bound


def test_inverse_and_rref_at_a_large_prime():
    p = 1_000_003
    m = Mat(p, [[2, 5, 7], [4, 10, 1], [p - 1, 3, 0]])
    r, pivots = rref(m)
    assert r == Mat.identity(p, 3) and pivots == (0, 1, 2)
    inv = inverse(m)
    assert inv is not None and m @ inv == Mat.identity(p, 3)
    # a matrix of rank 2: the third row is the sum of the first two
    s = Mat(p, [[2, 5, 7], [4, 10, 1], [6, 15, 8]])
    _, pivots = rref(s)
    assert pivots == (0, 2)
    assert (s @ kernel_basis(s)).is_zero() and kernel_basis(s).cols == 1


def test_arithmetic_results_are_reduced():
    p = 7
    a = Mat(p, [[3, 6], [0, 5]])
    b = Mat(p, [[6, 6], [1, 2]])
    for got, want in (
        (a @ b, [[24, 30], [5, 10]]),
        (a + b, [[9, 12], [1, 7]]),
        (a - b, [[-3, 0], [-1, 3]]),
        (-a, [[-3, -6], [0, -5]]),
    ):
        assert got == Mat(p, want)
        assert got.a.min() >= 0 and got.a.max() < p and not got.a.flags.writeable


def test_sum_and_difference_reject_mismatched_shapes():
    row, square = Mat(5, [[1, 2]]), Mat(5, [[1, 2], [3, 4]])
    for op in (lambda: row + square, lambda: row - square, lambda: square - row):
        with pytest.raises(ValueError, match="shape mismatch"):
            op()


def _numpy_rref(a, p):
    """The numpy row-update kernel the Python-int kernel replaced; the reference."""
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr], :] = a[[pr, r], :]
        a[r, :] = (a[r, :] * pow(int(a[r, c]), -1, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r, :])
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


@st.composite
def elimination_inputs(draw):
    p = draw(st.sampled_from([2, 3, 101, 2_097_143]))
    r = draw(st.integers(min_value=0, max_value=9))
    c = draw(st.integers(min_value=0, max_value=12))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))  # all-zero, sparse, half, dense
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return p, rng.integers(1, p, size=(r, c)) * (rng.random((r, c)) < density)


@settings(max_examples=300, deadline=None)
@given(elimination_inputs())
def test_elimination_kernel_matches_the_numpy_reference(case):
    p, a = case
    got, got_pivots = _rref_array(a.copy(), p)
    want, want_pivots = _numpy_rref(a.copy(), p)
    assert got_pivots == want_pivots
    assert got.dtype == np.int64 and got.shape == a.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [2, 101, 2_097_143])
def test_rref_rank_and_solve_match_the_reference_and_keep_their_inputs(p):
    # the reference gives the same forms and the same particular solutions
    rng = np.random.default_rng(p)
    for _ in range(30):
        r, c = (int(k) for k in rng.integers(0, 8, size=2))
        a = Mat(p, rng.integers(1, p, size=(r, c)) * (rng.random((r, c)) < 0.5))
        b = Mat(p, rng.integers(0, p, size=(r, 2)))
        before_a, before_b = a.a.copy(), b.a.copy()
        want, want_pivots = _numpy_rref(a.a.copy(), p)
        red, pivots = rref(a)
        assert pivots == tuple(want_pivots) and np.array_equal(red.a, want)
        assert rank(a) == len(want_pivots)
        aug, aug_pivots = _numpy_rref(np.hstack([a.a, b.a]), p)
        x = solve(a, b)
        if any(pc >= c for pc in aug_pivots):
            assert x is None
        else:
            want_x = np.zeros((c, 2), dtype=np.int64)
            for i, pc in enumerate(aug_pivots):
                want_x[pc] = aug[i, c:]
            assert np.array_equal(x.a, want_x)
        assert np.array_equal(a.a, before_a) and np.array_equal(b.a, before_b)


def test_stacking_rejects_mixed_moduli():
    five, seven = Mat(5, [[1]]), Mat(7, [[1]])
    for stack in (hstack, vstack, block_diag):
        with pytest.raises(ValueError, match="mixed moduli"):
            stack([five, seven])
        assert stack([five, five]).p == 5


def test_negative_power_is_refused():
    m = Mat(5, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="negative"):
        m.power(-1)
    assert m.power(0) == Mat.identity(5, 2) and m.power(3) == m @ m @ m


def test_float_and_complex_entries_are_refused():
    for data in ([[1.5, 2]], [[1.0, 2.0]], np.array([[1 + 2j]])):
        with pytest.raises(ValueError, match="integers"):
            Mat(5, data)
    assert Mat(5, np.array([[True, False]])) == Mat(5, [[1, 0]])
    assert Mat(5, np.zeros((0, 3))).shape == (0, 3)
