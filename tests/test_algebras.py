"""Algebra construction, presets, opposites, isomorphism search, JSON format."""

import numpy as np
import pytest

from homcat.errors import GuardError, ValidationError
from homcat.linalg import Mat
from homcat.algebras import (
    algebra_from_json,
    algebra_iso_search,
    algebra_to_json,
    make_algebra,
    opposite,
    preset,
)

ALL_PRESETS = ["lambda1", "lambda2", "lambda3", "ground_field", "truncpoly(2)", "truncpoly(4)"]


def test_ground_field():
    k = preset("ground_field", 101)
    assert k.dim == 1
    assert k.radical.cols == 0


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name", ALL_PRESETS)
def test_presets_validate_at_all_supported_primes(name, p):
    a = preset(name, p)
    assert a.p == p


def test_lambda1_shape():
    a = preset("lambda1", 101)
    assert a.dim == 6
    assert a.labels == ("E11", "E12", "E13", "E22", "E23", "E33")
    assert a.radical.cols == 3
    # E12 * E23 = E13
    i, j, k = a.labels.index("E12"), a.labels.index("E23"), a.labels.index("E13")
    prod = a.mul(a.basis_vector(i), a.basis_vector(j))
    want = np.zeros(6, dtype=np.int64)
    want[k] = 1
    assert np.array_equal(prod, want)


def test_lambda2_and_lambda3_shapes():
    b = preset("lambda2", 101)
    assert b.dim == 5
    assert len(b.idempotents) == 3
    assert b.radical.cols == 2
    c = preset("lambda3", 101)
    assert c.dim == 5
    assert c.radical.cols == 2
    # E12 * E23 = 0 after killing E13
    i, j = c.labels.index("E12"), c.labels.index("E23")
    assert not c.mul(c.basis_vector(i), c.basis_vector(j)).any()


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (3, 2), (5, 4)])
def test_truncpoly_radical_dims(n, expected):
    a = preset(f"truncpoly({n})", 3)
    assert a.dim == n
    assert a.radical.cols == expected


def test_radical_dims_match_presets():
    assert preset("lambda1", 101).radical.cols == 3
    assert preset("lambda2", 101).radical.cols == 2
    assert preset("lambda3", 101).radical.cols == 2


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("bogus", 101)


def test_one_dimensional_make_algebra():
    a = make_algebra(1, [[[1]]], [1], [[1]], Mat.zeros(7, 1, 0), 7)
    assert a.dim == 1


def test_make_algebra_rejects_bad_radical():
    # lambda1 data with E23 dropped from the radical: quotient not semisimple
    lam = preset("lambda1", 101)
    bad_rad = lam.radical.take_columns([0, 1])
    with pytest.raises(ValidationError, match="not semisimple"):
        make_algebra(
            6, lam.structconst, lam.unit, lam.idempotents, bad_rad, 101, labels=lam.labels
        )


def test_make_algebra_rejects_non_associative():
    # basis {1, x, y} with x*y = x, y*x = y, x*x = y*y = 0:
    # then (x*y)*x = 0 while x*(y*x) = x
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 0, 0] = 1
    c[0, 1, 1] = c[1, 0, 1] = 1
    c[0, 2, 2] = c[2, 0, 2] = 1
    c[1, 2, 1] = 1
    c[2, 1, 2] = 1
    with pytest.raises(ValidationError, match="associative"):
        make_algebra(3, c, [1, 0, 0], [[1, 0, 0]], Mat.zeros(5, 3, 0), 5)


def test_make_algebra_rejects_bad_unit():
    a = preset("truncpoly(2)", 5)
    with pytest.raises(ValidationError, match="unit"):
        make_algebra(2, a.structconst, [0, 1], a.idempotents, a.radical, 5)


def test_make_algebra_rejects_bad_idempotents():
    a = preset("lambda1", 5)
    bad = [a.unit]  # sums correctly but e*e = e means fine... use a non-idempotent
    bad = [a.basis_vector(1), (a.unit - a.basis_vector(1)) % 5]
    with pytest.raises(ValidationError):
        make_algebra(6, a.structconst, a.unit, bad, a.radical, 5, labels=a.labels)


def test_opposite_involution_and_commutative_fixed_points():
    k = preset("ground_field", 101)
    assert opposite(k) == k
    lam = preset("lambda1", 101)
    assert opposite(opposite(lam)) == lam
    assert opposite(lam) != lam
    t = preset("truncpoly(3)", 101)
    assert opposite(t) == t


def test_opposite_is_memoized_on_the_algebra_object():
    for name in ("lambda1", "lambda2", "truncpoly(3)"):
        a = preset(name, 101)
        assert opposite(a) is opposite(a)
        assert opposite(opposite(a)) is a
    t = preset("truncpoly(3)", 101)
    assert opposite(t) is t  # a commutative algebra is its own opposite


def test_iso_search_identity_case():
    lam = preset("lambda1", 101)
    iso = algebra_iso_search(lam, lam)
    assert iso is not None
    assert iso.forward @ iso.backward == Mat.identity(101, 6)


def test_iso_search_dim_mismatch():
    assert algebra_iso_search(preset("lambda1", 101), preset("lambda2", 101)) is None


def test_iso_search_lambda2_vs_lambda3():
    # same dims, same radical dims, but different quivers (two arrows into one
    # vertex vs a path of length two)
    assert algebra_iso_search(preset("lambda2", 101), preset("lambda3", 101)) is None


@pytest.mark.parametrize("p", [2, 3, 101])
def test_iso_search_symmetry_on_presets(p):
    algs = [preset(n, p) for n in ["lambda1", "lambda2", "lambda3", "truncpoly(2)"]]
    for a in algs:
        for b in algs:
            forward = algebra_iso_search(a, b)
            backward = algebra_iso_search(b, a)
            assert (forward is None) == (backward is None)


def test_iso_search_opposite_of_lambda2():
    # lambda2^op has the arrows reversed (one source feeding two sinks);
    # the permutation layer must still find lambda2 != lambda2^op... they are
    # actually non-isomorphic (2->1, 2->3 vs 1->2, 3->2 patterns are swapped
    # by transposing slice dims), while lambda1 is iso to its opposite.
    lam2 = preset("lambda2", 101)
    assert algebra_iso_search(lam2, opposite(lam2)) is None
    lam1 = preset("lambda1", 101)
    assert algebra_iso_search(lam1, opposite(lam1)) is not None


def _commutative_square(p: int, scale: int):
    """Path algebra of the square 1 -a-> 2 -b-> 4, 1 -c-> 3 -d-> 4 with ab = scale * cd.

    Basis e1, e2, e3, e4, a, b, c, d, w; products read left to right, cd = w."""
    ends = {4: (0, 1), 5: (1, 3), 6: (0, 2), 7: (2, 3), 8: (0, 3)}
    entries = [[i, i, i, 1] for i in range(4)]
    for x, (s, t) in ends.items():
        entries += [[s, x, x, 1], [x, t, x, 1]]
    entries += [[4, 5, 8, scale], [6, 7, 8, 1]]
    return algebra_from_json(
        {
            "prime": p,
            "dim": 9,
            "structconst": entries,
            "unit": [1, 1, 1, 1, 0, 0, 0, 0, 0],
            "idempotents": [[int(k == i) for k in range(9)] for i in range(4)],
            "radical": [[int(k == x) for k in range(9)] for x in range(4, 9)],
        }
    )


def test_iso_search_sweeps_every_arrow_scaling_at_a_small_prime():
    # d -> d / 2 is an isomorphism, but not one with all arrow scalars equal to 1
    a, b = _commutative_square(5, 1), _commutative_square(5, 2)
    iso = algebra_iso_search(a, b)
    assert iso is not None
    assert iso.forward @ iso.backward == Mat.identity(5, 9)


def test_iso_search_refuses_to_answer_no_when_the_sweep_is_partial():
    a, b = _commutative_square(10007, 1), _commutative_square(10007, 2)
    with pytest.raises(GuardError, match="1024"):
        algebra_iso_search(a, b)
    assert algebra_iso_search(a, a) is not None


def test_json_round_trip():
    for name in ALL_PRESETS:
        a = preset(name, 3)
        b = algebra_from_json(algebra_to_json(a))
        assert a == b
        assert b.labels == a.labels


def test_presets_are_interned_and_equality_stays_structural():
    a = preset("lambda1", 3)
    assert preset("lambda1", 3) is a
    b = algebra_from_json(algebra_to_json(a))
    assert b is not a and b == a
    assert opposite(opposite(a)) == a


def _json_truncpoly2():
    return algebra_to_json(preset("truncpoly(2)", 3))


@pytest.mark.parametrize(
    "corrupt, field",
    [
        pytest.param(lambda d: d.pop("structconst"), "structconst", id="missing-structconst"),
        pytest.param(lambda d: d.pop("prime"), "prime", id="missing-prime"),
        pytest.param(lambda d: d.__setitem__("dim", "2"), "dim", id="string-dim"),
        pytest.param(lambda d: d["structconst"].__setitem__(0, [0, 0, 0]), "structconst[0]", id="3-element-entry"),
        pytest.param(lambda d: d["structconst"].__setitem__(0, [5, 0, 0, 1]), "structconst[0]", id="index-too-large"),
        pytest.param(lambda d: d["structconst"].__setitem__(1, [0, -1, 1, 1]), "structconst[1]", id="negative-index"),
        pytest.param(lambda d: d.__setitem__("unit", [1]), "unit", id="short-unit"),
        pytest.param(lambda d: d["radical"].__setitem__(0, [0, 1, 0]), "radical[0]", id="long-radical-column"),
        pytest.param(lambda d: d["idempotents"].__setitem__(0, [1]), "idempotents[0]", id="short-idempotent"),
        pytest.param(lambda d: d.__setitem__("labels", ["1"]), "labels", id="short-labels"),
    ],
)
def test_json_rejects_malformed_fields(corrupt, field):
    data = _json_truncpoly2()
    corrupt(data)
    with pytest.raises(ValidationError) as err:
        algebra_from_json(data)
    assert err.value.witness == field
