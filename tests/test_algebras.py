"""Algebra construction, presets, opposites, isomorphism search, JSON format."""

import numpy as np
import pytest

from homcat import algebras
from homcat.errors import GuardError, ValidationError
from homcat.linalg import Mat, column_space, in_column_span, inverse, rref
from homcat.algebras import (
    algebra_from_json,
    algebra_generators,
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


def _matrix_algebra_m2(p):
    """M_2(F_p) on the matrix units E11, E12, E21, E22, with an empty radical."""
    units = [(1, 1), (1, 2), (2, 1), (2, 2)]
    c = np.zeros((4, 4, 4), dtype=np.int64)
    for i, (a, b) in enumerate(units):
        for j, (b2, d) in enumerate(units):
            if b == b2:
                c[i, j, units.index((a, d))] = 1
    e11, e22 = np.eye(4, dtype=np.int64)[[0, 3]]
    return make_algebra(4, c, e11 + e22, [e11, e22], Mat.zeros(p, 4, 0), p, name="M2")


def test_trace_form_refuses_a_semisimple_quotient_it_cannot_certify():
    # tr(L_xy) = 2 tr(xy) on M_2: zero at p = 2 on a semisimple algebra
    with pytest.raises(GuardError, match="cannot certify semisimplicity at this p"):
        _matrix_algebra_m2(2)
    assert _matrix_algebra_m2(3).dim == 4


def test_degenerate_trace_form_on_a_nilpotent_ideal_names_it():
    lam = preset("lambda1", 101)
    with pytest.raises(ValidationError, match="not semisimple") as err:
        make_algebra(6, lam.structconst, lam.unit, lam.idempotents, lam.radical.take_columns([0, 1]), 101)
    assert err.value.witness == (0, 0, 0, 0, 1, 0)  # E23, left out of the supplied radical


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


def _reference_close(a, b, gens):
    """The closure that re-eliminates the whole span after every new vector."""
    vecs, imgs = [g for g, _ in gens], [h for _, h in gens]
    span = column_space(Mat(a.p, np.array(vecs).T))
    changed = True
    while span.cols < a.dim and changed:
        changed = False
        for s in range(len(vecs)):
            for t in range(len(vecs)):
                w = a.mul(vecs[s], vecs[t])
                if w.any() and not in_column_span(span, Mat.column(a.p, w)):
                    vecs.append(w)
                    imgs.append(b.mul(imgs[s], imgs[t]))
                    span = column_space(Mat(a.p, np.array(vecs).T))
                    changed = True
    if span.cols < a.dim:
        return None
    _, pivots = rref(Mat(a.p, np.array(vecs).T))
    v_inv = inverse(Mat(a.p, np.array(vecs).T).take_columns(pivots))
    return None if v_inv is None else Mat(a.p, np.array(imgs).T).take_columns(pivots) @ v_inv


def _reference_generators(alg):
    gens = [np.asarray(e) for e in alg.idempotents]
    powers = alg.radical_powers()
    rad, span = powers[0], powers[1] if len(powers) > 1 else Mat.zeros(alg.p, alg.dim, 0)
    for t in range(rad.cols):
        col = Mat.column(alg.p, rad.a[:, t])
        if span.cols == 0 or not in_column_span(span, col):
            gens.append(rad.a[:, t].copy())
            span = column_space(Mat(alg.p, np.hstack([span.a, col.a])))
    if _reference_close(alg, alg, [(g, g) for g in gens]) is None:
        gens = [alg.basis_vector(i) for i in range(alg.dim)]
    return gens


def _iso_outcome(a, b):
    try:
        iso = algebra_iso_search(a, b)
    except GuardError as err:
        return str(err)
    return None if iso is None else (iso.forward, iso.backward)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_incremental_span_keeps_generators_and_isomorphisms(p, monkeypatch):
    # appending a vector outside the span, instead of re-eliminating every
    # vector, must not change any generating set or isomorphism found
    algs = [preset(n, p) for n in ALL_PRESETS + ["truncpoly(3)"]]
    algs += [opposite(a) for a in algs]
    for a in algs:
        got = algebra_generators.__wrapped__(a)
        want = _reference_generators(a)
        assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
        gens = [(g, g) for g in got]
        assert algebras._close_under_products(a, a, gens) == _reference_close(a, a, gens)
    outcomes = [_iso_outcome(a, b) for a in algs for b in algs]
    assert sum(o is not None and not isinstance(o, str) for o in outcomes) >= len(algs)
    monkeypatch.setattr(algebras, "_close_under_products", _reference_close)
    assert outcomes == [_iso_outcome(a, b) for a in algs for b in algs]
