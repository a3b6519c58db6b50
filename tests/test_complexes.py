"""Complexes: validation, cohomology, shifts, cones, homotopies, Hom complexes."""

import numpy as np
import pytest

from homcat.algebras import preset
from homcat.complexes import (
    CMap,
    DegreewiseSolver,
    Htp,
    chain_map_basis,
    cohomology_data,
    cohomology_dims,
    cohomology_map,
    cone_complex,
    euler_characteristic,
    hom_complex,
    hom_k_dim,
    make_complex,
    null_homotopy,
    shift,
    shift_map,
    solve_squares,
    stalk,
    truncate,
)
from homcat.derived import proj_resolution
from homcat.errors import ValidationError
from homcat.linalg import Mat, rank
from homcat.modules import (
    MMap,
    hom_space,
    projective_module,
    regular_module,
    simple_module,
)
from homcat.samples import random_complex, random_chain_map, random_homotopic_pair

L1 = preset("lambda1", 101)
GF = preset("ground_field", 101)
T2 = preset("truncpoly(2)", 101)


def _p2_to_p1():
    p2, p1 = projective_module(L1, 1), projective_module(L1, 0)
    inc = hom_space(p2, p1)[0]
    return make_complex(L1, -1, [p2, p1], [inc])


def test_stalk_cohomology():
    s = simple_module(L1, 0)
    x = stalk(s, 0)
    dims = cohomology_dims(x)
    assert dims == {0: 1}


def test_two_term_complex_cohomology():
    x = _p2_to_p1()
    assert cohomology_dims(x) == {-1: 0, 0: 1}
    h0 = cohomology_data(x, 0).module
    from homcat.modules import is_isomorphic

    assert is_isomorphic(h0, simple_module(L1, 0)) is not None


def test_d_squared_rejected():
    s = simple_module(T2, 0)
    reg = regular_module(T2)
    up = hom_space(s, reg)[0]
    down = hom_space(reg, s)[0]
    # s -> reg -> s composes to zero, but reg -> s -> reg does not
    with pytest.raises(ValidationError, match="d o d"):
        make_complex(T2, 0, [reg, s, reg], [down, up])


def test_shift_involution_and_cohomology():
    rng = np.random.default_rng(3)
    x = random_complex(L1, rng)
    assert shift(shift(x, 1), -1) == x
    assert shift(x, 0) == x
    hx = cohomology_dims(x)
    hs = cohomology_dims(shift(x, 1))
    for n, d in hs.items():
        assert hx.get(n + 1, 0) == d


def test_acyclic_windowed_truncpoly_complex():
    # Lambda --T--> Lambda --T--> Lambda over k[T]/(T^2): exact in the middle
    reg = regular_module(T2)
    t_action = reg.rho(T2.basis_vector(1))
    d = MMap(reg, reg, t_action)
    x = make_complex(T2, 0, [reg, reg, reg], [d, d])
    assert cohomology_dims(x)[1] == 0


def test_cone_of_identity_contractible():
    x = _p2_to_p1()
    c, _ = cone_complex(CMap.identity(x))
    assert all(d == 0 for d in cohomology_dims(c).values())
    assert null_homotopy(CMap.identity(c)) is not None


def test_cone_of_zero_map():
    x = stalk(simple_module(L1, 0), 0)
    y = stalk(simple_module(L1, 1), 0)
    c, _ = cone_complex(CMap.zero(x, y))
    assert cohomology_dims(c) == {-1: 1, 0: 1}


def test_cone_of_zero_is_shift_plus_target_on_the_nose():
    from homcat.complexes import direct_sum_cx

    rng = np.random.default_rng(41)
    x = random_complex(L1, rng, max_support=3, dim_cap=4)
    y = random_complex(L1, rng, max_support=3, dim_cap=4)
    c, _ = cone_complex(CMap.zero(x, y))
    total, _, _ = direct_sum_cx([shift(x, 1), y])
    assert c == total


def test_cone_of_projective_quotient_pattern():
    p2, p1 = projective_module(L1, 1), projective_module(L1, 0)
    f = hom_space(p2, p1)[0]
    cm = CMap.build(stalk(p2, 0), stalk(p1, 0), {0: f})
    c, _ = cone_complex(cm)
    assert cohomology_dims(c) == {-1: 0, 0: 1}


def test_null_homotopy_cases():
    x = _p2_to_p1()
    idm = CMap.identity(x)
    assert null_homotopy(idm, idm) is not None
    assert null_homotopy(idm) is None
    s = stalk(simple_module(L1, 0), 0)
    assert null_homotopy(CMap.identity(s)) is None
    c, _ = cone_complex(CMap.identity(x))
    cert = null_homotopy(CMap.identity(c))
    assert cert is not None


def test_degreewise_solver_equation_before_later_variable():
    s = simple_module(L1, 0)
    solver = DegreewiseSolver(101)
    solver.add_var("a", s, s)
    solver.add_eq([("a", None, None, +1)], Mat.identity(101, 1).scale(2))
    solver.add_var("b", s, s)
    solver.add_eq([("a", None, None, +1), ("b", None, None, +1)], Mat.identity(101, 1).scale(5))
    sol = solver.solve()
    assert sol["a"] == Mat.identity(101, 1).scale(2)
    assert sol["b"] == Mat.identity(101, 1).scale(3)


def test_solve_squares_lifts_endomorphism_through_resolution():
    m = simple_module(L1, 0)
    res = proj_resolution(m)
    assert len(res.res.objects) > 1
    gamma = MMap.identity(m).scale(3)
    target_map = CMap.build(res.target, res.target, {0: gamma})
    rhs = target_map @ res.comparison
    out = solve_squares((res.res, res.res), [(res.comparison, None, rhs)])
    assert out is not None
    w, (htp,) = out
    assert w.src == res.res and w.dst == res.res
    assert htp.phi == res.comparison @ w and htp.psi == rhs
    Htp(htp.phi, htp.psi, htp.comps)  # re-verifies the homotopy identity
    assert cohomology_map(w, 0).mat == Mat.identity(101, 1).scale(3)


def test_solve_squares_none_when_square_cannot_commute():
    x = stalk(simple_module(L1, 0), 0)
    assert solve_squares((x, x), [(CMap.zero(x, x), None, CMap.identity(x))]) is None
    # without w the same builder certifies phi ~ psi
    idm = CMap.identity(x)
    (w, (htp,)) = solve_squares(None, [(idm, None, idm)])
    assert w is None and htp.phi == idm and htp.psi == idm


def test_homotopy_invariance_of_cohomology():
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = random_complex(L1, rng)
        y = random_complex(L1, rng)
        phi, psi, cert = random_homotopic_pair(x, y, rng)
        for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
            assert cohomology_map(phi, n).mat == cohomology_map(psi, n).mat


def test_hom_complex_of_stalks():
    m = projective_module(L1, 0)
    n = simple_module(L1, 0)
    hc = hom_complex(stalk(m, 0), stalk(n, 0))
    assert hc.cx.obj(0).dim == len(hom_space(m, n))
    assert hc.cx.obj(1).dim == 0


def test_hom_k_identity_class():
    x = _p2_to_p1()
    assert hom_k_dim(x, x) >= 1


def test_hom_k_resolution_vs_simple():
    # Hom in K from the projective resolution of S1 to the stalk of S2 equals
    # Hom in the derived category = dim Ext^0(S1, S2) = 0... the degree-0 Hom
    # computes maps P* -> S2[0]: only through the top of P1
    x = _p2_to_p1()
    s2 = stalk(simple_module(L1, 1), 0)
    assert hom_k_dim(x, s2) == 0
    s1 = stalk(simple_module(L1, 0), 0)
    assert hom_k_dim(x, s1) == 1


def test_chain_map_basis_matches_hom_of_modules():
    m = projective_module(L1, 0)
    n = projective_module(L1, 1)
    basis = chain_map_basis(stalk(m, 0), stalk(n, 0))
    assert len(basis) == len(hom_space(m, n))


def test_truncation_profile():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_complex(L1, rng)
        n = int(rng.integers(x.lo - 1, x.hi + 2))
        t = truncate(x, n)
        ht = cohomology_dims(t)
        hx = cohomology_dims(x)
        for k in set(ht) | set(hx):
            if k <= n:
                assert ht.get(k, 0) == hx.get(k, 0)
            else:
                assert ht.get(k, 0) == 0


def test_truncate_outside_support():
    x = _p2_to_p1()
    assert truncate(x, 5) == x
    assert truncate(x, -3).is_zero()


def test_euler_characteristic_equals_cohomology_euler():
    rng = np.random.default_rng(7)
    for _ in range(8):
        x = random_complex(L1, rng)
        lhs = euler_characteristic(x)
        rhs = sum((1 if n % 2 == 0 else -1) * d for n, d in cohomology_dims(x).items())
        assert lhs == rhs


def test_shift_map_transport():
    rng = np.random.default_rng(13)
    x = random_complex(L1, rng)
    y = random_complex(L1, rng)
    f = random_chain_map(x, y, rng)
    sf = shift_map(f, 1)
    assert sf.src == shift(x, 1) and sf.dst == shift(y, 1)


def test_hom_bilinearity_of_composition():
    # composition of homotopy classes is bilinear: (a + b) o c ~ a o c + b o c
    rng = np.random.default_rng(17)
    x = random_complex(L1, rng, max_support=3, dim_cap=4)
    y = random_complex(L1, rng, max_support=3, dim_cap=4)
    z = random_complex(L1, rng, max_support=3, dim_cap=4)
    a = random_chain_map(y, z, rng)
    b = random_chain_map(y, z, rng)
    c = random_chain_map(x, y, rng)
    lhs = (a + b) @ c
    rhs = a @ c + b @ c
    assert null_homotopy(lhs, rhs) is not None  # in fact equal on the nose
    d = random_chain_map(x, y, rng)
    assert null_homotopy(a @ (c + d), a @ c + a @ d) is not None
