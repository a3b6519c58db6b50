"""Complexes: validation, cohomology, shifts, cones, homotopies, Hom complexes."""

import ast
from pathlib import Path

import numpy as np
import pytest

import homcat
from homcat.algebras import preset
from homcat.complexes import (
    CMap,
    DegreewiseSolver,
    Htp,
    chain_map_basis,
    cohomology_data,
    cohomology_dim,
    cohomology_dims,
    cohomology_map,
    cone_complex,
    euler_characteristic,
    hom_complex,
    hom_k_dim,
    lift_map,
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
from homcat.linalg import Mat, inverse, rank
from homcat.modules import (
    MMap,
    hom_space,
    make_module,
    projective_cover,
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


def test_degreewise_solver_terms_do_not_overflow_at_the_largest_prime():
    # dense L, R and Hom basis entries near p: L @ B @ R overflows int64 unless reduced after L @ B
    p = 2097143
    alg = preset("lambda1", p)
    reg = regular_module(alg)
    rng = np.random.default_rng(0)
    g_inv = None
    while g_inv is None:
        g = Mat(p, rng.integers(0, p, size=(reg.dim, reg.dim)))
        g_inv = inverse(g)
    m = make_module(alg, [g_inv @ a @ g for a in reg.action])
    b0 = hom_space(m, m)[0].mat
    left, right = (Mat(p, rng.integers(0, p, size=(m.dim, m.dim))) for _ in range(2))
    solver = DegreewiseSolver(p)
    solver.add_var("v", m, m)
    solver.add_eq([("v", left, right, +1)], left @ b0 @ right)
    sol = solver.solve()
    assert sol is not None
    assert left @ sol["v"] @ right == left @ b0 @ right


def test_lift_map_solves_one_equation_or_reports_none():
    s = simple_module(L1, 0)
    cover, epi = projective_cover(s)
    lift = lift_map(cover, cover, epi.mat, left=epi.mat)
    assert lift is not None and epi @ lift == epi
    # epi has no section: the cover of a simple over lambda1 does not split
    assert lift_map(s, cover, Mat.identity(101, 1), left=epi.mat) is None


def test_only_complexes_builds_degreewise_systems():
    # one-map lifts go through lift_map and chain-map systems through
    # squares_system, so no other module assembles a DegreewiseSolver by hand
    users = set()
    for path in sorted(Path(homcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "DegreewiseSolver" in names:
                users.add(path.name)
    assert users == {"complexes.py"}


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


@pytest.mark.parametrize(
    "source, target, component",
    [
        # shape mismatch: the identity of P1 is not a map P1 -> S1
        (projective_module(L1, 0), simple_module(L1, 0), MMap.identity(projective_module(L1, 0))),
        # right shape, wrong modules: the identity of S2 is not a map S1 -> S1
        (simple_module(L1, 0), simple_module(L1, 0), MMap.identity(simple_module(L1, 1))),
    ],
)
def test_coords_of_rejects_a_component_with_the_wrong_endpoints(source, target, component):
    hc = hom_complex(stalk(source, 0), stalk(target, 0))
    with pytest.raises(ValidationError, match="source degree 0") as err:
        hc.coords_of(0, {0: component})
    assert err.value.witness == 0


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


def _three_term_complex():
    """P --0--> P --id--> P in degrees 0, 1, 2 (P the first projective)."""
    p = projective_module(L1, 0)
    ident = MMap.identity(p)
    return make_complex(L1, 0, [p, p, p], [MMap.zero(p, p), ident]), ident


def test_chain_condition_failure_reports_its_degree():
    x, ident = _three_term_complex()
    CMap(x, x, {0: ident, 1: ident, 2: ident})
    with pytest.raises(ValidationError, match="chain condition") as err:
        CMap(x, x, {0: ident, 1: ident})
    assert err.value.witness == 1


def test_homotopy_identity_failure_reports_its_degree():
    p = projective_module(L1, 0)
    ident = MMap.identity(p)
    x = make_complex(L1, 0, [p, p], [ident])  # contractible: id ~ 0 via h^1 = id
    idx, zero = CMap.identity(x), CMap.zero(x, x)
    Htp(idx, zero, {1: ident})
    with pytest.raises(ValidationError, match="homotopy identity") as err:
        Htp(idx, zero, {1: ident.scale(2)})
    assert err.value.witness == 0


def _witness(build):
    """The witness degree of the ValidationError that build() raises, or None."""
    try:
        build()
    except ValidationError as err:
        return err.witness
    return None


def _mat(comps, n, src, dst):
    return comps[n].mat if n in comps else Mat.zeros(src.alg.p, dst.dim, src.dim)


def _dense_chain_witness(x, y, comps):
    """The lowest failing degree of f^(n+1) d_x^n = d_y^n f^n over the whole window."""
    for n in range(min(x.lo, y.lo) - 1, max(x.hi, y.hi) + 1):
        lhs = _mat(comps, n + 1, x.obj(n + 1), y.obj(n + 1)) @ x.diff(n).mat
        if lhs != y.diff(n).mat @ _mat(comps, n, x.obj(n), y.obj(n)):
            return n
    return None


def _dense_htp_witness(phi, psi, comps):
    """The lowest failing degree of phi^n - psi^n = d_y^(n-1) h^n + h^(n+1) d_x^n over the window."""
    x, y = phi.src, phi.dst
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
        h = [_mat(comps, k, x.obj(k), y.obj(k - 1)) for k in (n, n + 1)]
        rebuilt = y.diff(n - 1).mat @ h[0] + h[1] @ x.diff(n).mat
        if phi.component(n).mat - psi.component(n).mat != rebuilt:
            return n
    return None


def _tampered(comps, x, y, k, rng):
    """comps plus a random module map x^n -> y^(n-k) at a random degree n, on or off the support."""
    window = range(min(x.lo, y.lo) - 1, max(x.hi, y.hi) + 2)
    spots = [(n, f) for n in window if x.obj(n).dim and y.obj(n - k).dim for f in hom_space(x.obj(n), y.obj(n - k))]
    if not spots:
        return dict(comps)
    n, f = spots[int(rng.integers(len(spots)))]
    extra = f.scale(int(rng.integers(1, x.alg.p)))
    return {**comps, n: comps[n] + extra if n in comps else extra}


@pytest.mark.parametrize("seed", range(6))
def test_support_checks_match_the_dense_checks(seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = random_complex(L1, rng, max_support=4, dim_cap=4, lo_range=(-1, 0))
        for y in (x, random_complex(L1, rng, max_support=4, dim_cap=4, lo_range=(-1, 0))):
            phi, psi, htp = random_homotopic_pair(x, y, rng)
            for comps in (phi.comps, psi.comps, {n: f for n, f in psi.comps.items() if rng.random() < 0.5}):
                for c in (comps, _tampered(comps, x, y, 0, rng)):
                    assert _witness(lambda: CMap(x, y, c)) == _dense_chain_witness(x, y, c)
            for h in (htp.comps, _tampered(htp.comps, x, y, 1, rng)):
                assert _witness(lambda: Htp(psi, phi, h)) == _dense_htp_witness(psi, phi, h)
            zero = CMap.zero(x, y)
            for f, g, h in ((phi, phi, htp.comps), (zero, psi, {}), (phi, zero, htp.comps)):
                assert _witness(lambda: Htp(f, g, h)) == _dense_htp_witness(f, g, h)


def test_checks_reach_one_degree_below_the_support():
    # at min(support) - 1 only f^(n+1) d_x^n (or h^(n+1) d_x^n) can be nonzero
    x, ident = _three_term_complex()
    assert _witness(lambda: CMap(x, x, {2: ident})) == _dense_chain_witness(x, x, {2: ident}) == 1
    zero = CMap.zero(x, x)
    assert _witness(lambda: Htp(zero, zero, {2: ident})) == _dense_htp_witness(zero, zero, {2: ident}) == 1
    # a component of psi alone, with phi and h zero, is checked too
    assert _witness(lambda: Htp(zero, CMap.identity(x), {})) == _dense_htp_witness(zero, CMap.identity(x), {}) == 0


def test_graded_maps_build_no_zero_maps(monkeypatch):
    p = projective_module(L1, 0)
    ident, zero = MMap.identity(p), MMap.zero(p, p)
    x = make_complex(L1, -4, [p] * 8, [ident, zero] * 3 + [ident])  # contractible, degrees -4..3
    y = make_complex(L1, -8, [p] * 12, [ident, zero] * 5 + [ident])
    calls = []
    real = MMap.zero
    monkeypatch.setattr(MMap, "zero", staticmethod(lambda src, dst: calls.append(1) or real(src, dst)))
    idx = CMap.identity(x)
    inc = CMap(x, y, {n: ident for n in x.degrees()})
    sparse = CMap(x, x, {-4: ident, -3: ident})  # d^(-3) = 0 cuts it off
    assert inc @ idx == inc and idx + sparse - sparse == idx and idx @ sparse == sparse
    Htp(idx, CMap.zero(x, x), {n: ident for n in range(-3, 5, 2)})
    assert calls == []


def test_equal_chain_maps_hash_equal():
    l1 = preset("lambda1", 5)
    m = projective_module(l1, 0)
    x = make_complex(l1, 0, [m, m], [MMap.identity(m)])
    explicit = CMap(x, x, {0: MMap.zero(m, m)})
    assert explicit == CMap.zero(x, x) and hash(explicit) == hash(CMap.zero(x, x))
    padded = CMap(x, x, {0: MMap.identity(m), 1: MMap.identity(m), 5: MMap.zero(x.obj(5), x.obj(5))})
    assert padded == CMap.identity(x) and hash(padded) == hash(CMap.identity(x))
    assert len({explicit, CMap.zero(x, x), padded, CMap.identity(x)}) == 2


@pytest.mark.parametrize("p", [2, 101, 2097143])
def test_cohomology_dim_from_ranks_matches_cohomology_data(p):
    rng = np.random.default_rng(p)
    for alg in (preset("lambda1", p), preset("truncpoly(3)", p)):
        for _ in range(6):
            x = random_complex(alg, rng, max_support=4, dim_cap=5)
            for n in range(x.lo - 1, x.hi + 2):
                assert cohomology_dim(x, n) == cohomology_data(x, n).module.dim
