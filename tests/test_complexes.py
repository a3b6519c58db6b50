"""Complexes: validation, cohomology, shifts, cones, homotopies, Hom complexes."""

import ast
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

import homcat
from homcat.algebras import preset
from homcat.complexes import (
    CMap,
    ConeParts,
    DegreewiseSolver,
    Htp,
    _hom_k_dims,
    chain_map_basis,
    cohomology_data,
    cohomology_dim,
    cohomology_dims,
    cohomology_map,
    cone_complex,
    direct_sum_cx,
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
from homcat.linalg import Mat, inverse, kernel_basis
from homcat.modules import (
    MMap,
    classify_indecomposables,
    hom_space,
    is_isomorphic,
    make_module,
    projective_cover,
    projective_module,
    regular_module,
    simple_module,
)
from homcat.samples import random_complex, random_chain_map, random_homotopic_pair, random_module
from homcat.stable import stable_hom_via_cr, stable_indecomposables

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


# sha256 over the draws of the sample generators from default_rng(0) over
# lambda1 at p = 101 (computed before their sums and spans were built by one
# elimination each): a change to how samples are built must not change what
# they draw
SAMPLE_SHA256 = {
    "random_module": "9164982099392234e1eb9b3faa3c486f9c050024bd570ef034c6f10d54cc56c0",
    "random_complex": "db18bf27431e9025ada7a181b57868cf5bc77f83cf75fe652a83833ff4cecce5",
}


def test_sample_generators_draw_the_pinned_objects():
    rng = np.random.default_rng(0)
    digest = hashlib.sha256(b"".join(random_module(L1, rng).key() for _ in range(30)))
    assert digest.hexdigest() == SAMPLE_SHA256["random_module"]
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for _ in range(20):  # degree window, every object's action, every differential
        x = random_complex(L1, rng)
        digest.update(x.lo.to_bytes(4, "little", signed=True))
        digest.update(b"".join(m.key() for m in x.objects) + b"".join(d.mat.key() for d in x.diffs))
    assert digest.hexdigest() == SAMPLE_SHA256["random_complex"]


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


def test_cone_parts_hold_only_iota_and_pi():
    # every other map into or out of a cone is a block matrix its caller writes
    assert [field.name for field in dataclasses.fields(ConeParts)] == ["iota", "pi"]


def test_cones_and_sums_of_complexes_make_no_direct_sum_call(monkeypatch):
    # each degree is one block sum, and the structure maps are identity slices
    import homcat.complexes
    import homcat.modules

    f = proj_resolution(simple_module(L1, 0)).comparison
    x, y = f.src, f.dst
    calls = []
    real = homcat.modules.direct_sum

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homcat.modules, "direct_sum", counting)
    monkeypatch.setattr(homcat.complexes, "direct_sum", counting, raising=False)
    c, _ = cone_complex(f)
    total, _, _ = direct_sum_cx([x, y, c])
    assert calls == []
    assert total.total_dim() == x.total_dim() + y.total_dim() + c.total_dim()


def test_direct_sum_cx_is_a_biproduct():
    rng = np.random.default_rng(44)
    xs = [random_complex(L1, rng, max_support=3, dim_cap=4) for _ in range(3)]
    xs += [_p2_to_p1(), make_complex(L1, 0, [], [])]
    total, injs, projs = direct_sum_cx(xs)
    for s, (x, inj) in enumerate(zip(xs, injs)):
        for t, (y, proj) in enumerate(zip(xs, projs)):
            assert proj @ inj == (CMap.identity(x) if s == t else CMap.zero(x, y))
    round_trips = [inj @ proj for inj, proj in zip(injs, projs)]
    assert sum(round_trips[1:], round_trips[0]) == CMap.identity(total)


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


def test_degreewise_solver_rejects_a_variable_after_an_equation():
    s = simple_module(L1, 0)
    solver = DegreewiseSolver(101)
    solver.add_var("a", s, s)
    solver.add_eq([("a", None, None, +1)], Mat.identity(101, 1).scale(2))
    with pytest.raises(ValueError, match="after the first equation"):
        solver.add_var("b", s, s)
    assert solver.size == 1 and "b" not in solver.bases
    assert solver.solve()["a"] == Mat.identity(101, 1).scale(2)


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


def _exact_mod(a, p):
    """An integer array reduced mod p with Python-int arithmetic: no int64 in between."""
    return np.asarray(a, dtype=object) % p


def test_hom_stack_combinations_are_exact_at_the_largest_prime():
    # coefficients near p against dense Hom basis entries near p: the solver's
    # decode and the random generators combine the basis stack with one tensordot
    p = 2097143
    alg = preset("lambda1", p)
    reg = regular_module(alg)
    rng = np.random.default_rng(1)
    g_inv = None
    while g_inv is None:
        g = Mat(p, rng.integers(0, p, size=(reg.dim, reg.dim)))
        g_inv = inverse(g)
    m = make_module(alg, [g_inv @ a @ g for a in reg.action])
    solver = DegreewiseSolver(p)
    solver.add_var("v", m, m)
    basis = [f.mat.a for f in hom_space(m, m)]
    coeffs = p - 1 - np.arange(solver.size)
    want = sum(int(c) * _exact_mod(b, p) for c, b in zip(coeffs, basis)) % p
    assert np.array_equal(_exact_mod(solver._decode(coeffs)["v"].a, p), want)
    homotopies = 0
    for _ in range(6):
        x, y = (random_complex(alg, rng, max_support=3, dim_cap=5) for _ in range(2))
        for n in range(x.lo, x.hi):
            assert not (_exact_mod(x._dmat(n + 1).a, p) @ _exact_mod(x._dmat(n).a, p) % p).any()
        phi, psi, cert = random_homotopic_pair(x, y, rng)
        for n, h in cert.comps.items():
            f, src_acts, dst_acts = (_exact_mod(a, p) for a in (h.mat.a, x.obj(n).acts, y.obj(n - 1).acts))
            assert not ((f @ src_acts - dst_acts @ f) % p).any()
        for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
            dy, h, h_next, dx = (_exact_mod(a.a, p) for a in (y._dmat(n - 1), cert.component(n).mat, cert.component(n + 1).mat, x._dmat(n)))
            assert not ((_exact_mod(psi._mat(n).a, p) - phi._mat(n).a - dy @ h - h_next @ dx) % p).any()
        homotopies += len(cert.comps)
    assert homotopies > 0


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


@pytest.mark.parametrize("p", [2, 3, 101])
def test_hom_k_dim_reads_the_hom_complex_cohomology(p):
    rng = np.random.default_rng(p)
    checked = 0
    for name in ("lambda1", "truncpoly(3)"):
        alg = preset(name, p)
        zero = make_complex(alg, 0, [], [])
        for _ in range(6):
            x = random_complex(alg, rng, max_support=3, dim_cap=3)
            y = random_complex(alg, rng, max_support=3, dim_cap=3)
            for src, dst in ((x, y), (y, x), (x, x), (x, zero), (zero, y), (zero, zero)):
                hc = hom_complex(src, dst).cx
                window = range(hc.lo - 1, hc.hi + 2) if not hc.is_zero() else range(-1, 2)
                for n in window:
                    assert hom_k_dim(src, dst, n) == cohomology_dim(hc, n), (src, dst, n)
                    checked += cohomology_dim(hc, n) > 0
                # the whole window in one pass, as the Ext table reads it
                assert _hom_k_dims(src, dst, window) == {n: cohomology_dim(hc, n) for n in window}
    assert checked >= 10  # enough nonzero degrees to compare


def test_hom_k_dim_rejects_mixed_algebras():
    x = stalk(simple_module(L1, 0), 0)
    with pytest.raises(ValidationError, match="different algebras"):
        hom_k_dim(x, stalk(simple_module(T2, 0), 0))
    with pytest.raises(ValidationError, match="different algebras"):
        hom_k_dim(x, make_complex(T2, 0, [], []), 1)


def test_chain_map_basis_matches_hom_of_modules():
    m = projective_module(L1, 0)
    n = projective_module(L1, 1)
    basis = chain_map_basis(stalk(m, 0), stalk(n, 0))
    assert len(basis) == len(hom_space(m, n))


def _chain_map_basis_from_hom_complex(x, y):
    """The echelon basis of ker D^0 on the Hom complex, decoded map by map:
    the construction ``chain_map_basis`` replaced, kept as its reference."""
    hc = hom_complex(x, y)
    if hc.degree_dim(0) == 0:
        return []
    z = kernel_basis(hc.cx.diff(0).mat)
    items = [(i, f) for i in hc.blocks(0) for f in hom_space(x.obj(i), y.obj(i))]
    out = []
    for t in range(z.cols):
        comps = {}
        for c, (i, f) in zip(z.a[:, t], items):
            if c:
                comps[i] = comps[i] + f.scale(int(c)) if i in comps else f.scale(int(c))
        out.append(CMap.build(x, y, comps))
    return out


@pytest.mark.parametrize("p", [2, 3, 101])
def test_chain_map_basis_equals_the_hom_complex_cocycles(p):
    rng = np.random.default_rng(p)
    pairs = 0
    for name in ("lambda1", "truncpoly(3)"):
        alg = preset(name, p)
        for _ in range(8):
            x = random_complex(alg, rng, max_support=3, dim_cap=3)
            y = random_complex(alg, rng, max_support=3, dim_cap=3)
            for src, dst in ((x, y), (y, x), (x, x)):
                basis = chain_map_basis(src, dst)
                reference = _chain_map_basis_from_hom_complex(src, dst)
                assert len(basis) == len(reference)
                for f, g in zip(basis, reference):
                    assert f.comps.keys() == g.comps.keys()
                    assert all(f.comps[n].mat == g.comps[n].mat for n in f.comps)
                pairs += bool(basis)
    assert pairs >= 10  # of 48: enough pairs with nonzero chain maps to compare


def _hom_blocks_reference(x, y, n):
    """Source degree -> slice of the degree-n basis, counted as the lengths of
    the per-source-degree ``hom_space`` bases."""
    out, t = {}, 0
    for i in x.degrees():
        k = len(hom_space(x.obj(i), y.obj(i + n)))
        if k:
            out[i], t = slice(t, t + k), t + k
    return out


def test_hom_windows_build_no_maps(monkeypatch):
    # Hom complexes, Hom-in-K dimensions, stable Homs via complete resolutions
    # and isomorphism tests read the cached Hom basis stacks, never a list of maps
    import sys

    real, calls = hom_space, []

    def counting(m, n):
        calls.append((m, n))
        return real(m, n)

    for name, module in list(sys.modules.items()):
        if (name == "homcat" or name.startswith("homcat.")) and getattr(module, "hom_space", None) is real:
            monkeypatch.setattr(module, "hom_space", counting)
    rng = np.random.default_rng(11)
    pairs = []
    for name in ("lambda1", "truncpoly(3)"):
        alg = preset(name, 3)
        ind = classify_indecomposables(alg)
        xs = [random_complex(alg, rng, max_support=3, dim_cap=3) for _ in range(3)] + [stalk(m, 0) for m in ind[:3]]
        for x in xs:
            for y in xs:
                hom_k_dim(x, y)
                _hom_k_dims(x, y, range(-2, 3))
                pairs.append((x, y))
        for m in ind:
            for n in ind:
                is_isomorphic(m, n)
    stable = stable_indecomposables(preset("truncpoly(3)", 3))
    for m in stable:
        for n in stable:
            stable_hom_via_cr(m, n)
    assert calls == []
    monkeypatch.undo()
    for x, y in pairs:
        hc = hom_complex(x, y)
        for n in range(hc.cx.lo - 1, hc.cx.hi + 2):
            want = _hom_blocks_reference(x, y, n)
            assert hc.blocks(n) == want
            assert hc.degree_dim(n) == sum(b.stop - b.start for b in want.values())


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
    # at degree 1 one side is absent: d^1 f^1 with no f^2, then f^2 d^1 with no f^1
    for support in ((0, 1), (2,)):
        with pytest.raises(ValidationError, match="chain condition") as err:
            CMap(x, x, {n: ident for n in support})
        assert err.value.witness == 1


def test_homotopy_identity_failure_reports_its_degree():
    p = projective_module(L1, 0)
    ident = MMap.identity(p)
    x = make_complex(L1, 0, [p, p], [ident])  # contractible: id ~ 0 via h^1 = id
    idx, zero = CMap.identity(x), CMap.zero(x, x)
    Htp(idx, zero, {1: ident})
    for comps in ({1: ident.scale(2)}, {}):  # h^1 wrong, then absent
        with pytest.raises(ValidationError, match="homotopy identity") as err:
            Htp(idx, zero, comps)
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


@pytest.mark.parametrize("seed", range(3))
def test_cached_cones_and_cohomology_equal_a_fresh_build(seed):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        x, y = (random_complex(L1, rng, max_support=3, dim_cap=4) for _ in range(2))
        f = random_chain_map(x, y, rng)
        built = cone_complex(f)
        assert cone_complex(f) is built
        assert built == cone_complex.__wrapped__(f)
        cone = built[0]
        for n in range(cone.lo - 1, cone.hi + 2):
            assert cohomology_data(cone, n) is cohomology_data(cone, n)
            assert cohomology_data(cone, n) == cohomology_data.__wrapped__(cone, n)


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
