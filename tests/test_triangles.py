"""Triangulated structure: cones, certification, rotation, sums, octahedra,
fill-ins, split sequences, semisimple splitting."""

import numpy as np
import pytest

from homcat.algebras import preset
from homcat.complexes import (
    CMap,
    cohomology_dims,
    cone_complex,
    direct_sum_cx,
    make_complex,
    null_homotopy,
    shift,
    shift_map,
    stalk,
)
from homcat.derived import proj_resolution
from homcat.errors import GuardError, ValidationError
from homcat.linalg import rank
from homcat.modules import MMap, direct_sum, hom_space, projective_module, simple_module
from homcat.samples import random_chain_map, random_complex
from homcat.triangles import (
    Tri,
    _composite_certs,
    certify_triangle,
    cone_triangle,
    fill_in,
    fillin_ambiguity,
    identity_triangle,
    octahedron,
    rotate,
    semisimple_split,
    split_seq_to_triangle,
    sum_triangles,
    verify_cone_les,
)

L1 = preset("lambda1", 101)
L1_2 = preset("lambda1", 2)
GF101 = preset("ground_field", 101)
GF2 = preset("ground_field", 2)


def _random_map(alg, rng, **kw):
    x = random_complex(alg, rng, **kw)
    y = random_complex(alg, rng, **kw)
    return random_chain_map(x, y, rng)


def _projective_maps():
    """Nonzero maps stalk(P3) -> stalk(P2) -> stalk(P1) over lambda1."""
    p3, p2, p1 = (projective_module(L1, j) for j in (2, 1, 0))
    f = CMap.build(stalk(p3, 0), stalk(p2, 0), {0: hom_space(p3, p2)[0]})
    g = CMap.build(stalk(p2, 0), stalk(p1, 0), {0: hom_space(p2, p1)[0]})
    return f, g


def test_cone_triangle_certificates_verify():
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = _random_map(L1, rng, max_support=3, dim_cap=4)
        tri = cone_triangle(f)
        assert tri.kind == "cone"


@pytest.mark.parametrize("seed", range(3))
def test_cached_cone_triangles_equal_a_fresh_build(seed):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        f = _random_map(L1, rng, max_support=3, dim_cap=4)
        tri = cone_triangle(f)
        assert cone_triangle(f) is tri
        fresh = cone_triangle.__wrapped__(f)
        assert (tri.f, tri.g, tri.h, tri.kind) == (fresh.f, fresh.g, fresh.h, fresh.kind)
        for cert, fresh_cert in zip(tri.comp_certs, fresh.comp_certs):
            assert cert.phi == fresh_cert.phi and cert.psi == fresh_cert.psi
            assert {n: h.mat for n, h in cert.comps.items()} == {n: h.mat for n, h in fresh_cert.comps.items()}


def test_a_wrong_map_on_a_cached_cone_is_still_rejected():
    rng = np.random.default_rng(3)
    f = _random_map(L1, rng, max_support=3, dim_cap=4)
    while f.dst.is_zero():
        f = _random_map(L1, rng, max_support=3, dim_cap=4)
    tri = cone_triangle(f)
    g = tri.g.scale(2)  # 2 iota: every composite is still null-homotopic
    certs = _composite_certs(f, g, tri.h)
    hits = cone_complex.cache_info().hits
    with pytest.raises(ValidationError, match="does not match its cone"):
        Tri(f=f, g=g, h=tri.h, kind="cone", comp_certs=certs)
    assert cone_complex.cache_info().hits > hits


def test_cone_les_exactness():
    rng = np.random.default_rng(1)
    for _ in range(8):
        f = _random_map(L1, rng, max_support=3, dim_cap=4)
        assert verify_cone_les(f)


def test_identity_triangle():
    x = stalk(projective_module(L1, 0), 0)
    tri = identity_triangle(x)
    assert tri.kind == "iso-to-cone"
    assert tri.z.is_zero()


def test_rotate_certifies_and_rotates_thrice():
    rng = np.random.default_rng(2)
    f = _random_map(L1, rng, max_support=2, dim_cap=3)
    tri = cone_triangle(f)
    r1 = rotate(tri)
    assert r1.x == tri.y and r1.y == tri.z
    r3 = rotate(rotate(r1))
    assert r3.x == shift(tri.x, 1)
    assert r3.y == shift(tri.y, 1)
    assert r3.z == shift(tri.z, 1)


def test_sum_of_cone_triangles_certify():
    rng = np.random.default_rng(3)
    f1 = _random_map(L1, rng, max_support=2, dim_cap=3)
    f2 = _random_map(L1, rng, max_support=2, dim_cap=3)
    t1, t2 = cone_triangle(f1), cone_triangle(f2)
    total = sum_triangles([t1, t2])
    assert total.kind == "iso-to-cone"
    assert total.z.total_dim() == t1.z.total_dim() + t2.z.total_dim()


def test_sum_of_rotated_triangles_via_solver():
    rng = np.random.default_rng(4)
    f1 = _random_map(GF101, rng, max_support=2, dim_cap=2)
    f2 = _random_map(GF101, rng, max_support=2, dim_cap=2)
    t1, t2 = rotate(cone_triangle(f1)), rotate(cone_triangle(f2))
    total = sum_triangles([t1, t2])
    assert total.kind == "iso-to-cone"


def test_sum_triangles_maps_commute_with_the_summand_maps():
    f, _ = _projective_maps()
    comparison = proj_resolution(simple_module(L1, 0)).comparison
    tris = [cone_triangle(f), cone_triangle(comparison)]
    tris.append(rotate(tris[1]))  # a third map with a sign
    total = sum_triangles(tris)
    _, x_injs, x_projs = direct_sum_cx([t.x for t in tris])
    _, y_injs, y_projs = direct_sum_cx([t.y for t in tris])
    _, z_injs, z_projs = direct_sum_cx([t.z for t in tris])
    for t, tri in enumerate(tris):
        sx_inj, sx_proj = shift_map(x_injs[t], 1), shift_map(x_projs[t], 1)
        assert total.f @ x_injs[t] == y_injs[t] @ tri.f
        assert y_projs[t] @ total.f == tri.f @ x_projs[t]
        assert total.g @ y_injs[t] == z_injs[t] @ tri.g
        assert z_projs[t] @ total.g == tri.g @ y_projs[t]
        assert total.h @ z_injs[t] == sx_inj @ tri.h
        assert sx_proj @ total.h == tri.h @ z_projs[t]


def test_singleton_sum_is_identity():
    rng = np.random.default_rng(5)
    f = _random_map(L1, rng, max_support=2, dim_cap=3)
    tri = cone_triangle(f)
    assert sum_triangles([tri]) is tri


def test_octahedron_on_projective_maps():
    oct_ = octahedron(*_projective_maps())
    assert oct_.tri_cones.kind == "iso-to-cone"
    # cohomology bookkeeping across the third cone
    hc = cohomology_dims(oct_.tri_cones.z.obj(0) and oct_.tri_g.z or oct_.tri_g.z)
    assert cohomology_dims(oct_.tri_g.z) == cohomology_dims(oct_.tri_cones.z)


def test_octahedron_random():
    rng = np.random.default_rng(6)
    for _ in range(4):
        x = random_complex(L1, rng, max_support=2, dim_cap=3)
        y = random_complex(L1, rng, max_support=2, dim_cap=3)
        z = random_complex(L1, rng, max_support=2, dim_cap=3)
        f = random_chain_map(x, y, rng)
        g = random_chain_map(y, z, rng)
        oct_ = octahedron(f, g)
        for cert in oct_.square_certs:
            assert cert.phi == cert.psi  # strict squares


def test_octahedron_blocks_equal_the_composite_formula():
    # the reference sums products of the injections and projections of each
    # cone degree: a = i_X p_X + i_Z g p_Y and b = i_Y f p_X + i_Z p_Z
    rng = np.random.default_rng(63)
    comparison = proj_resolution(simple_module(L1, 0)).comparison
    u, v, w = (random_complex(L1, rng, max_support=2, dim_cap=3, lo_range=(0, 0)) for _ in range(3))
    pairs = [
        _projective_maps(),
        (comparison, CMap.identity(comparison.dst).scale(3)),
        (random_chain_map(u, v, rng), random_chain_map(v, w, rng)),
    ]
    for f, g in pairs:
        assert not f.is_zero() and not g.is_zero()
        oct_ = octahedron(f, g)
        x, y, z = f.src, f.dst, g.dst
        cxs = [c for c in (x, y, z) if not c.is_zero()]
        for n in range(min(c.lo for c in cxs) - 1, max(c.hi for c in cxs) + 1):
            _, _, (px_f, py_f) = direct_sum([x.obj(n + 1), y.obj(n)])
            _, (ix_gf, iz_gf), (px_gf, pz_gf) = direct_sum([x.obj(n + 1), z.obj(n)])
            _, (iy_g, iz_g), _ = direct_sum([y.obj(n + 1), z.obj(n)])
            a = ix_gf @ px_f + iz_gf @ g.component(n) @ py_f
            b = iy_g @ f.component(n + 1) @ px_gf + iz_g @ pz_gf
            assert oct_.a.component(n).mat == a.mat
            assert oct_.b.component(n).mat == b.mat


def test_octahedron_identity_edge_cases():
    rng = np.random.default_rng(7)
    x = random_complex(L1, rng, max_support=2, dim_cap=3)
    y = random_complex(L1, rng, max_support=2, dim_cap=3)
    f = random_chain_map(x, y, rng)
    oct1 = octahedron(CMap.identity(x), f)
    oct2 = octahedron(f, CMap.identity(y))
    assert cohomology_dims(oct1.tri_gf.z) == cohomology_dims(oct1.tri_g.z)
    assert cohomology_dims(oct2.tri_gf.z) == cohomology_dims(oct2.tri_f.z)


def test_fill_in_identity_square():
    rng = np.random.default_rng(8)
    f = _random_map(L1, rng, max_support=2, dim_cap=3)
    tri = cone_triangle(f)
    phi3, s1, s2 = fill_in(tri, tri, CMap.identity(tri.x), CMap.identity(tri.y))
    assert phi3.src == tri.z and phi3.dst == tri.z


def test_fill_in_rejects_non_commuting_square():
    # square: id o id vs 0 o id does not commute up to homotopy on a stalk
    s1 = stalk(simple_module(L1, 0), 0)
    t1 = cone_triangle(CMap.identity(s1))
    t2 = cone_triangle(CMap.zero(s1, s1))
    with pytest.raises(ValidationError, match="commute"):
        fill_in(t1, t2, CMap.identity(s1), CMap.identity(s1))
    # mismatched endpoints
    s2 = stalk(simple_module(L1, 1), 0)
    t3 = cone_triangle(CMap.identity(s2))
    with pytest.raises(ValidationError, match="endpoints"):
        fill_in(t1, t3, CMap.identity(s1), CMap.zero(s1, s2))


def test_fillin_ambiguity_designated_triangle():
    # zero map from a stalk one degree up: cone is k^2 in a single degree,
    # where the off-diagonal fill-in survives
    k = simple_module(GF2, 0)
    x = stalk(k, 1)
    y = stalk(k, 0)
    tri = cone_triangle(CMap.zero(x, y))
    witness = fillin_ambiguity(tri)
    assert witness is not None
    a, b = witness
    assert null_homotopy(a, b) is None


def test_fillin_ambiguity_absent_for_same_degree_stalks():
    # both stalks in degree 0: the cone splits across two degrees and the
    # fill-in is unique up to homotopy
    k = simple_module(GF2, 0)
    tri = cone_triangle(CMap.zero(stalk(k, 0), stalk(k, 0)))
    assert fillin_ambiguity(tri) is None


def test_fillin_ambiguity_guard():
    k = simple_module(GF101, 0)
    tri = cone_triangle(CMap.zero(stalk(k, 1), stalk(k, 0)))
    with pytest.raises(GuardError):
        fillin_ambiguity(tri)


def test_semisimple_split_stalk_and_contractible():
    k = simple_module(GF101, 0)
    x = stalk(k, 0)
    s, p, sm, htp = semisimple_split(x)
    assert cohomology_dims(s) == {0: 1}
    # contractible: k --id--> k
    x2 = make_complex(GF101, 0, [k, k], [MMap.identity(k)])
    s2, _, _, _ = semisimple_split(x2)
    assert s2.is_zero()


def test_semisimple_split_random_betti():
    rng = np.random.default_rng(9)
    for _ in range(6):
        x = random_complex(GF101, rng, max_support=4, dim_cap=5)
        s, p, sm, htp = semisimple_split(x)
        for n in x.degrees():
            d = x.diff(n).mat
            d_prev = x.diff(n - 1).mat
            betti = x.obj(n).dim - rank(d) - rank(d_prev)
            assert s.obj(n).dim == betti


@pytest.mark.parametrize("p", [2, 3, 101])
def test_semisimple_split_certificates(p):
    gf = preset("ground_field", p)
    rng = np.random.default_rng(p)
    nonzero = 0
    for _ in range(6):
        x = random_complex(gf, rng, max_support=4, dim_cap=5)
        s, pm, sm, htp = semisimple_split(x)
        assert pm @ sm == CMap.identity(s)
        assert htp.phi == CMap.identity(x)
        assert htp.psi == sm @ pm
        assert all(s.obj(n).dim == d for n, d in cohomology_dims(x).items())
        nonzero += not s.is_zero()
    assert nonzero
    zero = make_complex(gf, 0, [], [])
    s, pm, sm, htp = semisimple_split(zero)
    assert s.is_zero() and pm.is_zero() and sm.is_zero() and htp.phi == CMap.identity(zero)


def test_semisimple_split_refuses_non_semisimple():
    x = stalk(simple_module(L1, 0), 0)
    with pytest.raises(ValidationError, match="semisimple"):
        semisimple_split(x)


def test_split_seq_to_triangle_canonical():
    # Y = X (+) Z with canonical maps: connecting map zero, certified
    from homcat.complexes import direct_sum_cx

    rng = np.random.default_rng(10)
    x = random_complex(L1, rng, max_support=2, dim_cap=3)
    z = random_complex(L1, rng, max_support=2, dim_cap=3)
    y, injs, projs = direct_sum_cx([x, z])
    tri, data = split_seq_to_triangle(injs[0], projs[1])
    assert tri.kind == "iso-to-cone"
    assert tri.h.is_zero()


def test_split_seq_from_cone():
    # 0 -> Y -> cone(f) -> Sigma X -> 0 is degreewise split by construction
    rng = np.random.default_rng(11)
    f = _random_map(L1, rng, max_support=2, dim_cap=3)
    c, parts = cone_complex(f)
    tri, data = split_seq_to_triangle(parts.iota, parts.pi)
    assert tri.kind == "iso-to-cone"


def test_split_seq_certifies_its_connecting_map_once(monkeypatch):
    # the cone input of test_split_seq_from_cone: h = -r d s is the connecting map
    import homcat.triangles as triangles

    rng = np.random.default_rng(11)
    f = _random_map(L1, rng, max_support=2, dim_cap=3)
    c, parts = cone_complex(f)
    calls = []

    def counted(*args):
        calls.append(args)
        return certify_triangle(*args)

    monkeypatch.setattr(triangles, "certify_triangle", counted)
    tri, data = split_seq_to_triangle(parts.iota, parts.pi)
    assert len(calls) == 1
    assert null_homotopy(tri.h) is None  # the other sign would not certify
    secs, rets = data["sections"], data["retractions"]
    for n, g in tri.h.comps.items():
        assert g.mat == -(rets[n + 1].mat @ c.diff(n).mat @ secs[n].mat)


def test_split_seq_rejects_non_split():
    # 0 -> S3 -> P2 -> S2 -> 0 over Lambda_1 is exact but not split
    p2 = projective_module(L1, 1)
    s2 = simple_module(L1, 1)
    s3 = simple_module(L1, 2)
    epi = hom_space(p2, s2)[0]
    mono = hom_space(s3, p2)[0]
    with pytest.raises(ValidationError):
        split_seq_to_triangle(
            CMap.build(stalk(s3, 0), stalk(p2, 0), {0: mono}),
            CMap.build(stalk(p2, 0), stalk(s2, 0), {0: epi}),
        )


def test_certify_rejects_wrong_third_object():
    # claim cone of f is Sigma X (+) Y when f is NOT null-homotopic: must fail
    p2 = projective_module(L1, 1)
    s2 = simple_module(L1, 1)
    f_mod = hom_space(p2, s2)[0]
    x = stalk(p2, 0)
    y = stalk(s2, 0)
    f = CMap.build(x, y, {0: f_mod})
    from homcat.complexes import direct_sum_cx

    fake_z, injs, projs = direct_sum_cx([shift(x, 1), y])
    with pytest.raises(ValidationError):
        certify_triangle(f, injs[1], projs[0])
