"""Candidate exact triangles with verified certificates.

A triangle X -> Y -> Z -> Sigma X is *exact* here operationally: either it was
built as a mapping cone, or it carries a verified homotopy equivalence to the
cone triangle of its own first map.  Certificates (null-homotopies of the
composites, comparison maps, homotopy inverses) are stored and re-verified on
construction, so a Tri object is itself the proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from homcat.complexes import (
    CMap,
    ConeParts,
    Cx,
    Htp,
    chain_map_basis,
    cohomology_map,
    cone_complex,
    direct_sum_cx,
    make_complex,
    null_homotopy,
    shift,
    shift_map,
    solve_squares,
    zero_complex,
    _combined_degrees,
)
from homcat.errors import GuardError, ValidationError
from homcat.linalg import Mat, column_space, inverse, kernel_basis, rank, solve
from homcat.modules import MMap, Mod, hom_space, submodule

__all__ = [
    "Tri",
    "Oct",
    "cone_triangle",
    "certify_triangle",
    "identity_triangle",
    "rotate",
    "sum_triangles",
    "octahedron",
    "fill_in",
    "fillin_ambiguity",
    "semisimple_split",
    "split_seq_to_triangle",
    "verify_cone_les",
]


@dataclass(frozen=True, eq=False)
class Tri:
    """An exact triangle with stored certificates.

    comp_certs: null-homotopies of g o f, h o g, (Sigma f) o h.
    cone_cmp:   (w, v, s1, s2, s3, s4) with w: cone(f) -> Z a comparison map,
                v its homotopy inverse, s1: w iota ~ g, s2: h w ~ pi,
                s3: w v ~ id_Z, s4: v w ~ id_cone.  None for by-cone
                triangles, whose g and h must *be* the cone structure maps.
    All stored data is re-verified against a freshly built cone on
    construction.
    """

    f: CMap
    g: CMap
    h: CMap
    kind: str  # "cone" | "iso-to-cone"
    comp_certs: tuple[Htp, Htp, Htp]
    cone_cmp: tuple[CMap, CMap, Htp, Htp, Htp, Htp] | None = None

    @property
    def x(self) -> Cx:
        return self.f.src

    @property
    def y(self) -> Cx:
        return self.f.dst

    @property
    def z(self) -> Cx:
        return self.g.dst

    def __post_init__(self):
        if self.g.src != self.y or self.h.src != self.z:
            raise ValidationError("triangle maps do not compose")
        if self.h.dst != shift(self.x, 1):
            raise ValidationError("third map must land in the shift of the first object")
        gf, hg, sfh = self.comp_certs
        if gf.phi != self.g @ self.f or not gf.psi.is_zero():
            raise ValidationError("first composite certificate attached to the wrong map")
        if hg.phi != self.h @ self.g or not hg.psi.is_zero():
            raise ValidationError("second composite certificate attached to the wrong map")
        if sfh.phi != shift_map(self.f, 1) @ self.h or not sfh.psi.is_zero():
            raise ValidationError("third composite certificate attached to the wrong map")
        cone, parts = cone_complex(self.f)
        if self.kind == "cone":
            if self.cone_cmp is not None:
                raise ValidationError("by-cone triangles carry no comparison data")
            if self.z != cone or self.g != parts.iota or self.h != parts.pi:
                raise ValidationError("by-cone triangle does not match its cone")
        elif self.kind == "iso-to-cone":
            if self.cone_cmp is None:
                raise ValidationError("comparison data missing")
            w, v, s1, s2, s3, s4 = self.cone_cmp
            if w.src != cone or w.dst != self.z or v.src != self.z or v.dst != cone:
                raise ValidationError("comparison maps have wrong endpoints")
            checks = (
                (s1, w @ parts.iota, self.g),
                (s2, self.h @ w, parts.pi),
                (s3, w @ v, CMap.identity(self.z)),
                (s4, v @ w, CMap.identity(cone)),
            )
            for cert, phi, psi in checks:
                if cert.phi != phi or cert.psi != psi:
                    raise ValidationError("comparison certificate attached to the wrong square")
        else:
            raise ValidationError(f"unknown triangle kind {self.kind!r}")


def _composite_certs(f: CMap, g: CMap, h: CMap) -> tuple[Htp, Htp, Htp]:
    certs = []
    for a, b in ((g, f), (h, g), (shift_map(f, 1), h)):
        cert = null_homotopy(a @ b)
        if cert is None:
            raise ValidationError("consecutive triangle maps do not compose to zero")
        certs.append(cert)
    return tuple(certs)


def cone_triangle(f: CMap) -> Tri:
    """TR1: the mapping cone triangle X -> Y -> C(f) -> Sigma X with explicit
    null-homotopies of the composites."""
    x, y = f.src, f.dst
    c, parts = cone_complex(f)
    iota, pi = parts.iota, parts.pi
    # iota o f ~ 0 with witness h^n = inclusion of X^n into C^(n-1)
    h1 = Htp(
        iota @ f,
        CMap.zero(x, c),
        {
            n: parts.inj_x(n - 1)
            for n in x.degrees()
            if x.obj(n).dim and c.obj(n - 1).dim
        },
    )
    h2 = Htp.zero(pi @ iota, CMap.zero(y, shift(x, 1)))
    # (Sigma f) o pi ~ 0 with witness H^n = projection of C^n onto Y^n
    h3 = Htp(
        shift_map(f, 1) @ pi,
        CMap.zero(c, shift(y, 1)),
        {n: parts.proj_y(n) for n in c.degrees() if c.obj(n).dim and y.obj(n).dim},
    )
    return Tri(f=f, g=iota, h=pi, kind="cone", comp_certs=(h1, h2, h3), cone_cmp=None)


def certify_triangle(f: CMap, g: CMap, h: CMap) -> Tri:
    """Verify exactness by solving for a homotopy equivalence to cone(f).

    Finds w: cone(f) -> Z with w iota ~ g and h w ~ pi, then a two-sided
    homotopy inverse v.  Both solves succeed exactly when the candidate is
    isomorphic in K to the cone triangle (the comparison is automatically an
    equivalence by the triangulated five lemma, so solvability is the test).
    """
    certs = _composite_certs(f, g, h)
    c, parts = cone_complex(f)
    z = g.dst
    out = solve_squares((c, z), [(None, parts.iota, g), (h, None, parts.pi)])
    if out is None:
        raise ValidationError("no comparison map onto the cone: triangle is not exact")
    w, (s1, s2) = out
    inv = solve_squares((z, c), [(w, None, CMap.identity(z)), (None, w, CMap.identity(c))])
    if inv is None:
        raise ValidationError("comparison map admits no homotopy inverse")
    v, (s3, s4) = inv
    return Tri(
        f=f, g=g, h=h, kind="iso-to-cone", comp_certs=certs, cone_cmp=(w, v, s1, s2, s3, s4)
    )


def identity_triangle(x: Cx) -> Tri:
    """TR1 degenerate case: X -> X -> 0 -> Sigma X, certified."""
    zero = zero_complex(x.alg)
    return certify_triangle(
        CMap.identity(x), CMap.zero(x, zero), CMap.zero(zero, shift(x, 1))
    )


def rotate(tri: Tri) -> Tri:
    """TR2: (Y, Z, Sigma X) with maps (g, h, -Sigma f), freshly certified."""
    return certify_triangle(tri.g, tri.h, shift_map(tri.f, 1).scale(-1))


def sum_triangles(tris: list[Tri]) -> Tri:
    """Degreewise direct sum of triangles.

    For by-cone summands the comparison with the cone of the sum map is the
    evident block permutation (strict identities, no solving); otherwise the
    generic certifier runs.
    """
    if not tris:
        raise ValidationError("sum of an empty family of triangles")
    if len(tris) == 1:
        return tris[0]
    xs = [t.x for t in tris]
    ys = [t.y for t in tris]
    zs = [t.z for t in tris]
    x_sum, x_injs, x_projs = direct_sum_cx(xs)
    y_sum, y_injs, y_projs = direct_sum_cx(ys)
    z_sum, z_injs, z_projs = direct_sum_cx(zs)
    f = _block_cmap(tris, lambda t: t.f, x_sum, y_sum, x_projs, y_injs)
    g = _block_cmap(tris, lambda t: t.g, y_sum, z_sum, y_projs, z_injs)
    # third map lands in Sigma(x_sum), whose degreewise pieces match the
    # summand shifts on the nose
    target = shift(x_sum, 1)
    h_comps = {}
    for n in _combined_degrees(z_sum, target):
        if z_sum.obj(n).dim == 0 or target.obj(n).dim == 0:
            continue
        acc = Mat.zeros(z_sum.alg.p, target.obj(n).dim, z_sum.obj(n).dim)
        for t_idx, t in enumerate(tris):
            acc = acc + (
                x_injs[t_idx].component(n + 1).mat
                @ t.h.component(n).mat
                @ z_projs[t_idx].component(n).mat
            )
        h_comps[n] = MMap(z_sum.obj(n), target.obj(n), acc)
    h = CMap.build(z_sum, target, h_comps)
    if all(t.kind == "cone" for t in tris):
        return _sum_of_cones(tris, f, g, h, x_injs, y_injs, z_injs, z_projs)
    return certify_triangle(f, g, h)


def _block_cmap(tris, pick, src_sum, dst_sum, src_projs, dst_injs) -> CMap:
    comps = {}
    for n in _combined_degrees(src_sum, dst_sum):
        if src_sum.obj(n).dim == 0 or dst_sum.obj(n).dim == 0:
            continue
        acc = Mat.zeros(src_sum.alg.p, dst_sum.obj(n).dim, src_sum.obj(n).dim)
        for t_idx, t in enumerate(tris):
            acc = acc + (
                dst_injs[t_idx].component(n).mat
                @ pick(t).component(n).mat
                @ src_projs[t_idx].component(n).mat
            )
        comps[n] = MMap(src_sum.obj(n), dst_sum.obj(n), acc)
    return CMap.build(src_sum, dst_sum, comps)


def _sum_of_cones(tris, f, g, h, x_injs, y_injs, z_injs, z_projs) -> Tri:
    """Certificate for a sum of cone triangles: the block permutation between
    cone(sum f) and the sum of the cones is a strict isomorphism of triangles."""
    certs = _composite_certs(f, g, h)
    c_sum, big = cone_complex(f)
    z_sum = g.dst
    summand_parts: list[ConeParts] = [cone_complex(t.f)[1] for t in tris]
    w_comps = {}
    v_comps = {}
    for n in _combined_degrees(c_sum, z_sum):
        if c_sum.obj(n).dim == 0 and z_sum.obj(n).dim == 0:
            continue
        w_acc = MMap.zero(c_sum.obj(n), z_sum.obj(n))
        v_acc = MMap.zero(z_sum.obj(n), c_sum.obj(n))
        for t_idx, (t, tp) in enumerate(zip(tris, summand_parts)):
            x_slice = MMap(
                c_sum.obj(n),
                t.x.obj(n + 1),
                x_injs[t_idx].component(n + 1).mat.transpose() @ big.proj_x(n).mat,
            )
            y_slice = MMap(
                c_sum.obj(n),
                t.y.obj(n),
                y_injs[t_idx].component(n).mat.transpose() @ big.proj_y(n).mat,
            )
            to_tc = tp.inj_x(n) @ x_slice + tp.inj_y(n) @ y_slice
            w_acc = w_acc + z_injs[t_idx].component(n) @ to_tc
            from_tc = (
                big.inj_x(n) @ MMap(
                    tp.cone.obj(n),
                    f.src.obj(n + 1),
                    x_injs[t_idx].component(n + 1).mat @ tp.proj_x(n).mat,
                )
                + big.inj_y(n) @ MMap(
                    tp.cone.obj(n),
                    f.dst.obj(n),
                    y_injs[t_idx].component(n).mat @ tp.proj_y(n).mat,
                )
            )
            v_acc = v_acc + from_tc @ MMap(
                z_sum.obj(n), tp.cone.obj(n), z_projs[t_idx].component(n).mat
            )
        w_comps[n] = w_acc
        v_comps[n] = v_acc
    w = CMap.build(c_sum, z_sum, w_comps)
    v = CMap.build(z_sum, c_sum, v_comps)
    s1 = Htp.zero(w @ big.iota, g)
    s2 = Htp.zero(h @ w, big.pi)
    s3 = Htp.zero(w @ v, CMap.identity(z_sum))
    s4 = Htp.zero(v @ w, CMap.identity(c_sum))
    return Tri(
        f=f, g=g, h=h, kind="iso-to-cone", comp_certs=certs, cone_cmp=(w, v, s1, s2, s3, s4)
    )


# -- octahedron ---------------------------------------------------------------------


@dataclass(frozen=True)
class Oct:
    """The octahedron over composable f, g: four certified triangles plus the
    commuting-square certificates tying them together."""

    tri_f: Tri
    tri_g: Tri
    tri_gf: Tri
    tri_cones: Tri  # cone(f) -> cone(gf) -> cone(g) -> Sigma cone(f)
    a: CMap
    b: CMap
    square_certs: tuple[Htp, ...]


def octahedron(f: CMap, g: CMap) -> Oct:
    """TR4 with explicit comparison maps and homotopies.

    a(x, y) = (x, g y) and b(x, z) = (f x, z) compare the three cones; the
    fourth triangle's third map is (Sigma iota_f) o pi_g and its certificate
    is the explicit homotopy equivalence between cone(a) and cone(g):
    u(x2, y1, x1, z) = (y1 + f x1, z), v(y1, z) = (0, y1, 0, z).
    """
    if f.dst != g.src:
        raise ValidationError("octahedron needs composable maps")
    tri_f = cone_triangle(f)
    tri_g = cone_triangle(g)
    gf = g @ f
    tri_gf = cone_triangle(gf)
    cf, pf = cone_complex(f)
    cg, pg = cone_complex(g)
    cgf, pgf = cone_complex(gf)
    a_comps = {}
    for n in _combined_degrees(cf, cgf):
        if cf.obj(n).dim == 0 or cgf.obj(n).dim == 0:
            continue
        a_comps[n] = (
            pgf.inj_x(n) @ pf.proj_x(n)
            + pgf.inj_y(n) @ g.component(n) @ pf.proj_y(n)
        )
    a = CMap.build(cf, cgf, a_comps)
    b_comps = {}
    for n in _combined_degrees(cgf, cg):
        if cgf.obj(n).dim == 0 or cg.obj(n).dim == 0:
            continue
        b_comps[n] = (
            pg.inj_x(n) @ f.component(n + 1) @ pgf.proj_x(n)
            + pg.inj_y(n) @ pgf.proj_y(n)
        )
    b = CMap.build(cgf, cg, b_comps)
    gamma = shift_map(pf.iota, 1) @ pg.pi  # cone(g) -> Sigma cone(f)
    ca, pa = cone_complex(a)
    u_comps = {}
    v_comps = {}
    k_comps = {}
    s2_comps = {}
    for n in _combined_degrees(ca, cg):
        if ca.obj(n).dim or cg.obj(n).dim:
            u_comps[n] = (
                pg.inj_x(n)
                @ (
                    pf.proj_y(n + 1) @ pa.proj_x(n)
                    + f.component(n + 1) @ pgf.proj_x(n) @ pa.proj_y(n)
                )
                + pg.inj_y(n) @ pgf.proj_y(n) @ pa.proj_y(n)
            )
            v_comps[n] = (
                pa.inj_x(n) @ pf.inj_y(n + 1) @ pg.proj_x(n)
                + pa.inj_y(n) @ pgf.inj_y(n) @ pg.proj_y(n)
            )
    for n in _combined_degrees(ca, ca):
        if ca.obj(n).dim and ca.obj(n - 1).dim:
            k_comps[n] = -(pa.inj_x(n - 1) @ pf.inj_x(n) @ pgf.proj_x(n) @ pa.proj_y(n))
        if ca.obj(n).dim and cf.obj(n).dim:
            s2_comps[n] = -(pf.inj_x(n) @ pgf.proj_x(n) @ pa.proj_y(n))
    u = CMap.build(ca, cg, u_comps)
    v = CMap.build(cg, ca, v_comps)
    s1 = Htp.zero(u @ pa.iota, b)
    s2 = Htp(gamma @ u, pa.pi, s2_comps)
    s3 = Htp.zero(u @ v, CMap.identity(cg))
    s4 = Htp(v @ u, CMap.identity(ca), k_comps)
    certs4 = _composite_certs(a, b, gamma)
    tri_cones = Tri(
        f=a, g=b, h=gamma, kind="iso-to-cone", comp_certs=certs4, cone_cmp=(u, v, s1, s2, s3, s4)
    )
    squares = (
        Htp.zero(a @ tri_f.g, tri_gf.g @ g),
        Htp.zero(tri_gf.h @ a, tri_f.h),
        Htp.zero(b @ tri_gf.g, tri_g.g),
        Htp.zero(tri_g.h @ b, shift_map(f, 1) @ tri_gf.h),
    )
    return Oct(
        tri_f=tri_f,
        tri_g=tri_g,
        tri_gf=tri_gf,
        tri_cones=tri_cones,
        a=a,
        b=b,
        square_certs=squares,
    )


# -- fill-ins ------------------------------------------------------------------------


def fill_in(tri: Tri, tri2: Tri, phi1: CMap, phi2: CMap) -> tuple[CMap, Htp, Htp]:
    """TR3: complete (phi1, phi2) to a morphism of triangles.

    Requires the first square to commute up to homotopy; solves the combined
    linear system for phi3 together with the two square homotopies.
    """
    if phi1.src != tri.x or phi1.dst != tri2.x or phi2.src != tri.y or phi2.dst != tri2.y:
        raise ValidationError("fill-in maps have mismatched endpoints")
    if null_homotopy(phi2 @ tri.f, tri2.f @ phi1) is None:
        raise ValidationError("input square does not commute up to homotopy")
    out = solve_squares(
        (tri.z, tri2.z),
        [(None, tri.g, tri2.g @ phi2), (tri2.h, None, shift_map(phi1, 1) @ tri.h)],
    )
    if out is None:
        raise ValidationError("fill-in system unsolvable; input squares inconsistent")
    phi3, (s1, s2) = out
    return phi3, s1, s2


def fillin_ambiguity(tri: Tri) -> tuple[CMap, CMap] | None:
    """Search for two fill-ins of (id, id) that differ and are not homotopic.

    Exhausts all chain self-maps of Z over F_2 (guarded to chain-map-space
    dimension at most 8), keeps those completing (id, id) up to homotopy, and
    returns the first non-homotopic pair, or None.
    """
    p = tri.x.alg.p
    if p != 2:
        raise GuardError("ambiguity search is exhaustive and restricted to p = 2")
    basis = chain_map_basis(tri.z, tri.z)
    if len(basis) > 8:
        raise GuardError(f"chain-map space has dimension {len(basis)} > 8; refused")
    fillins: list[CMap] = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        cand = CMap.zero(tri.z, tri.z)
        for c, base in zip(coeffs, basis):
            if c:
                cand = cand + base
        if null_homotopy(cand @ tri.g, tri.g) is None:
            continue
        if null_homotopy(tri.h @ cand, tri.h) is None:
            continue
        fillins.append(cand)
    for i in range(len(fillins)):
        for j in range(i + 1, len(fillins)):
            if null_homotopy(fillins[i], fillins[j]) is None:
                return fillins[i], fillins[j]
    return None


# -- semisimple splitting --------------------------------------------------------------


def _retraction(m: Mod, inc: MMap) -> MMap:
    """A module retraction r with r o inc = id (semisimple algebras)."""
    sub = inc.src
    if sub.dim == 0:
        return MMap.zero(m, sub)
    basis = hom_space(m, sub)
    if not basis:
        raise ValidationError("no retraction: Hom space empty")
    p = m.alg.p
    cols = np.stack([(f.mat @ inc.mat).a.reshape(-1) for f in basis], axis=1)
    target = np.eye(sub.dim, dtype=np.int64).reshape(-1, 1)
    sol = solve(Mat(p, cols), Mat(p, target))
    if sol is None:
        raise ValidationError("inclusion does not split")
    acc = np.zeros((sub.dim, m.dim), dtype=np.int64)
    for c, f in zip(sol.a[:, 0], basis):
        if c:
            acc = acc + int(c) * f.mat.a
    return MMap(m, sub, Mat(p, acc))


def semisimple_split(x: Cx) -> tuple[Cx, CMap, CMap, Htp]:
    """Over a semisimple algebra, split x into the sum of its cohomology stalks.

    Returns (S, p, s, htp): S has H^n(x) in degree n with zero differentials,
    p: x -> S and s: S -> x satisfy p s = id strictly and s p ~ id via htp.
    """
    alg = x.alg
    if alg.radical.cols != 0:
        raise ValidationError("splitting requires a semisimple algebra (zero radical)")
    p_field = alg.p
    if x.is_zero():
        z = zero_complex(alg)
        ident = CMap.zero(x, x)
        return z, CMap.zero(x, z), CMap.zero(z, x), Htp.zero(ident, ident)
    pieces: dict[int, dict] = {}
    for n in x.degrees():
        xn = x.obj(n)
        z_basis = kernel_basis(x.diff(n).mat)
        zmod, zinc = submodule(xn, z_basis)
        c_basis = kernel_basis(_retraction(xn, zinc).mat)
        b_ambient = column_space(x.diff(n - 1).mat)
        b_in_z = solve(z_basis, b_ambient)
        if b_in_z is None:
            raise ValidationError("boundaries escape cocycles; complex invalid")
        bmod, binc = submodule(zmod, b_in_z)
        l_in_z = kernel_basis(_retraction(zmod, binc).mat)
        l_basis = z_basis @ l_in_z
        lmod, _ = submodule(xn, l_basis)
        pieces[n] = {
            "l_basis": l_basis,
            "b_basis": column_space(z_basis @ b_in_z),
            "c_basis": c_basis,
            "lmod": lmod,
        }
    objects = [pieces[n]["lmod"] for n in x.degrees()]
    stalk_sum = make_complex(
        alg,
        x.lo,
        objects,
        [MMap.zero(objects[k], objects[k + 1]) for k in range(len(objects) - 1)],
    )
    p_comps = {}
    s_comps = {}
    h_comps = {}
    for n in x.degrees():
        data = pieces[n]
        lmod = data["lmod"]
        xn = x.obj(n)
        full = Mat(
            p_field, np.hstack([data["b_basis"].a, data["l_basis"].a, data["c_basis"].a])
        )
        full_inv = inverse(full)
        if full_inv is None:
            raise ValidationError("internal inconsistency: B + L + C is not a basis")
        nb = data["b_basis"].cols
        nl = data["l_basis"].cols
        if lmod.dim:
            p_comps[n] = MMap(xn, lmod, Mat(p_field, full_inv.a[nb : nb + nl, :]))
            s_comps[n] = MMap(lmod, xn, data["l_basis"])
        prev = pieces.get(n - 1)
        if prev is not None and nb:
            dc = solve(data["b_basis"], x.diff(n - 1).mat @ prev["c_basis"])
            dc_inv = inverse(dc) if dc is not None else None
            if dc_inv is None:
                raise ValidationError("internal inconsistency: d does not map C onto B")
            h_comps[n] = MMap(
                xn,
                x.obj(n - 1),
                prev["c_basis"] @ dc_inv @ Mat(p_field, full_inv.a[:nb, :]),
            )
    pmap = CMap.build(x, stalk_sum, p_comps)
    smap = CMap.build(stalk_sum, x, s_comps)
    if not (pmap @ smap) == CMap.identity(stalk_sum):
        raise ValidationError("internal inconsistency: p s != id on stalks")
    # id - s p is the projection onto B (+) C, which is d h + h d for the
    # inverse of d on the complement C
    htp = Htp(CMap.identity(x), smap @ pmap, h_comps)
    return stalk_sum, pmap, smap, htp


# -- split sequences ----------------------------------------------------------------


def split_seq_to_triangle(
    i: CMap, pr: CMap, sections: dict | None = None
) -> tuple[Tri, dict]:
    """Turn a degreewise split exact sequence 0 -> X -> Y -> Z -> 0 into a
    certified triangle.

    Sections are solved degreewise when not provided; the connecting map is
    r d s for the matching retraction r, tried with both signs against the
    cone certificate.  Raises when the sequence is not degreewise split exact.
    """
    x, y, z = i.src, i.dst, pr.dst
    if pr.src != y:
        raise ValidationError("maps do not compose")
    if not (pr @ i).is_zero():
        raise ValidationError("composite is not zero")
    degs_all = set(_combined_degrees(x, y)) | set(_combined_degrees(y, z))
    secs: dict[int, MMap] = {} if sections is None else dict(sections)
    rets: dict[int, MMap] = {}
    for n in sorted(degs_all):
        yn, zn, xn = y.obj(n), z.obj(n), x.obj(n)
        if rank(i.component(n).mat) != xn.dim:
            raise ValidationError(f"first map not injective in degree {n}")
        if rank(pr.component(n).mat) != zn.dim:
            raise ValidationError(f"second map not surjective in degree {n}")
        if xn.dim + zn.dim != yn.dim:
            raise ValidationError(f"sequence not exact in degree {n}")
        if zn.dim:
            s_n = secs.get(n)
            if s_n is None:
                s_n = _section(pr.component(n))
                secs[n] = s_n
            elif (pr.component(n) @ s_n).mat != Mat.identity(y.alg.p, zn.dim):
                raise ValidationError(f"provided section fails in degree {n}")
        if xn.dim:
            ident = Mat.identity(y.alg.p, yn.dim)
            s_n = secs.get(n)
            residue = ident - (
                s_n.mat @ pr.component(n).mat if s_n is not None else Mat.zeros(y.alg.p, yn.dim, yn.dim)
            )
            r_mat = solve(i.component(n).mat, residue)
            if r_mat is None:
                raise ValidationError(f"no retraction in degree {n}")
            rets[n] = MMap(yn, xn, r_mat)
    target = shift(x, 1)
    h_comps = {}
    for n in sorted(degs_all):
        zn = z.obj(n)
        xn1 = x.obj(n + 1)
        if zn.dim == 0 or xn1.dim == 0:
            continue
        r_next = rets.get(n + 1)
        s_n = secs.get(n)
        if r_next is None or s_n is None:
            continue
        h_comps[n] = MMap(zn, xn1, r_next.mat @ y.diff(n).mat @ s_n.mat)
    last_err = None
    for sign in (1, -1):
        try:
            h = CMap.build(z, target, {n: f.scale(sign) for n, f in h_comps.items()})
            tri = certify_triangle(i, pr, h)
            return tri, {"sections": secs, "retractions": rets}
        except ValidationError as err:
            last_err = err
    raise ValidationError(f"split sequence did not certify against the cone: {last_err}")


def _section(p_n: MMap) -> MMap:
    """A module section of a surjection (solved in Hom coordinates)."""
    y, z = p_n.src, p_n.dst
    basis = hom_space(z, y)
    pfield = y.alg.p
    if not basis:
        raise ValidationError("no section: Hom space empty")
    cols = np.stack([(p_n.mat @ f.mat).a.reshape(-1) for f in basis], axis=1)
    target = np.eye(z.dim, dtype=np.int64).reshape(-1, 1)
    sol = solve(Mat(pfield, cols), Mat(pfield, target))
    if sol is None:
        raise ValidationError("surjection does not split over the algebra")
    acc = np.zeros((y.dim, z.dim), dtype=np.int64)
    for c, f in zip(sol.a[:, 0], basis):
        if c:
            acc = acc + int(c) * f.mat.a
    return MMap(z, y, Mat(pfield, acc))


# -- long exact sequence check ---------------------------------------------------------


def verify_cone_les(f: CMap) -> bool:
    """Exactness of H^n X -> H^n Y -> H^n C(f) -> H^(n+1) X at every spot.

    The connecting map is induced by the cone projection; with these sign
    conventions the identification H^n(Sigma X) = H^(n+1)(X) is on the nose.
    """
    tri = cone_triangle(f)
    c = tri.z
    degs = _combined_degrees(f.src, c)
    maps = {}
    for n in range(degs.start - 1, degs.stop + 1):
        maps[("f", n)] = cohomology_map(f, n)
        maps[("g", n)] = cohomology_map(tri.g, n)
        maps[("h", n)] = cohomology_map(tri.h, n)
    for n in range(degs.start - 1, degs.stop):
        triples = [
            (maps[("f", n)], maps[("g", n)]),
            (maps[("g", n)], maps[("h", n)]),
            (maps[("h", n)], maps[("f", n + 1)]),
        ]
        for alpha, beta in triples:
            if beta.src != alpha.dst:
                return False
            if not (beta @ alpha).is_zero():
                return False
            if rank(alpha.mat) + rank(beta.mat) != alpha.dst.dim:
                return False
    return True
