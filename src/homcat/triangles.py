"""Candidate exact triangles with verified certificates.

A triangle X -> Y -> Z -> Sigma X is *exact* here operationally: either it was
built as a mapping cone, or it carries a verified homotopy equivalence to the
cone triangle of its own first map.  Certificates (null-homotopies of the
composites, comparison maps, homotopy inverses) are stored and re-verified on
construction, so a Tri object is itself the proof.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from homcat.complexes import (
    CMap,
    Cx,
    Htp,
    chain_map_basis,
    cohomology_map,
    cone_complex,
    lift_map,
    make_complex,
    null_homotopy,
    shift,
    shift_map,
    solve_squares,
    zero_complex,
    _cmap_of,
    _combined_degrees,
    _sum_cx,
)
from homcat.errors import GuardError, ValidationError
from homcat.linalg import Mat, block_diag, kernel_basis, rank, solve
from homcat.modules import MMap, Mod, _block_inclusion, _block_projection, submodule

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
    All stored data is re-verified on construction against the cone of f,
    ``cone_complex(f)``: the cached cone, equal to a fresh build.
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


@functools.lru_cache(maxsize=8)
def cone_triangle(f: CMap) -> Tri:
    """TR1: the mapping cone triangle X -> Y -> C(f) -> Sigma X with explicit
    null-homotopies of the composites.

    Cached (bounded): ``verify_cone_les``, the TR1 suite and ``octahedron``
    each ask for the triangle of the same map; an equal map gets the
    triangle built for the first one seen.
    """
    x, y = f.src, f.dst
    c, parts = cone_complex(f)
    iota, pi = parts.iota, parts.pi
    # iota o f ~ 0 with witness h^n = [I; 0]: X^n into C^(n-1) = X^n (+) Y^(n-1)
    h1 = Htp(
        iota @ f,
        CMap.zero(x, c),
        {n: _block_inclusion(x.obj(n), c.obj(n - 1), 0) for n in x.degrees() if x.obj(n).dim},
    )
    h2 = Htp.zero(pi @ iota, CMap.zero(y, shift(x, 1)))
    # (Sigma f) o pi ~ 0 with witness H^n = [0 I]: C^n = X^(n+1) (+) Y^n onto Y^n
    h3 = Htp(
        shift_map(f, 1) @ pi,
        CMap.zero(c, shift(y, 1)),
        {n: _block_projection(c.obj(n), y.obj(n), x.obj(n + 1).dim) for n in y.degrees() if y.obj(n).dim},
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
    """Degreewise direct sum of triangles, certified like any other candidate
    by ``certify_triangle``: solving for the equivalence onto the cone of the
    sum of the first maps is the test."""
    if not tris:
        raise ValidationError("sum of an empty family of triangles")
    if len(tris) == 1:
        return tris[0]
    x_sum = _sum_cx([t.x for t in tris])[0]
    y_sum = _sum_cx([t.y for t in tris])[0]
    z_sum = _sum_cx([t.z for t in tris])[0]
    f = _cmap_of(x_sum, y_sum, lambda n: block_diag([t.f._mat(n) for t in tris]))
    g = _cmap_of(y_sum, z_sum, lambda n: block_diag([t.g._mat(n) for t in tris]))
    # Sigma of the sum is the sum of the shifts, degree by degree
    h = _cmap_of(z_sum, shift(x_sum, 1), lambda n: block_diag([t.h._mat(n) for t in tris]))
    return certify_triangle(f, g, h)


# -- octahedron ---------------------------------------------------------------------


@dataclass(frozen=True)
class Oct:
    """The octahedron over composable f, g: three cone triangles, the fourth
    triangle certified by ``certify_triangle``, and the commuting-square
    certificates tying them together."""

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
    fourth triangle's third map is (Sigma iota_f) o pi_g, and it is certified
    like any other candidate by ``certify_triangle``, which solves for the
    homotopy equivalence between cone(a) and cone(g).
    """
    if f.dst != g.src:
        raise ValidationError("octahedron needs composable maps")
    tri_f = cone_triangle(f)
    tri_g = cone_triangle(g)
    gf = g @ f
    tri_gf = cone_triangle(gf)
    p = f.src.alg.p
    # a = [[I, 0], [0, g]]: X^(n+1) (+) Y^n -> X^(n+1) (+) Z^n
    a = _cmap_of(tri_f.z, tri_gf.z, lambda n: block_diag([Mat.identity(p, f.src.obj(n + 1).dim), g._mat(n)]))
    # b = [[f, 0], [0, I]]: X^(n+1) (+) Z^n -> Y^(n+1) (+) Z^n
    b = _cmap_of(tri_gf.z, tri_g.z, lambda n: block_diag([f._mat(n + 1), Mat.identity(p, g.dst.obj(n).dim)]))
    gamma = shift_map(tri_f.g, 1) @ tri_g.h  # cone(g) -> Sigma cone(f)
    tri_cones = certify_triangle(a, b, gamma)
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
    r = lift_map(m, sub, Mat.identity(m.alg.p, sub.dim), right=inc.mat)
    if r is None:
        raise ValidationError("inclusion does not split")
    return r


def semisimple_split(x: Cx) -> tuple[Cx, CMap, CMap, Htp]:
    """Over a semisimple algebra, split x into the sum of its cohomology stalks.

    Returns (S, p, s, htp): S has H^n(x) in degree n with zero differentials,
    p: x -> S and s: S -> x satisfy p s = id strictly and s p ~ id via htp.
    S^n is a complement L^n of the boundaries in the cocycles and s its
    inclusion; p and htp are solved by ``solve_squares`` (p s ~ id is p s = id,
    since S has zero differentials) and ``null_homotopy``.
    """
    alg = x.alg
    if alg.radical.cols != 0:
        raise ValidationError("splitting requires a semisimple algebra (zero radical)")
    incs = {}
    for n in x.degrees():
        z_basis = kernel_basis(x._dmat(n))
        zmod, _ = submodule(x.obj(n), z_basis)
        b_in_z = solve(z_basis, x._dmat(n - 1))
        if b_in_z is None:
            raise ValidationError("boundaries escape cocycles; complex invalid")
        _, binc = submodule(zmod, b_in_z)
        incs[n] = submodule(x.obj(n), z_basis @ kernel_basis(_retraction(zmod, binc).mat))[1]
    objects = [incs[n].src for n in x.degrees()]
    stalk_sum = make_complex(
        alg,
        x.lo,
        objects,
        [MMap.zero(objects[k], objects[k + 1]) for k in range(len(objects) - 1)],
    )
    smap = CMap.build(stalk_sum, x, incs)
    out = solve_squares((x, stalk_sum), [(None, smap, CMap.identity(stalk_sum))])
    if out is None:
        raise ValidationError("internal inconsistency: the cocycle complement has no retraction")
    pmap = out[0]
    if not (pmap @ smap) == CMap.identity(stalk_sum):
        raise ValidationError("internal inconsistency: p s != id on stalks")
    htp = null_homotopy(CMap.identity(x), smap @ pmap)
    if htp is None:
        raise ValidationError("internal inconsistency: s p is not homotopic to the identity")
    return stalk_sum, pmap, smap, htp


# -- split sequences ----------------------------------------------------------------


def split_seq_to_triangle(i: CMap, pr: CMap) -> tuple[Tri, dict]:
    """Turn a degreewise split exact sequence 0 -> X -> Y -> Z -> 0 into a
    certified triangle.

    Sections s and retractions r (r i = id, i r + s pr = id) are solved
    degreewise.  Then d_Y s = i (r d s) + s d_Z, so the connecting map is
    h = -r d s, certified once against the cone.  Raises when the sequence is
    not degreewise split exact.
    """
    x, y, z = i.src, i.dst, pr.dst
    if pr.src != y:
        raise ValidationError("maps do not compose")
    if not (pr @ i).is_zero():
        raise ValidationError("composite is not zero")
    secs: dict[int, MMap] = {}
    rets: dict[int, MMap] = {}
    for n in sorted(set(_combined_degrees(x, y)) | set(_combined_degrees(y, z))):
        yn, zn, xn = y.obj(n), z.obj(n), x.obj(n)
        if rank(i._mat(n)) != xn.dim:
            raise ValidationError(f"first map not injective in degree {n}")
        if rank(pr._mat(n)) != zn.dim:
            raise ValidationError(f"second map not surjective in degree {n}")
        if xn.dim + zn.dim != yn.dim:
            raise ValidationError(f"sequence not exact in degree {n}")
        residue = Mat.identity(y.alg.p, yn.dim)
        if zn.dim:
            secs[n] = _section(pr.component(n))
            residue = residue - secs[n].mat @ pr._mat(n)
        if xn.dim:
            r_mat = solve(i._mat(n), residue)
            if r_mat is None:
                raise ValidationError(f"no retraction in degree {n}")
            rets[n] = MMap(yn, xn, r_mat)
    h = CMap.build(z, shift(x, 1), {
        n: MMap(z.obj(n), x.obj(n + 1), -(rets[n + 1].mat @ y._dmat(n) @ s_n.mat))
        for n, s_n in secs.items()
        if n + 1 in rets
    })
    try:
        tri = certify_triangle(i, pr, h)
    except ValidationError as err:
        raise ValidationError(f"split sequence did not certify against the cone: {err}") from err
    return tri, {"sections": secs, "retractions": rets}


def _section(p_n: MMap) -> MMap:
    """A module section s of a surjection, p o s = id."""
    s = lift_map(p_n.dst, p_n.src, Mat.identity(p_n.src.alg.p, p_n.dst.dim), left=p_n.mat)
    if s is None:
        raise ValidationError("surjection does not split over the algebra")
    return s


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
