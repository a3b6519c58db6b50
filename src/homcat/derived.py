"""Derived-category computations: resolutions, derived Homs, Ext, dg
endomorphism algebras, idempotent slices, and tilting verification.

Everything reduces to bounded complexes: Hom in the derived category is H^0
of the Hom complex out of a projective resolution, Ext is its shifted
variant, and invertibility in the derived category is certified by an
explicit lift against a resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from homcat.algebras import Alg, algebra_iso_search, make_algebra, opposite
from homcat.complexes import (
    CMap,
    Cx,
    DegreewiseSolver,
    HomComplex,
    _combined_degrees,
    cohomology_data,
    cohomology_dims,
    cohomology_map,
    cone_complex,
    hom_complex,
    make_complex,
    shift,
    shift_map,
    solve_squares,
    stalk,
    zero_complex,
)
from homcat.errors import CapExhausted, ValidationError
from homcat.linalg import Mat, column_space, inverse, kernel_basis, rank, solve
from homcat.modules import (
    MMap,
    Mod,
    decompose,
    decompose_with_maps,
    hom_space,
    injective_envelope,
    is_isomorphic,
    kci,
    known_indecomposables,
    local_end_radical,
    make_module,
    projective_cover,
    projective_module,
    simple_module,
    submodule,
    zero_module,
)

__all__ = [
    "Resolution",
    "proj_resolution",
    "inj_resolution",
    "resolve_complex",
    "hom_derived",
    "ext",
    "is_iso_in_D",
    "DGAlg",
    "dg_end",
    "dg_cohomology_dims",
    "idempotent_slice_algebra",
    "idempotent_slice",
    "idempotent_slice_dims",
    "end_algebra",
    "tilting_check",
    "khom_agreement",
]


@dataclass(frozen=True)
class Resolution:
    """A quasi-isomorphism between a complex of projectives (or injectives)
    and its target, verified on cohomology at construction."""

    target: Cx
    res: Cx
    comparison: CMap  # res -> target ("projective") or target -> res ("injective")
    kind: str
    cap_used: int


def _verify_quasi_iso(f: CMap) -> bool:
    for n in _combined_degrees(f.src, f.dst):
        hmap = cohomology_map(f, n)
        if hmap.src.dim != hmap.dst.dim or inverse(hmap.mat) is None:
            return False
    return True


_PROJECTIVE_CERT_CACHE: dict = {}


def _certify_projective(m: Mod) -> bool:
    """Every indecomposable summand is one of the e_j A (cached per module)."""
    cached = _PROJECTIVE_CERT_CACHE.get(m)
    if cached is not None:
        return cached
    projs = [projective_module(m.alg, j) for j in range(len(m.alg.idempotents))]
    ok = True
    for piece, _, _ in decompose_with_maps(m):
        if all(is_isomorphic(piece, p) is None for p in projs):
            ok = False
            break
    _PROJECTIVE_CERT_CACHE[m] = ok
    return ok


_INJECTIVE_CERT_CACHE: dict = {}


def _certify_injective(m: Mod) -> bool:
    cached = _INJECTIVE_CERT_CACHE.get(m)
    if cached is not None:
        return cached
    injs = [injective_envelope(simple_module(m.alg, j))[0] for j in range(len(m.alg.idempotents))]
    ok = True
    for piece, _, _ in decompose_with_maps(m):
        if all(is_isomorphic(piece, i) is None for i in injs):
            ok = False
            break
    _INJECTIVE_CERT_CACHE[m] = ok
    return ok


def proj_resolution(m: Mod, cap: int = 12) -> Resolution:
    """Minimal projective resolution by iterated covers of syzygies.

    Stops when a syzygy vanishes; raises CapExhausted (with the surviving
    syzygy) when the cap is reached first.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    alg = m.alg
    target = stalk(m, 0)
    if m.dim == 0:
        z = zero_complex(alg)
        res = Resolution(target, z, CMap.zero(z, target), "projective", 0)
        return res
    covers = []
    current = m
    inclusions = []
    for step in range(cap + 1):
        cover, epi = projective_cover(current)
        covers.append((cover, epi))
        ker_basis = kernel_basis(epi.mat)
        ker, inc = submodule(cover, ker_basis)
        if ker.dim == 0:
            break
        inclusions.append(inc)
        current = ker
    else:
        raise CapExhausted(
            f"projective resolution did not terminate within {cap} steps",
            leftover=current,
        )
    length = len(covers)
    objects = [covers[length - 1 - k][0] for k in range(length)]  # degrees -L..0
    diffs = []
    for k in range(length - 1):
        # degree -(L-k): P_{L-k} -> P_{L-k-1} is (inclusion of syzygy) o (cover epi)
        idx = length - 1 - k
        d = inclusions[idx - 1] @ covers[idx][1]
        diffs.append(d)
    res_cx = make_complex(alg, -(length - 1), objects, diffs)
    comparison = CMap.build(res_cx, target, {0: covers[0][1]})
    resolution = Resolution(target, res_cx, comparison, "projective", cap)
    if not _verify_quasi_iso(comparison):
        raise ValidationError("internal inconsistency: resolution comparison not a quasi-iso")
    if not all(_certify_projective(ob) for ob in res_cx.objects):
        raise ValidationError("internal inconsistency: non-projective component")
    return resolution


def inj_resolution(m: Mod, cap: int = 12) -> Resolution:
    """Minimal injective resolution by iterated envelopes of cosyzygies."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    alg = m.alg
    target = stalk(m, 0)
    if m.dim == 0:
        z = zero_complex(alg)
        return Resolution(target, z, CMap.zero(target, z), "injective", 0)
    envelopes = []
    projections = []
    current = m
    for step in range(cap + 1):
        env, mono = injective_envelope(current)
        envelopes.append((env, mono))
        cok, cok_proj = _cokernel(mono)
        if cok.dim == 0:
            break
        projections.append(cok_proj)
        current = cok
    else:
        raise CapExhausted(
            f"injective resolution did not terminate within {cap} steps",
            leftover=current,
        )
    length = len(envelopes)
    objects = [envelopes[k][0] for k in range(length)]  # degrees 0..L
    diffs = []
    for k in range(length - 1):
        diffs.append(envelopes[k + 1][1] @ projections[k])
    res_cx = make_complex(alg, 0, objects, diffs)
    comparison = CMap.build(target, res_cx, {0: envelopes[0][1]})
    resolution = Resolution(target, res_cx, comparison, "injective", cap)
    if not _verify_quasi_iso(comparison):
        raise ValidationError("internal inconsistency: resolution comparison not a quasi-iso")
    if not all(_certify_injective(ob) for ob in res_cx.objects):
        raise ValidationError("internal inconsistency: non-injective component")
    return resolution


def _cokernel(f: MMap):
    _, (cok, proj), _ = kci(f)
    return cok, proj


_RESOLVE_CACHE: dict = {}


def resolve_complex(x: Cx, cap: int = 12) -> Resolution:
    """A quasi-isomorphism P -> x with projective components.

    Induction on the number of nonzero cohomologies: resolve the lowest one,
    map its resolution in, and recurse on the cone; the pieces reassemble as
    the cone of an explicit comparison map, with no linear solving beyond the
    projective lifts.
    """
    key = (x, cap)
    cached = _RESOLVE_CACHE.get(key)
    if cached is not None:
        return cached
    out = _resolve_complex_impl(x, cap)
    if not _verify_quasi_iso(out.comparison):
        raise ValidationError("internal inconsistency: complex resolution is not a quasi-iso")
    _RESOLVE_CACHE[key] = out
    return out


def _resolve_complex_impl(x: Cx, cap: int) -> Resolution:
    alg = x.alg
    hdims = {n: d for n, d in cohomology_dims(x).items() if d > 0}
    if not hdims:
        z = zero_complex(alg)
        return Resolution(x, z, CMap.zero(z, x), "projective", cap)
    n0 = min(hdims)
    hdata = cohomology_data(x, n0)
    base = proj_resolution(hdata.module, cap)
    placed = shift(base.res, -n0)
    phi = _map_resolution_in(placed, x, n0, hdata, base)
    cone, parts = cone_complex(phi)
    inner = _resolve_complex_impl(cone, cap)
    if inner.res.is_zero():
        return Resolution(x, placed, phi, "projective", cap)
    # chi: Sigma^-1 Q -> placed, from the cone projection
    chi = shift_map(parts.pi @ inner.comparison, -1)
    total, tparts = cone_complex(chi)
    # comparison total -> x: phi on the placed part, and the explicit
    # null-homotopy of (Sigma phi) o pi transported through the lift on the
    # inner part
    comps = {}
    for n in _combined_degrees(total, x):
        if total.obj(n).dim == 0 or x.obj(n).dim == 0:
            continue
        acc = phi.component(n) @ tparts.proj_y(n)
        inner_comp = inner.comparison.component(n)
        sigma = parts.proj_y(n) @ inner_comp if inner_comp.mat.cols else None
        if sigma is not None and sigma.mat.rows:
            # sigma^n = H^n o psi^n with H the cone certificate of phi
            acc = acc + MMap(
                total.obj(n),
                x.obj(n),
                sigma.mat @ tparts.proj_x(n).mat,
            ).scale(-1)
        comps[n] = acc
    comparison = CMap.build(total, x, comps)
    return Resolution(x, total, comparison, "projective", cap)


def _map_resolution_in(placed: Cx, x: Cx, n0: int, hdata, base: Resolution) -> CMap:
    """A chain map placed -> x inducing an isomorphism on H^(n0).

    Built degree by degree downward from n0 by the lifting property of the
    projective components.
    """
    alg = x.alg
    comps: dict[int, MMap] = {}
    zmod, zinc = submodule(x.obj(n0), hdata.cocycles)
    # top lift: P -> Z with (quotient to H) o lift = resolution augmentation
    top_p = placed.obj(n0)
    eps = base.comparison.component(0)
    solver = DegreewiseSolver(alg.p)
    solver.add_var("l", top_p, zmod)
    solver.add_eq([("l", Mat(alg.p, hdata.proj.a), None, +1)], eps.mat)
    sol = solver.solve()
    if sol is None:
        raise ValidationError("projective lift onto cocycles failed")
    comps[n0] = MMap(top_p, x.obj(n0), zinc.mat @ sol["l"])
    for n in range(n0 - 1, placed.lo - 1, -1):
        src = placed.obj(n)
        if src.dim == 0:
            break
        rhs = comps[n + 1] @ placed.diff(n)
        lift_solver = DegreewiseSolver(alg.p)
        lift_solver.add_var("f", src, x.obj(n))
        lift_solver.add_eq([("f", x.diff(n).mat, None, +1)], rhs.mat)
        lifted = lift_solver.solve()
        if lifted is None:
            raise ValidationError(f"projective lift failed in degree {n}")
        comps[n] = MMap(src, x.obj(n), lifted["f"])
    return CMap.build(placed, x, comps)


# -- derived Hom and Ext ------------------------------------------------------------


def hom_derived(x: Cx, y: Cx, n: int, cap: int = 12) -> int:
    """dim Hom in the derived category between x and the n-th shift of y.

    Computed as dim H^n of the Hom complex out of a projective resolution of
    x; recomputed at cap + 2 as a stability guard (disagreement raises).
    """
    r1 = resolve_complex(x, cap)
    r2 = resolve_complex(x, cap + 2)
    d1 = cohomology_data(hom_complex(r1.res, y).cx, n).module.dim
    d2 = cohomology_data(hom_complex(r2.res, y).cx, n).module.dim
    if d1 != d2:
        raise CapExhausted(f"hom_derived unstable at cap {cap}: {d1} vs {d2}")
    return d1


def ext(m: Mod, n_mod: Mod, degree: int, cap: int = 12) -> int:
    """dim Ext^degree between modules, from a minimal projective resolution."""
    if degree < 0:
        raise ValueError("ext degree must be nonnegative")
    res = proj_resolution(m, cap)
    if res.res.is_zero():
        return 0
    hc = hom_complex(res.res, stalk(n_mod, 0))
    return cohomology_data(hc.cx, degree).module.dim


# -- isomorphism in the derived category ----------------------------------------------


def is_iso_in_D(f: CMap, cap: int = 12) -> tuple[bool, dict | None]:
    """True iff every H^n(f) is invertible; a true answer carries a verified
    round-trip certificate.

    The certificate is a lift g of the resolution comparison c through f:
    f o g ~ c with a stored homotopy, and every H^n(g) invertible, which
    exhibits g o c^{-1} as a two-sided inverse of f in the derived category.
    """
    for n in _combined_degrees(f.src, f.dst):
        hmap = cohomology_map(f, n)
        if hmap.src.dim != hmap.dst.dim or inverse(hmap.mat) is None:
            return False, None
    res = resolve_complex(f.dst, cap)
    out = solve_squares((res.res, f.src), [(f, None, res.comparison)])
    if out is None:
        raise ValidationError("internal inconsistency: lift through a quasi-iso failed")
    g, (cert_htp,) = out
    if not _verify_quasi_iso(g):
        raise ValidationError("internal inconsistency: lifted inverse is not a quasi-iso")
    return True, {"resolution": res, "lift": g, "round_trip": cert_htp}


# -- dg endomorphism algebras -----------------------------------------------------------


@dataclass(frozen=True)
class DGAlg:
    """The endomorphism dg algebra of a complex of projectives.

    mult[(m, n)][k, i, j] is the coefficient of the k-th degree-(m+n) basis
    element in (i-th degree-m element) o (j-th degree-n element); the unit is
    the coordinate vector of the identity in degree 0.  Associativity and the
    Leibniz rule are verified on construction.
    """

    hom: HomComplex
    mult: dict
    unit: np.ndarray

    def degree_dims(self) -> dict[int, int]:
        return {n: self.hom.degree_dim(n) for n in self.hom.cx.degrees()}

    def differential(self, n: int) -> Mat:
        return self.hom.cx.diff(n).mat

    def product(self, m: int, a: np.ndarray, n: int, b: np.ndarray) -> np.ndarray:
        table = self.mult.get((m, n))
        if table is None:
            return np.zeros(self.hom.degree_dim(m + n), dtype=np.int64)
        return np.einsum("kij,i,j->k", table, a % self.hom.source.alg.p, b % self.hom.source.alg.p) % self.hom.source.alg.p


def dg_end(p_cx: Cx) -> DGAlg:
    """End dg algebra of a bounded complex with projective components."""
    if not all(_certify_projective(ob) for ob in p_cx.objects):
        raise ValidationError("dg endomorphisms require projective components")
    hc = hom_complex(p_cx, p_cx)
    mult = {}
    degrees = [n for n in hc.cx.degrees() if hc.degree_dim(n)]
    for m in degrees:
        for n in degrees:
            if hc.degree_dim(m + n) == 0:
                continue
            items_m = hc.basis[m]
            items_n = hc.basis[n]
            table = np.zeros((hc.degree_dim(m + n), len(items_m), len(items_n)), dtype=np.int64)
            nonzero = False
            for i, (ia, fa) in enumerate(items_m):
                for j, (ib, fb) in enumerate(items_n):
                    if ia != ib + n:
                        continue
                    comp = fa @ fb
                    if comp.is_zero():
                        continue
                    coords = hc.coords_of(m + n, {ib: comp})
                    table[:, i, j] = coords.a[:, 0]
                    nonzero = True
            if nonzero:
                mult[(m, n)] = table
    ident_comps = {i: MMap.identity(p_cx.obj(i)) for i in p_cx.degrees()}
    unit = hc.coords_of(0, ident_comps).a[:, 0]
    dga = DGAlg(hom=hc, mult=mult, unit=unit)
    _verify_dg(dga)
    return dga


def _verify_dg(dga: DGAlg) -> None:
    hc = dga.hom
    p = hc.source.alg.p
    degrees = [n for n in hc.cx.degrees() if hc.degree_dim(n)]
    # unit is a cocycle and a two-sided identity on every basis element
    if 0 in degrees:
        d0 = dga.differential(0)
        if d0.rows and (d0.a @ dga.unit % p).any():
            raise ValidationError("dg unit is not a cocycle")
    for n in degrees:
        dim = hc.degree_dim(n)
        for j in range(dim):
            e = np.zeros(dim, dtype=np.int64)
            e[j] = 1
            if not np.array_equal(dga.product(0, dga.unit, n, e), e):
                raise ValidationError("dg unit fails as a left identity")
            if not np.array_equal(dga.product(n, e, 0, dga.unit), e):
                raise ValidationError("dg unit fails as a right identity")
    # associativity on basis triples
    for m in degrees:
        for n in degrees:
            for l in degrees:
                if hc.degree_dim(m + n + l) == 0:
                    continue
                for i in range(hc.degree_dim(m)):
                    a = _unit_vec(hc.degree_dim(m), i)
                    for j in range(hc.degree_dim(n)):
                        b = _unit_vec(hc.degree_dim(n), j)
                        ab = dga.product(m, a, n, b)
                        for k in range(hc.degree_dim(l)):
                            c = _unit_vec(hc.degree_dim(l), k)
                            lhs = dga.product(m + n, ab, l, c)
                            rhs = dga.product(m, a, n + l, dga.product(n, b, l, c))
                            if not np.array_equal(lhs, rhs):
                                raise ValidationError("dg multiplication not associative")
    # Leibniz: D(ab) = D(a) b + (-1)^|a| a D(b)
    for m in degrees:
        for n in degrees:
            if hc.degree_dim(m + n) == 0:
                continue
            sign = 1 if m % 2 == 0 else -1
            for i in range(hc.degree_dim(m)):
                a = _unit_vec(hc.degree_dim(m), i)
                da = (dga.differential(m).a @ a) % p if hc.degree_dim(m + 1) else None
                for j in range(hc.degree_dim(n)):
                    b = _unit_vec(hc.degree_dim(n), j)
                    db = (dga.differential(n).a @ b) % p if hc.degree_dim(n + 1) else None
                    ab = dga.product(m, a, n, b)
                    lhs = (
                        (dga.differential(m + n).a @ ab) % p
                        if hc.degree_dim(m + n + 1)
                        else np.zeros(0, dtype=np.int64)
                    )
                    rhs = np.zeros(hc.degree_dim(m + n + 1), dtype=np.int64)
                    if da is not None:
                        rhs = (rhs + dga.product(m + 1, da, n, b)) % p
                    if db is not None:
                        rhs = (rhs + sign * dga.product(m, a, n + 1, db)) % p
                    if not np.array_equal(lhs, rhs % p):
                        raise ValidationError("dg differential fails the Leibniz rule")


def _unit_vec(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.int64)
    v[i] = 1
    return v


def dg_cohomology_dims(dga: DGAlg) -> dict[int, int]:
    return cohomology_dims(dga.hom.cx)


# -- idempotent slices --------------------------------------------------------------------


def idempotent_slice_algebra(alg: Alg, indices) -> tuple[Alg, Mat, np.ndarray]:
    """Gamma = e A e for e the sum of the designated idempotents at ``indices``.

    Returns (Gamma, basis, e) with basis the columns embedding Gamma into A.
    """
    indices = [indices] if isinstance(indices, int) else list(indices)
    e = np.zeros(alg.dim, dtype=np.int64)
    for i in indices:
        e = (e + alg.idempotents[i]) % alg.p
    peirce = alg.left_mult(e) @ alg.right_mult(e)
    basis = column_space(peirce)
    g = basis.cols
    c = np.zeros((g, g, g), dtype=np.int64)
    for i in range(g):
        for j in range(g):
            prod = alg.mul(basis.a[:, i], basis.a[:, j])
            coords = solve(basis, Mat.column(alg.p, prod))
            if coords is None:
                raise ValidationError("slice not closed under multiplication")
            c[i, j, :] = coords.a[:, 0]
    unit_coords = solve(basis, Mat.column(alg.p, e))
    idem_coords = [solve(basis, Mat.column(alg.p, alg.idempotents[i])).a[:, 0] for i in indices]
    rad_cols = []
    for t in range(alg.radical.cols):
        img = (peirce @ Mat.column(alg.p, alg.radical.a[:, t])).a[:, 0]
        if img.any():
            rad_cols.append(solve(basis, Mat.column(alg.p, img)).a[:, 0])
    rad = column_space(
        Mat(alg.p, np.stack(rad_cols, axis=1) if rad_cols else np.zeros((g, 0), dtype=np.int64))
    )
    gamma = make_algebra(
        g,
        c,
        unit_coords.a[:, 0],
        idem_coords,
        rad,
        alg.p,
        name=f"slice({alg.name})",
    )
    return gamma, basis, e


def _slice_module(gamma: Alg, basis: Mat, e: np.ndarray, m: Mod) -> tuple[Mod, Mat]:
    """The right Gamma-module M e, with its embedding basis inside M."""
    proj_e = m.rho(e)
    mbasis = column_space(proj_e)
    if mbasis.cols == 0:
        return zero_module(gamma), mbasis
    mats = []
    for t in range(gamma.dim):
        act = m.rho(basis.a[:, t])
        restricted = solve(mbasis, act @ mbasis)
        if restricted is None:
            raise ValidationError("slice of module is not invariant")
        mats.append(restricted)
    return make_module(gamma, mats), mbasis


def idempotent_slice(alg: Alg, indices, x: Cx) -> Cx:
    """Degreewise slice X e as a complex of Gamma = e A e modules."""
    gamma, basis, e = idempotent_slice_algebra(alg, indices)
    if x.is_zero():
        return zero_complex(gamma)
    objects = []
    bases = []
    for n in x.degrees():
        mod, mbasis = _slice_module(gamma, basis, e, x.obj(n))
        objects.append(mod)
        bases.append(mbasis)
    diffs = []
    for k in range(len(objects) - 1):
        if objects[k].dim == 0 or objects[k + 1].dim == 0:
            diffs.append(MMap.zero(objects[k], objects[k + 1]))
            continue
        restricted = solve(bases[k + 1], x.diff(x.lo + k).mat @ bases[k])
        if restricted is None:
            raise ValidationError("differential does not preserve the slice")
        diffs.append(MMap(objects[k], objects[k + 1], restricted))
    return make_complex(gamma, x.lo, objects, diffs)


def idempotent_slice_dims(alg: Alg, indices, x: Cx) -> tuple[dict[int, int], dict[int, int]]:
    """(H^n of the sliced complex, slice of H^n) dimension profiles."""
    sliced = idempotent_slice(alg, indices, x)
    h_of_slice = cohomology_dims(sliced)
    gamma, basis, e = idempotent_slice_algebra(alg, indices)
    slice_of_h = {}
    for n in x.degrees():
        hmod = cohomology_data(x, n).module
        slice_of_h[n] = rank(hmod.rho(e))
    return h_of_slice, slice_of_h


# -- endomorphism algebras and tilting -------------------------------------------------------


def end_algebra(t: Mod) -> tuple[Alg, list[MMap]]:
    """End(t) as a validated algebra; product b_i * b_j = b_i o b_j.

    Designated idempotents come from a Krull-Schmidt decomposition; the
    radical is assembled from maps between non-isomorphic summands plus the
    local radicals of the summand endomorphism rings, then fully validated.
    """
    basis = hom_space(t, t)
    d = len(basis)
    p = t.alg.p
    bm = np.stack([f.mat.a.reshape(-1) for f in basis], axis=1)
    bmat = Mat(p, bm)
    c = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            comp = basis[i] @ basis[j]
            coords = solve(bmat, Mat(p, comp.mat.a.reshape(-1, 1)))
            if coords is None:
                raise ValidationError("endomorphism composition escapes the Hom basis")
            c[i, j, :] = coords.a[:, 0]
    unit = solve(bmat, Mat(p, np.eye(t.dim, dtype=np.int64).reshape(-1, 1))).a[:, 0]
    summands = decompose_with_maps(t)
    idems = []
    for piece, inc, proj in summands:
        idems.append(solve(bmat, Mat(p, (inc @ proj).mat.a.reshape(-1, 1))).a[:, 0])
    rad_cols = []
    for s, (ms, inc_s, proj_s) in enumerate(summands):
        for tt, (mt, inc_t, proj_t) in enumerate(summands):
            if s == tt:
                gens = local_end_radical(ms)
            else:
                iso = is_isomorphic(ms, mt)
                if iso is None:
                    gens = hom_space(ms, mt)
                else:
                    gens = [iso @ r for r in local_end_radical(ms)]
            for g in gens:
                comp = inc_t @ g @ proj_s
                coords = solve(bmat, Mat(p, comp.mat.a.reshape(-1, 1)))
                rad_cols.append(coords.a[:, 0])
    rad = column_space(
        Mat(p, np.stack(rad_cols, axis=1) if rad_cols else np.zeros((d, 0), dtype=np.int64))
    )
    labels = tuple(f"f{i}" for i in range(d))
    alg = make_algebra(d, c, unit, idems, rad, p, labels=labels, name=f"End({t.dim}d)")
    return alg, basis


def _lift_endomorphism(res: Resolution, gamma: MMap) -> CMap:
    """Lift an endomorphism of the resolved module to the resolution."""
    target_map = CMap.build(res.target, res.target, {0: gamma})
    # comparison o lift ~ gamma o comparison, with a verified homotopy
    out = solve_squares((res.res, res.res), [(res.comparison, None, target_map @ res.comparison)])
    if out is None:
        raise ValidationError("endomorphism lift failed")
    return out[0]


class _IsoRegistry:
    """Deduplicates modules up to isomorphism, assigning stable ids."""

    def __init__(self):
        self.reps: list[Mod] = []

    def id_of(self, m: Mod) -> int:
        for i, rep in enumerate(self.reps):
            if is_isomorphic(rep, m) is not None:
                return i
        self.reps.append(m)
        return len(self.reps) - 1


def tilting_check(t: Mod, target: Alg, shift_window: tuple[int, int] = (-2, 2), cap: int = 12) -> dict:
    """Verify an endomorphism-algebra identification and tabulate RHom(t, -).

    (1) Computes Gamma = End(t) and searches for an isomorphism with
    ``target``, falling back to the opposite algebra (the side is recorded).
    (2) For every known indecomposable M of the base algebra, computes the
    cohomology of Hom*(P_t, M) as Gamma-modules, where the Gamma-action comes
    from lifted endomorphisms acting by precomposition.  (3) Checks the
    resulting table separates the indecomposables across the shift window.
    """
    gamma, basis = end_algebra(t)
    iso = algebra_iso_search(gamma, target)
    side = "direct"
    if iso is None:
        iso = algebra_iso_search(opposite(gamma), target)
        side = "opposite"
    res = proj_resolution(t, cap)
    lifts = [_lift_endomorphism(res, g) for g in basis]
    indecomposables = known_indecomposables(t.alg)
    registry = _IsoRegistry()
    table = []
    signatures = {}
    for idx, m in enumerate(indecomposables):
        hc = hom_complex(res.res, stalk(m, 0))
        pre_maps = {}
        for k, lift in enumerate(lifts):
            comps = {}
            for n in hc.cx.degrees():
                dim_n = hc.degree_dim(n)
                if dim_n == 0:
                    continue
                cols = np.zeros((dim_n, dim_n), dtype=np.int64)
                for col, (i, f) in enumerate(hc.basis[n]):
                    composed = f @ lift.component(i)
                    coords = hc.coords_of(n, {i: composed})
                    cols[:, col] = coords.a[:, 0]
                comps[n] = MMap(hc.cx.obj(n), hc.cx.obj(n), Mat(gamma.p, cols))
            pre_maps[k] = CMap.build(hc.cx, hc.cx, comps)
        profile = {}
        for n in hc.cx.degrees():
            hdim = cohomology_data(hc.cx, n).module.dim
            if hdim == 0:
                continue
            action = [cohomology_map(pre_maps[k], n).mat for k in range(len(basis))]
            hmod = make_module(gamma, action)
            parts = decompose(hmod)
            profile[n] = tuple(sorted((registry.id_of(piece), mult) for piece, mult in parts))
            table.append(
                {
                    "module_index": idx,
                    "degree": n,
                    "dim": hdim,
                    "summands": [
                        {"class_id": cid, "multiplicity": mult} for cid, mult in profile[n]
                    ],
                }
            )
        signatures[idx] = profile
    lo, hi = shift_window
    seen = {}
    injective = True
    for idx, profile in signatures.items():
        for s in range(lo, hi + 1):
            shifted = tuple(sorted((n + s, v) for n, v in profile.items()))
            if shifted in seen:
                injective = False
            seen[shifted] = (idx, s)
    return {
        "end_dim": gamma.dim,
        "iso_found": iso is not None,
        "iso_side": side if iso is not None else None,
        "table": table,
        "injective_on_shifts": injective,
        "gamma": gamma,
        "iso": iso,
    }


# -- Hom agreement against injective complexes ------------------------------------------------


def khom_agreement(m: Mod, x: Cx, cap: int = 12) -> tuple[int, int]:
    """Hom-in-K dimensions (from the injective resolution, from the stalk).

    The complex x must have injective components (certified by decomposing
    each against the indecomposable injectives); the two dimensions agree for
    such x.
    """
    for n in x.degrees():
        if x.obj(n).dim and not _certify_injective(x.obj(n)):
            raise ValidationError(f"component in degree {n} is not injective", witness=n)
    res = inj_resolution(m, cap)
    from_res = cohomology_data(hom_complex(res.res, x).cx, 0).module.dim
    from_stalk = cohomology_data(hom_complex(stalk(m, 0), x).cx, 0).module.dim
    return from_res, from_stalk
