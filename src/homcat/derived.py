"""Derived-category computations: resolutions, derived Homs, Ext, dg
endomorphism algebras, idempotent slices, and tilting verification.

Everything reduces to bounded complexes: Hom in the derived category is H^0
of the Hom complex out of a projective resolution, Ext is its shifted
variant, and invertibility in the derived category is certified by an
explicit lift against a resolution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from homcat.algebras import Alg, _products, algebra_iso_search, make_algebra, opposite
from homcat.complexes import (
    CMap,
    Cx,
    HomComplex,
    _cmap_of,
    cohomology_data,
    cohomology_dim,
    cohomology_dims,
    cohomology_map,
    cone_complex,
    hom_complex,
    hom_k_dim,
    lift_map,
    make_complex,
    shift,
    shift_map,
    solve_squares,
    stalk,
    zero_complex,
)
from homcat.errors import CapExhausted, ValidationError
from homcat.linalg import Mat, column_space, rank, solve
from homcat.modules import (
    MMap,
    Mod,
    _cover_step,
    _first_iso,
    _hom_basis,
    _restricted_action,
    classify_indecomposables,
    decompose,
    decompose_with_maps,
    dual_module,
    hom_coords,
    hom_space,
    is_injective,
    is_isomorphic,
    is_projective,
    local_end_radical,
    make_module,
    submodule,
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
    and its target, certified by an acyclic cone at construction."""

    target: Cx
    res: Cx
    comparison: CMap  # res -> target (projective) or target -> res (injective)


def _verify_quasi_iso(f: CMap) -> bool:
    """f is a quasi-isomorphism iff its cone is acyclic (the long exact
    sequence of the cone), which ranks alone decide."""
    return not any(cohomology_dims(cone_complex(f)[0]).values())


def _cover_chain(m: Mod, steps: int) -> list[tuple[MMap, MMap]]:
    """Projective covers of the successive syzygies of m, the one loop behind
    every minimal resolution.

    Returns (epi_k: P_k ->> Omega^k m, inc_k: Omega^(k+1) m >-> P_k) for
    k < steps, stopping after the first zero syzygy; the last inclusion's
    source is the syzygy left over.  Each step is read from the
    ``modules._cover_step`` cache, so a shorter chain of m is a prefix of a
    longer one and costs no new cover: the resolutions, envelopes and both
    windows of a complete resolution of one module share their covers.
    """
    chain = []
    current = m
    while len(chain) < steps:
        epi, inc = _cover_step(current)
        chain.append((epi, inc))
        current = inc.src
        if current.dim == 0:
            break
    return chain


def _projective_side(chain: list[tuple[MMap, MMap]]) -> tuple[list[Mod], list[MMap]]:
    """The covers P_k of a cover chain in decreasing k, with the differentials
    P_(k+1) -> P_k = (inclusion of Omega^(k+1)) o (cover epi)."""
    objects = [epi.src for epi, _ in reversed(chain)]
    diffs = [chain[k][1] @ chain[k + 1][0] for k in range(len(chain) - 2, -1, -1)]
    return objects, diffs


def _dual_side(m: Mod, chain: list[tuple[MMap, MMap]]) -> tuple[list[Mod], list[MMap], MMap]:
    """The dual over m's algebra of a cover chain of D m: I^k = D P_k in
    increasing k, d^k the transpose of P_(k+1) -> P_k, and the envelope
    m >-> I^0, the transpose of the first cover."""
    alg = m.alg
    objects = [dual_module(epi.src, alg) for epi, _ in chain]
    diffs = [
        MMap(objects[k], objects[k + 1], (chain[k][1].mat @ chain[k + 1][0].mat).transpose())
        for k in range(len(chain) - 1)
    ]
    return objects, diffs, MMap(m, objects[0], chain[0][0].mat.transpose())


@functools.lru_cache(maxsize=256)
def proj_resolution(m: Mod, cap: int = 12) -> Resolution:
    """Minimal projective resolution by iterated covers of syzygies.

    Stops when a syzygy vanishes; raises CapExhausted (with the surviving
    syzygy) when the cap is reached first.  Cached per (module, cap).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    alg = m.alg
    target = stalk(m, 0)
    if m.dim == 0:
        z = zero_complex(alg)
        return Resolution(target, z, CMap.zero(z, target))
    chain = _cover_chain(m, cap + 1)
    leftover = chain[-1][1].src
    if leftover.dim:
        raise CapExhausted(f"projective resolution did not terminate within {cap} steps", leftover=leftover)
    objects, diffs = _projective_side(chain)
    res_cx = make_complex(alg, 1 - len(chain), objects, diffs)  # degrees -L..0
    comparison = CMap.build(res_cx, target, {0: chain[0][0]})
    if not _verify_quasi_iso(comparison):
        raise ValidationError("internal inconsistency: resolution comparison not a quasi-iso")
    if not all(is_projective(ob) for ob in res_cx.objects):
        raise ValidationError("internal inconsistency: non-projective component")
    return Resolution(target, res_cx, comparison)


@functools.lru_cache(maxsize=256)
def inj_resolution(m: Mod, cap: int = 12) -> Resolution:
    """Minimal injective resolution m -> I^0 -> ... -> I^L, the dual of the
    cover chain of D m over the opposite algebra (as ``injective_envelope``
    is the dual of ``projective_cover``), assembled by ``_dual_side`` like the
    positive half of a complete resolution.

    I^k = D P_k sits in degree k.  Raises CapExhausted with the dual of the
    surviving syzygy, a module over m's own algebra.  Cached per (module, cap).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    alg = m.alg
    target = stalk(m, 0)
    if m.dim == 0:
        z = zero_complex(alg)
        return Resolution(target, z, CMap.zero(target, z))
    chain = _cover_chain(dual_module(m), cap + 1)
    leftover = chain[-1][1].src
    if leftover.dim:
        raise CapExhausted(
            f"injective resolution did not terminate within {cap} steps",
            leftover=dual_module(leftover, alg),
        )
    objects, diffs, envelope = _dual_side(m, chain)
    res_cx = make_complex(alg, 0, objects, diffs)
    comparison = CMap.build(target, res_cx, {0: envelope})
    if not _verify_quasi_iso(comparison):
        raise ValidationError("internal inconsistency: resolution comparison not a quasi-iso")
    if not all(is_injective(ob) for ob in res_cx.objects):
        raise ValidationError("internal inconsistency: non-injective component")
    return Resolution(target, res_cx, comparison)


@functools.lru_cache(maxsize=256)
def resolve_complex(x: Cx, cap: int = 12) -> Resolution:
    """A quasi-isomorphism P -> x with projective components.

    Induction on the number of nonzero cohomologies: resolve the lowest one,
    map its resolution in, and recurse on the cone; the pieces reassemble as
    the cone of an explicit comparison map, with no linear solving beyond the
    projective lifts.
    """
    out = _resolve_complex_impl(x, cap)
    if not _verify_quasi_iso(out.comparison):
        raise ValidationError("internal inconsistency: complex resolution is not a quasi-iso")
    return out


def _resolve_complex_impl(x: Cx, cap: int) -> Resolution:
    alg = x.alg
    hdims = {n: d for n, d in cohomology_dims(x).items() if d > 0}
    if not hdims:
        z = zero_complex(alg)
        return Resolution(x, z, CMap.zero(z, x))
    n0 = min(hdims)
    hdata = cohomology_data(x, n0)
    base = proj_resolution(hdata.module, cap)
    placed = shift(base.res, -n0)
    phi = _map_resolution_in(placed, x, n0, hdata, base)
    cone, parts = cone_complex(phi)
    inner = _resolve_complex_impl(cone, cap)
    if inner.res.is_zero():
        return Resolution(x, placed, phi)
    # chi: Sigma^-1 Q -> placed, from the cone projection
    chi = shift_map(parts.pi @ inner.comparison, -1)
    total, _ = cone_complex(chi)
    # comparison^n: total^n = Q^n (+) placed^n -> x^n is [-sigma^n | phi^n], with
    # sigma^n the x-rows of the inner comparison Q^n -> cone^n = placed^(n+1) (+) x^n:
    # the null-homotopy of (Sigma phi) o pi transported through the lift
    p = alg.p
    comparison = _cmap_of(total, x, lambda n: Mat._reduced(p, np.hstack([
        -inner.comparison._mat(n).a[placed.obj(n + 1).dim :] % p,
        phi._mat(n).a,
    ])))
    return Resolution(x, total, comparison)


def _map_resolution_in(placed: Cx, x: Cx, n0: int, hdata, base: Resolution) -> CMap:
    """A chain map placed -> x inducing an isomorphism on H^(n0).

    Built degree by degree downward from n0 by the lifting property of the
    projective components.
    """
    comps: dict[int, MMap] = {}
    zmod, zinc = submodule(x.obj(n0), hdata.cocycles)
    # top lift: P -> Z with (quotient to H) o lift = resolution augmentation
    top_p = placed.obj(n0)
    lift = lift_map(top_p, zmod, base.comparison.component(0).mat, left=hdata.proj)
    if lift is None:
        raise ValidationError("projective lift onto cocycles failed")
    comps[n0] = zinc @ lift
    for n in range(n0 - 1, placed.lo - 1, -1):
        src = placed.obj(n)
        if src.dim == 0:
            break
        lifted = lift_map(src, x.obj(n), (comps[n + 1] @ placed.diff(n)).mat, left=x.diff(n).mat)
        if lifted is None:
            raise ValidationError(f"projective lift failed in degree {n}")
        comps[n] = lifted
    return CMap.build(placed, x, comps)


# -- derived Hom and Ext ------------------------------------------------------------


def hom_derived(x: Cx, y: Cx, n: int, cap: int = 12) -> int:
    """dim Hom in the derived category between x and the n-th shift of y.

    Computed as dim H^n of the Hom complex out of a projective resolution of
    x, by ``hom_k_dim`` from its degrees n - 1, n and n + 1.  The cap only
    bounds the cover chains, each of which stops at a zero syzygy, so a
    resolution that returns is the same at every larger cap.
    """
    return hom_k_dim(resolve_complex(x, cap).res, y, n)


def ext(m: Mod, n_mod: Mod, degree: int, cap: int = 12) -> int:
    """dim Ext^degree between modules: dim Hom_K(P, Sigma^degree n_mod) for the
    minimal projective resolution P of m, from three degrees of the Hom complex."""
    if degree < 0:
        raise ValueError("ext degree must be nonnegative")
    return hom_k_dim(proj_resolution(m, cap).res, stalk(n_mod, 0), degree)


# -- isomorphism in the derived category ----------------------------------------------


def is_iso_in_D(f: CMap, cap: int = 12) -> tuple[bool, dict | None]:
    """True iff every H^n(f) is invertible; a true answer carries a verified
    round-trip certificate.

    The certificate is a lift g of the resolution comparison c through f:
    f o g ~ c with a stored, verified homotopy, which exhibits g o c^{-1} as
    a two-sided inverse of f in the derived category.  g needs no cone of its
    own: f and c are certified quasi-isomorphisms and f o g induces the same
    maps on cohomology as c, so every H^n(g) = H^n(f)^{-1} H^n(c) is
    invertible (two out of three).
    """
    if not _verify_quasi_iso(f):
        return False, None
    res = resolve_complex(f.dst, cap)
    out = solve_squares((res.res, f.src), [(f, None, res.comparison)])
    if out is None:
        raise ValidationError("internal inconsistency: lift through a quasi-iso failed")
    g, (cert_htp,) = out
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

    def differential(self, n: int) -> Mat:
        return self.hom.cx.diff(n).mat


def dg_end(p_cx: Cx) -> DGAlg:
    """End dg algebra of a bounded complex with projective components."""
    if not all(is_projective(ob) for ob in p_cx.objects):
        raise ValidationError("dg endomorphisms require projective components")
    hc = hom_complex(p_cx, p_cx)
    p = p_cx.alg.p
    mult = {}
    degrees = [n for n in hc.cx.degrees() if hc.degree_dim(n)]
    for m in degrees:
        for n in degrees:
            if hc.degree_dim(m + n) == 0:
                continue
            blocks_m, blocks_mn = hc.blocks(m), hc.blocks(m + n)
            table = np.zeros((hc.degree_dim(m + n), hc.degree_dim(m), hc.degree_dim(n)), dtype=np.int64)
            # (x^(ib+n) -> x^(ib+n+m)) o (x^ib -> x^(ib+n)) lands in source block ib of degree m + n
            for ib, cols_b in hc.blocks(n).items():
                cols_a = blocks_m.get(ib + n)
                if cols_a is None:
                    continue
                fa, fb = hc.stacks[m][ib + n], hc.stacks[n][ib]
                comp = fa[:, None] @ fb[None, :] % p
                coords = hom_coords(p_cx.obj(ib), p_cx.obj(ib + m + n), comp.reshape(-1, *comp.shape[2:]))
                rows = blocks_mn.get(ib, slice(0))
                table[rows, cols_a, cols_b] = coords.T.reshape(-1, *comp.shape[:2])
            if table.any():
                mult[(m, n)] = table
    ident_comps = {i: MMap.identity(p_cx.obj(i)) for i in p_cx.degrees()}
    unit = hc.coords_of(0, ident_comps).a[:, 0]
    dga = DGAlg(hom=hc, mult=mult, unit=unit)
    _verify_dg(dga)
    return dga


def _verify_dg(dga: DGAlg) -> None:
    """Check the dg identities on every basis element, pair and triple at once,
    as contractions of the ``mult`` tables: T[m, n][k, i, j] is the k-th
    coordinate of (i-th degree-m element) o (j-th degree-n element)."""
    hc = dga.hom
    p = hc.source.alg.p
    dim = hc.degree_dim
    degrees = [n for n in hc.cx.degrees() if dim(n)]

    def table(m: int, n: int) -> np.ndarray:
        return dga.mult.get((m, n), np.zeros((dim(m + n), dim(m), dim(n)), dtype=np.int64))

    def differential(n: int) -> np.ndarray:
        return hc.cx.diff(n).mat.a

    if 0 in degrees and (differential(0) @ dga.unit % p).any():
        raise ValidationError("dg unit is not a cocycle")
    for n in degrees:
        eye = np.eye(dim(n), dtype=np.int64)
        if not np.array_equal(np.einsum("kij,i->kj", table(0, n), dga.unit) % p, eye):
            raise ValidationError("dg unit fails as a left identity")
        if not np.array_equal(np.einsum("kij,j->ki", table(n, 0), dga.unit) % p, eye):
            raise ValidationError("dg unit fails as a right identity")
    # (ab)c - a(bc), indexed [k, i, j, l]
    for m in degrees:
        for n in degrees:
            for l in degrees:
                if dim(m + n + l) == 0:
                    continue
                diff = np.einsum("kal,aij->kijl", table(m + n, l), table(m, n))
                diff -= np.einsum("kib,bjl->kijl", table(m, n + l), table(n, l))
                diff %= p
                if diff.any():
                    raise ValidationError("dg multiplication not associative")
    # Leibniz: D(ab) - D(a) b - (-1)^|a| a D(b), indexed [k, i, j]
    for m in degrees:
        for n in degrees:
            if dim(m + n) == 0:
                continue
            sign = 1 if m % 2 == 0 else -1
            diff = np.einsum("ka,aij->kij", differential(m + n), table(m, n))
            diff -= np.einsum("kaj,ai->kij", table(m + 1, n), differential(m))
            diff -= sign * np.einsum("kib,bj->kij", table(m, n + 1), differential(n))
            diff %= p
            if diff.any():
                raise ValidationError("dg differential fails the Leibniz rule")


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
    g, k = basis.cols, len(indices)
    # Gamma coordinates of the basis products, e, the idempotents and e rad e, from one solve
    prods = _products(alg.p, alg.structconst, basis.a.T, basis.a.T).reshape(g * g, alg.dim)
    idems = np.array(alg.idempotents)[indices]
    coords = solve(basis, Mat(alg.p, np.hstack([prods.T, e[:, None], idems.T, (peirce @ alg.radical).a])))
    if coords is None:
        raise ValidationError("slice not closed under multiplication")
    x = coords.a
    gamma = make_algebra(
        g,
        x[:, : g * g].T.reshape(g, g, g),
        x[:, g * g],
        list(x[:, g * g + 1 : g * g + 1 + k].T),
        column_space(Mat(alg.p, x[:, g * g + 1 + k :])),
        alg.p,
        name=f"slice({alg.name})",
    )
    return gamma, basis, e


def _slice_module(gamma: Alg, basis: Mat, e: np.ndarray, m: Mod) -> tuple[Mod, Mat]:
    """The right Gamma-module M e, with its embedding basis inside M: the
    Gamma basis acts as the A-action combinations in the columns of ``basis``
    (alg.dim terms below p^2: no int64 overflow), restricted to the pivot
    columns of rho(e) by one ``rref``."""
    n = m.dim
    acts = (basis.a.T @ m.acts.reshape(m.alg.dim, n * n)).reshape(gamma.dim, n, n) % m.alg.p
    mbasis, action = _restricted_action(acts, m.rho(e))
    return make_module(gamma, action), mbasis


def idempotent_slice(alg: Alg, indices, x: Cx) -> Cx:
    """Degreewise slice X e as a complex of Gamma = e A e modules."""
    return _slice_cx(*idempotent_slice_algebra(alg, indices), x)


def _slice_cx(gamma: Alg, basis: Mat, e: np.ndarray, x: Cx) -> Cx:
    """X e over Gamma, from the output of ``idempotent_slice_algebra``."""
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
    gamma, basis, e = idempotent_slice_algebra(alg, indices)
    h_of_slice = cohomology_dims(_slice_cx(gamma, basis, e, x))
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
    mats = _hom_basis(t, t)[0]
    d = len(mats)
    p = t.alg.p
    c = hom_coords(t, t, (mats[:, None] @ mats[None, :] % p).reshape(d * d, t.dim, t.dim)).reshape(d, d, d)
    unit = hom_coords(t, t, np.eye(t.dim, dtype=np.int64)[None])[0]
    summands = decompose_with_maps(t)
    idems = list(hom_coords(t, t, np.stack([(inc.mat @ proj.mat).a for _, inc, proj in summands])))
    rad_comps = [np.zeros((0, t.dim, t.dim), dtype=np.int64)]
    for s, (ms, _, proj_s) in enumerate(summands):
        for tt, (mt, inc_t, _) in enumerate(summands):
            if s == tt:
                gens = local_end_radical(ms)
            elif (iso := is_isomorphic(ms, mt)) is None:
                gens = _hom_basis(ms, mt)[0]
            else:
                gens = iso.mat.a @ local_end_radical(ms) % p
            rad_comps.append((inc_t.mat.a @ gens % p) @ proj_s.mat.a % p)
    rad = column_space(Mat(p, hom_coords(t, t, np.concatenate(rad_comps)).T))
    labels = tuple(f"f{i}" for i in range(d))
    alg = make_algebra(d, c, unit, idems, rad, p, labels=labels, name=f"End({t.dim}d)")
    return alg, hom_space(t, t)


def _lift_endomorphism(res: Resolution, gamma: MMap) -> CMap:
    """Lift an endomorphism of the resolved module to the resolution."""
    target_map = CMap.build(res.target, res.target, {0: gamma})
    # comparison o lift ~ gamma o comparison, with a verified homotopy
    out = solve_squares((res.res, res.res), [(res.comparison, None, target_map @ res.comparison)])
    if out is None:
        raise ValidationError("endomorphism lift failed")
    return out[0]


def tilting_check(t: Mod, target: Alg, shift_window: tuple[int, int] = (-2, 2), cap: int = 12) -> dict:
    """Verify an endomorphism-algebra identification and tabulate RHom(t, -).

    (1) Computes Gamma = End(t) and searches for an isomorphism with
    ``target``, falling back to the opposite algebra (the side is recorded).
    (2) For every indecomposable M of the base algebra, as certified by
    ``classify_indecomposables``, computes the cohomology of Hom*(P_t, M) as
    Gamma-modules, where the Gamma-action comes from lifted endomorphisms
    acting by precomposition.  (3) Checks the resulting table separates the
    indecomposables across the shift window.  Raises the classifier's
    CapExhausted or GuardError on an algebra it cannot certify.
    """
    gamma, basis = end_algebra(t)
    iso = algebra_iso_search(gamma, target)
    side = "direct"
    if iso is None:
        iso = algebra_iso_search(opposite(gamma), target)
        side = "opposite"
    res = proj_resolution(t, cap)
    lifts = [_lift_endomorphism(res, g) for g in basis]
    indecomposables = classify_indecomposables(t.alg)
    classes: list[Mod] = []  # one representative per isomorphism class met, in order
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
                for i, block in hc.blocks(n).items():
                    fs = hc.stacks[n][i]
                    composed = fs @ lift.component(i).mat.a % gamma.p
                    cols[block, block] = hom_coords(hc.source.obj(i), hc.target.obj(i + n), composed).T
                comps[n] = MMap(hc.cx.obj(n), hc.cx.obj(n), Mat(gamma.p, cols))
            pre_maps[k] = CMap.build(hc.cx, hc.cx, comps)
        profile = {}
        for n in hc.cx.degrees():
            hdim = cohomology_dim(hc.cx, n)
            if hdim == 0:
                continue
            action = [cohomology_map(pre_maps[k], n).mat for k in range(len(basis))]
            hmod = make_module(gamma, action)
            ids = []
            for piece, mult in decompose(hmod):
                k = _first_iso(piece, classes)
                if k is None:
                    k = len(classes)
                    classes.append(piece)
                ids.append((k, mult))
            profile[n] = tuple(sorted(ids))
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
        if x.obj(n).dim and not is_injective(x.obj(n)):
            raise ValidationError(f"component in degree {n} is not injective", witness=n)
    return hom_k_dim(inj_resolution(m, cap).res, x), hom_k_dim(stalk(m, 0), x)
