"""Stable module categories of self-injective algebras.

Here projectives and injectives coincide, so modules admit two-sided
(complete) resolutions: acyclic complexes of projectives whose degree-zero
cocycles recover the module.  Stable Homs (maps modulo those factoring
through a projective) can be computed either directly or as H^0 of the Hom
complex between complete resolutions; both routes are implemented and
cross-checked, and the stable AR quiver comes from radical quotients of
stable Hom spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from homcat.algebras import Alg
from homcat.complexes import Cx, cohomology_data, make_complex, squares_system
from homcat.errors import GuardError, ValidationError
from homcat.linalg import Mat, column_space, kernel_basis, rank
from homcat.modules import (
    MMap,
    Mod,
    _preset_name_of,
    _vec,
    classify_indecomposables,
    decompose_with_maps,
    dual_module,
    hom_space,
    injective_envelope,
    is_isomorphic,
    kci,
    local_end_radical,
    projective_cover,
    projective_module,
    regular_module,
    submodule,
)
from homcat.quivers import Quiver

__all__ = [
    "assert_self_injective",
    "stable_hom",
    "syzygy",
    "cosyzygy",
    "CompleteRes",
    "complete_resolution",
    "z0",
    "stable_hom_via_cr",
    "stable_indecomposables",
    "stable_ar_quiver",
]


_SELF_INJ_CACHE: dict[Alg, list[tuple[Mod, Mod]]] = {}


def assert_self_injective(alg: Alg) -> list[tuple[Mod, Mod]]:
    """Certify that projective and injective modules coincide.

    Decomposes the dual of the opposite regular module (the injective
    cogenerator) and matches every summand against the list of projectives;
    returns the matching as a certificate, or raises with the witness summand.
    """
    cached = _SELF_INJ_CACHE.get(alg)
    if cached is not None:
        return cached
    from homcat.algebras import opposite

    cogenerator = dual_module(regular_module(opposite(alg)), alg)
    projs = [projective_module(alg, j) for j in range(len(alg.idempotents))]
    matching = []
    for piece, _, _ in decompose_with_maps(cogenerator):
        match = None
        for p in projs:
            if is_isomorphic(piece, p) is not None:
                match = p
                break
        if match is None:
            raise ValidationError(
                "algebra is not self-injective: an injective summand is not projective",
                witness=piece,
            )
        matching.append((piece, match))
    _SELF_INJ_CACHE[alg] = matching
    return matching


def _projective_factoring_subspace(m: Mod, n: Mod) -> Mat:
    """Flattened span of the maps m -> n factoring through a projective.

    Computed as maps factoring through the projective cover of n; by the
    lifting property this equals the maps factoring through any projective.
    """
    p = m.alg.p
    cover, epi = projective_cover(n)
    through = [epi @ h for h in hom_space(m, cover)]
    return _vec([f.mat for f in through], p, n.dim, m.dim)


def stable_hom(m: Mod, n: Mod) -> tuple[int, list[MMap]]:
    """Hom(m, n) modulo projectives: dimension and representative basis."""
    assert_self_injective(m.alg)
    p = m.alg.p
    if m.dim == 0 or n.dim == 0:
        return 0, []
    basis = hom_space(m, n)
    if not basis:
        return 0, []
    full = _vec([f.mat for f in basis], p, n.dim, m.dim)
    through = _projective_factoring_subspace(m, n)
    # representatives: extend a basis of the factoring subspace by columns of
    # the full Hom space; the added columns represent a stable basis
    through_basis = column_space(through)
    dim_through = through_basis.cols
    combined = column_space(Mat(p, np.hstack([through_basis.a, full.a])))
    reps = []
    for t in range(dim_through, combined.cols):
        reps.append(MMap(m, n, Mat(p, combined.a[:, t].reshape(n.dim, m.dim))))
    return len(reps), reps


def syzygy(m: Mod) -> Mod:
    """Kernel of the projective cover."""
    assert_self_injective(m.alg)
    cover, epi = projective_cover(m)
    ker, _ = submodule(cover, kernel_basis(epi.mat))
    return ker


def cosyzygy(m: Mod) -> Mod:
    """Cokernel of the injective envelope."""
    assert_self_injective(m.alg)
    env, mono = injective_envelope(m)
    _, (cok, _), _ = kci(mono)
    return cok


@dataclass(frozen=True)
class CompleteRes:
    """A windowed complete resolution: acyclic, projective components, and a
    verified isomorphism Z^0 = ker(d^0) onto the module."""

    module: Mod
    window: tuple[int, int]
    cx: Cx
    z0_iso: MMap  # from ker(d^0) submodule onto the module


_CR_CACHE: dict = {}


def complete_resolution(m: Mod, window: tuple[int, int] = (-4, 4)) -> CompleteRes:
    """Splice projective covers of syzygies against injective envelopes of
    cosyzygies across the window.

    Degree 0 holds the injective envelope of m, negative degrees the covers,
    positive degrees the envelopes of iterated cosyzygies; acyclicity at every
    interior degree and the Z^0 identification are verified.  Results are
    cached per (module, window).
    """
    cached = _CR_CACHE.get((m, window))
    if cached is not None:
        return cached
    assert_self_injective(m.alg)
    lo, hi = window
    if lo > -2 or hi < 2:
        raise ValidationError("window must span at least two degrees on each side")
    for piece, _, _ in decompose_with_maps(m):
        if _is_projective(piece):
            raise ValidationError(
                "module has a projective summand; complete resolutions need none",
                witness=piece,
            )
    alg = m.alg
    # negative side: iterated projective covers, ending with cover(m)
    current = m
    covers = []
    for _ in range(-lo):
        cover, epi = projective_cover(current)
        ker, inc = submodule(cover, kernel_basis(epi.mat))
        covers.append((cover, epi, inc))
        current = ker
    # positive side: iterated injective envelopes starting at m
    envs = []
    current = m
    for _ in range(hi + 1):
        env, mono = injective_envelope(current)
        _, (cok, cok_proj), _ = kci(mono)
        envs.append((env, mono, cok, cok_proj))
        current = cok
    objects = []
    for k in range(-lo, 0, -1):
        objects.append(covers[k - 1][0])  # degree -k
    for k in range(hi + 1):
        objects.append(envs[k][0])
    diffs = []
    # splice within the negative side: P(Omega^k) ->> Omega^k >-> P(Omega^(k-1))
    for k in range(-lo - 1, 0, -1):
        diffs.append(covers[k - 1][2] @ covers[k][1])
    # boundary: P(m) ->> m >-> I(m)
    diffs.append(envs[0][1] @ covers[0][1])
    # positive side: I(cok^k) -> I(cok^(k+1)) via envelope of the cokernel
    for k in range(hi):
        diffs.append(envs[k + 1][1] @ envs[k][3])
    cx = make_complex(alg, lo, objects, diffs)
    # verify interior acyclicity
    for n in range(lo + 1, hi):
        if cohomology_data(cx, n).module.dim != 0:
            raise ValidationError(f"complete resolution not acyclic at degree {n}", witness=n)
    # Z^0 = ker d^0 is the image of m inside I(m)
    zmod, zinc = submodule(cx.obj(0), kernel_basis(cx.diff(0).mat))
    iso_candidates = is_isomorphic(zmod, m)
    if iso_candidates is None:
        raise ValidationError("Z^0 of the spliced complex is not the module")
    out = CompleteRes(module=m, window=window, cx=cx, z0_iso=iso_candidates)
    _CR_CACHE[(m, window)] = out
    return out


_PROJ_LIST_CACHE: dict[Alg, list[Mod]] = {}


def _is_projective(m: Mod) -> bool:
    projs = _PROJ_LIST_CACHE.get(m.alg)
    if projs is None:
        projs = [projective_module(m.alg, j) for j in range(len(m.alg.idempotents))]
        _PROJ_LIST_CACHE[m.alg] = projs
    return any(is_isomorphic(m, p) is not None for p in projs)


def z0(x: Cx) -> Mod:
    """ker(d^0) of an acyclic complex of projectives, with inherited action.

    Validates interior acyclicity and projectivity of the components.
    """
    for n in x.degrees():
        for piece, _, _ in decompose_with_maps(x.obj(n)):
            if not _is_projective(piece):
                raise ValidationError(f"component in degree {n} is not projective")
    for n in range(x.lo + 1, x.hi):
        if cohomology_data(x, n).module.dim != 0:
            raise ValidationError(f"complex not acyclic at interior degree {n}")
    zmod, _ = submodule(x.obj(0), kernel_basis(x.diff(0).mat))
    return zmod


def _interior_h0(x: Cx, y: Cx) -> int:
    """Chain maps x -> y modulo homotopy, compared only on interior degrees.

    Truncating a two-sided acyclic complex creates one spurious homotopy
    class supported at the window boundary; restricting both the chain maps
    and the homotopy images to the interior removes it.
    """
    p = x.alg.p
    lo = max(x.lo, y.lo) + 1
    hi = min(x.hi, y.hi) - 1
    if lo > hi:
        raise ValidationError("window too small: empty interior")

    def restricted(comps: dict[int, Mat]) -> np.ndarray:
        parts = []
        for n in range(lo, hi + 1):
            f = comps.get(n)
            size = y.obj(n).dim * x.obj(n).dim
            if f is None:
                parts.append(np.zeros(size, dtype=np.int64))
            else:
                parts.append(f.a.reshape(-1))
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    # chain maps solved degreewise (much cheaper than the full Hom complex)
    v_cols = [
        restricted({n: m for (_, n), m in sol.items()})
        for sol in squares_system((x, y), []).nullspace()
    ]
    b_cols = []
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 2):
        if x.obj(n).dim == 0 or y.obj(n - 1).dim == 0:
            continue
        for h in hom_space(x.obj(n), y.obj(n - 1)):
            comps = {}
            lead = y.diff(n - 1) @ h
            if not lead.is_zero():
                comps[n] = lead.mat
            trail = h @ x.diff(n - 1)
            if not trail.is_zero():
                comps[n - 1] = trail.mat
            b_cols.append(restricted(comps))
    v_rank = rank(Mat(p, np.stack(v_cols, axis=1))) if v_cols else 0
    b_rank = rank(Mat(p, np.stack(b_cols, axis=1))) if b_cols else 0
    return v_rank - b_rank


def stable_hom_via_cr(m: Mod, n: Mod, window: tuple[int, int] = (-4, 4)) -> int:
    """Stable Hom dimension as H^0 of the Hom complex of complete resolutions,
    computed on the window interior.

    Recomputed on the widened window as a stability guard; the two values
    must agree (and match ``stable_hom``).
    """
    dims = []
    for w in (window, (window[0] - 2, window[1] + 2)):
        cr_m = complete_resolution(m, w)
        cr_n = complete_resolution(n, w)
        dims.append(_interior_h0(cr_m.cx, cr_n.cx))
    if dims[0] != dims[1]:
        raise ValidationError(f"stable Hom unstable across windows: {dims}")
    return dims[0]


def stable_indecomposables(alg: Alg) -> list[Mod]:
    """Indecomposables of the stable category: the classification minus the
    projectives (guarded to truncated polynomial presets)."""
    name = _preset_name_of(alg)
    if name is None or not (name.startswith("truncpoly") or name == "ground_field"):
        raise GuardError("stable classification is guarded to truncated polynomial presets")
    assert_self_injective(alg)
    return [m for m in classify_indecomposables(alg) if not _is_projective(m)]


def _stable_rad_subspaces(ind: list[Mod], alg: Alg):
    """For each ordered pair, the subspace W = rad + (projective factoring)
    of Hom, flattened; stable radical quotients come from rank differences."""
    p = alg.p
    spaces = {}
    for i, mi in enumerate(ind):
        for j, mj in enumerate(ind):
            through = _projective_factoring_subspace(mi, mj)
            if i == j:
                rad = _vec([f.mat for f in local_end_radical(mi)], p, mj.dim, mi.dim)
            else:
                rad = _vec([f.mat for f in hom_space(mi, mj)], p, mj.dim, mi.dim)
            spaces[(i, j)] = {
                "w": column_space(Mat(p, np.hstack([rad.a, through.a]))),
                "p": column_space(through),
            }
    return spaces


def stable_ar_quiver(alg: Alg) -> Quiver:
    """AR quiver of the stable category: vertices are the non-projective
    indecomposables, arrows count dim rad/(rad^2 + projectives) of stable Homs."""
    ind = stable_indecomposables(alg)
    p = alg.p
    spaces = _stable_rad_subspaces(ind, alg)
    arrows = []
    for i, mi in enumerate(ind):
        for j, mj in enumerate(ind):
            w = spaces[(i, j)]["w"]
            base = spaces[(i, j)]["p"]
            composites = [base.a]
            for z, mz in enumerate(ind):
                w1 = spaces[(i, z)]["w"]
                w2 = spaces[(z, j)]["w"]
                for s in range(w1.cols):
                    f1 = w1.a[:, s].reshape(mz.dim, mi.dim)
                    for t in range(w2.cols):
                        f2 = w2.a[:, t].reshape(mj.dim, mz.dim)
                        composites.append(((f2 @ f1) % p).reshape(-1, 1))
            rad2 = column_space(Mat(p, np.hstack(composites)))
            mult = rank(w) - rank(rad2)
            if mult > 0:
                arrows.append((i, j, mult))
    vertices = tuple(("m" + "".join(str(d) for d in m.dim_vector()), m.dim) for m in ind)
    return Quiver(vertices=vertices, arrows=tuple(arrows))
