"""Stable module categories of self-injective algebras.

Here projectives and injectives coincide, so modules admit two-sided
(complete) resolutions: acyclic complexes of projectives whose degree-zero
cocycles recover the module.  Both halves come from ``derived._cover_chain``:
below degree zero the covers of the syzygies of m, from degree zero up the
duals of the covers of the syzygies of D m over the opposite algebra, since
D = Hom_k(-, k) turns projective covers into injective envelopes.  The halves
are assembled as in ``proj_resolution`` and ``inj_resolution``, by
``derived._projective_side`` and ``derived._dual_side``.
``cosyzygy`` is dual to ``syzygy`` the same way.  Every cover step is memoized
(``modules._cover_step``), so the chains of a narrow window are prefixes of
those of a wide one: widening a window takes only the new covers, and
``syzygy``, ``cosyzygy`` and the resolutions read the same ones.  Stable Homs
(maps modulo those factoring through a projective) can be computed either
directly or as H^0 of the Hom complex between complete resolutions, read on
the window interior from its degrees -1, 0 and 1 (``complexes._hom_window``,
as ``hom_k_dim`` reads them); both routes are implemented
and cross-checked, and the stable AR quiver is the AR quiver without its
projective vertices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from homcat.algebras import Alg
from homcat.complexes import Cx, _blocks, _hom_window, make_complex, zero_complex
from homcat.derived import _cover_chain, _dual_side, _projective_side
from homcat.errors import GuardError, ValidationError
from homcat.linalg import Mat, column_space, kernel_basis, rank
from homcat.modules import (
    MMap,
    Mod,
    _cover_step,
    _first_iso,
    _hom_basis,
    ar_quiver,
    classify_indecomposables,
    decompose_with_maps,
    dual_module,
    is_isomorphic,
    is_projective,
    make_module,
    projective_module,
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


@functools.lru_cache(maxsize=64)
def assert_self_injective(alg: Alg) -> list[tuple[Mod, Mod]]:
    """Certify that projective and injective modules coincide.

    Decomposes the dual of the opposite regular module (the injective
    cogenerator) and matches every summand against the list of projectives;
    returns the matching as a certificate, or raises with the witness summand.
    """
    # built over alg itself: b_i acts on the dual of A by the transpose of left multiplication
    cogenerator = make_module(alg, [alg.left_mult(alg.basis_vector(i)).transpose() for i in range(alg.dim)])
    projs = [projective_module(alg, j) for j in range(len(alg.idempotents))]
    matching = []
    for piece, _, _ in decompose_with_maps(cogenerator):
        k = _first_iso(piece, projs)
        if k is None:
            raise ValidationError(
                "algebra is not self-injective: an injective summand is not projective",
                witness=piece,
            )
        matching.append((piece, projs[k]))
    return matching


def _require_self_injective(alg: Alg) -> None:
    """GuardError unless the algebra is self-injective (``assert_self_injective``)."""
    try:
        assert_self_injective(alg)
    except ValidationError as err:
        raise GuardError(str(err)) from err


def _projective_factoring_subspace(m: Mod, n: Mod) -> Mat:
    """Flattened span of the maps m -> n factoring through a projective.

    Computed as maps factoring through the projective cover of n; by the
    lifting property this equals the maps factoring through any projective.
    """
    p = m.alg.p
    epi, _ = _cover_step(n)
    through = epi.mat.a @ _hom_basis(m, epi.src)[0] % p  # module maps by construction
    return Mat(p, through.reshape(len(through), n.dim * m.dim).T)


def stable_hom(m: Mod, n: Mod) -> tuple[int, list[MMap]]:
    """Hom(m, n) modulo projectives: dimension and representative basis."""
    _require_self_injective(m.alg)
    p = m.alg.p
    if m.dim == 0 or n.dim == 0:
        return 0, []
    basis = _hom_basis(m, n)[0]
    if not len(basis):
        return 0, []
    through = _projective_factoring_subspace(m, n)
    # representatives: extend a basis of the factoring subspace by columns of
    # the full Hom space; the added columns represent a stable basis
    through_basis = column_space(through)
    dim_through = through_basis.cols
    combined = column_space(Mat(p, np.hstack([through_basis.a, basis.reshape(len(basis), -1).T])))
    reps = []
    for t in range(dim_through, combined.cols):
        reps.append(MMap(m, n, Mat(p, combined.a[:, t].reshape(n.dim, m.dim))))
    return len(reps), reps


def syzygy(m: Mod) -> Mod:
    """Kernel of the projective cover."""
    _require_self_injective(m.alg)
    return _cover_step(m)[1].src


def cosyzygy(m: Mod) -> Mod:
    """Cokernel of the injective envelope: the dual of the syzygy of D m over
    the opposite algebra."""
    _require_self_injective(m.alg)
    return dual_module(_cover_step(dual_module(m))[1].src, m.alg)


@dataclass(frozen=True)
class CompleteRes:
    """A windowed complete resolution: acyclic, projective components, and a
    verified isomorphism Z^0 = ker(d^0) onto the module."""

    module: Mod
    window: tuple[int, int]
    cx: Cx
    z0_iso: MMap  # from ker(d^0) submodule onto the module


@functools.lru_cache(maxsize=256)
def complete_resolution(m: Mod, window: tuple[int, int] = (-4, 4)) -> CompleteRes:
    """Splice a projective resolution of m against an injective one,
    P_0(m) ->> m >-> I^0(m), across the window.

    Degrees lo..-1 hold the covers of the syzygies of m; degrees 0..hi hold
    the injective resolution, the transpose of the covers of D m over the
    opposite algebra.  ``z0`` verifies projective components and interior
    acyclicity, and Z^0 is certified isomorphic to m.  Results are cached per
    (module, window).
    """
    _require_self_injective(m.alg)
    lo, hi = window
    if lo > -2 or hi < 2:
        raise ValueError("window must span at least two degrees on each side")
    for piece, _, _ in decompose_with_maps(m):
        if is_projective(piece):
            raise ValidationError(
                "module has a projective summand; complete resolutions need none",
                witness=piece,
            )
    cx = _splice(m, lo, hi) if m.dim else zero_complex(m.alg)  # the chains of 0 stop at once
    iso = is_isomorphic(z0(cx), m)
    if iso is None:
        raise ValidationError("Z^0 of the spliced complex is not the module")
    return CompleteRes(module=m, window=window, cx=cx, z0_iso=iso)


def _splice(m: Mod, lo: int, hi: int) -> Cx:
    """The covers P_k(m) of the syzygies of m in degrees lo..-1 (P_k in degree
    -1-k), then the injective resolution of m, the duals D P_k(D m) of the
    covers for D m over the opposite algebra, in degrees 0..hi (D P_k in
    degree k), joined by P_0(m) ->> m >-> D P_0(D m)."""
    left = _cover_chain(m, -lo)
    pobjects, pdiffs = _projective_side(left)
    iobjects, idiffs, envelope = _dual_side(m, _cover_chain(dual_module(m), hi + 1))
    return make_complex(m.alg, lo, pobjects + iobjects, pdiffs + [envelope @ left[0][0]] + idiffs)


def z0(x: Cx) -> Mod:
    """ker(d^0) of an acyclic complex of projectives, with inherited action.

    Validates projectivity of the components and interior acyclicity: since
    d o d = 0 (checked by ``make_complex``), X is exact at n exactly when
    rank d^(n-1) + rank d^n = dim X^n.
    """
    for n in x.degrees():
        if not is_projective(x.obj(n)):
            raise ValidationError(f"component in degree {n} is not projective")
    ranks = {n: rank(x.diff(n).mat) for n in range(x.lo, x.hi)}
    for n in range(x.lo + 1, x.hi):
        if ranks[n - 1] + ranks[n] != x.obj(n).dim:
            raise ValidationError(f"complex not acyclic at interior degree {n}")
    zmod, _ = submodule(x.obj(0), kernel_basis(x.diff(0).mat))
    return zmod


def _interior_h0(x: Cx, y: Cx) -> int:
    """Chain maps x -> y modulo homotopy, compared only on interior degrees.

    Truncating a two-sided acyclic complex creates one spurious homotopy
    class supported at the window boundary; restricting both the chain maps
    (ker D^0) and the boundaries (the image of D^(-1)) to the rows of the
    interior source degrees of Hom^0 removes it.  Hom coordinates are
    injective in each degree, so these ranks are those of the restricted maps.
    """
    lo = max(x.lo, y.lo) + 1
    hi = min(x.hi, y.hi) - 1
    if lo > hi:
        raise ValidationError("window too small: empty interior")
    stacks, dmats = _hom_window(x, y, -1, 1)
    interior = [t for i, b in _blocks(stacks[0]).items() if lo <= i <= hi for t in range(b.start, b.stop)]
    cocycles = kernel_basis(dmats[0])
    return rank(Mat(x.alg.p, cocycles.a[interior])) - rank(Mat(x.alg.p, dmats[-1].a[interior]))


def stable_hom_via_cr(m: Mod, n: Mod, window: tuple[int, int] = (-4, 4)) -> int:
    """Stable Hom dimension as H^0 of the Hom complex of complete resolutions,
    computed on the window interior.

    Recomputed on the widened window as a stability guard; the two values
    must agree (and match ``stable_hom``).  The wide resolutions reuse the
    cached covers of the narrow ones and take at most four new ones per module.
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
    """Indecomposables of the stable category of a self-injective algebra: the
    certified classification (``classify_indecomposables``) minus the
    projectives.  Raises GuardError when the algebra is not self-injective."""
    _require_self_injective(alg)
    return [m for m in classify_indecomposables(alg) if not is_projective(m)]


def stable_ar_quiver(alg: Alg) -> Quiver:
    """AR quiver of the stable category: ``ar_quiver`` without its projective
    vertices, the others renumbered in classification order.

    Between non-projective indecomposables X, Y of a self-injective algebra a
    map through a projective P splits as X -> P -> Y with both factors
    radical, so it lies in rad^2(X, Y) already; dim rad/(rad^2 + projectives)
    of the stable Hom is then the arrow count of the module category, which
    ``ar_quiver`` reads from the knitting (Auslander-Reiten-Smalo 1995,
    Ch. X).  Raises GuardError when the algebra is not self-injective.
    """
    _require_self_injective(alg)
    quiver = ar_quiver(alg)
    ind = classify_indecomposables(alg)
    kept = {i: k for k, i in enumerate(i for i, m in enumerate(ind) if not is_projective(m))}
    return Quiver(
        vertices=tuple(quiver.vertices[i] for i in kept),
        arrows=tuple((kept[i], kept[j], mult) for i, j, mult in quiver.arrows if i in kept and j in kept),
    )
