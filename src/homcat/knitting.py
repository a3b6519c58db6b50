"""Auslander-Reiten theory: the transpose, tau and tau^-1, almost split
sequences, and the certified knitting closure: the vertices behind
``modules.classify_indecomposables`` and the arrows behind ``modules.ar_quiver``.

The knitting computes each tau-edge once: tau and tau^-1 are inverse
bijections between the non-projective and the non-injective indecomposables
(Auslander-Reiten-Smalo 1995, Ch. IV), so a vertex whose tau or tau^-1 was
found from the other end reuses that vertex instead of a second transpose.

Loaded on the first classification rather than with ``homcat.modules``, so
work that never classifies does not load it.  The functions that
``benchmarks/tracer.py`` wraps (``decompose_with_maps``, ``kernel_basis``,
``solve``) are called through their modules: a tracer installed before this
module loads wraps the module attributes, not names bound here.  Hom bases
and End radicals are read as stacks (``modules._hom_basis``,
``local_end_radical``), isomorphism classes through ``modules._first_iso``.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

from homcat import linalg, modules
from homcat.algebras import Alg, _peirce_ops, opposite
from homcat.errors import CapExhausted, GuardError, ValidationError
from homcat.linalg import Mat, rank
from homcat.modules import (
    MMap,
    Mod,
    _cover_step,
    _first_iso,
    _hom_basis,
    _require_split_basic,
    direct_sum,
    dual_module,
    hom_coords,
    local_end_radical,
    make_module,
    projective_module,
    quotient_module,
    radical_submodule,
    regular_module,
    socle,
    submodule,
    zero_module,
)

__all__ = ["transpose_module", "ar_translate", "ar_translate_inverse", "almost_split_sequence", "knit"]


# Caps of the knitting closure: past them the algebra may be representation
# infinite (the closure from the projectives of the Kronecker algebra grows by
# one dimension per step), and the classifier refuses instead of running on.
_KNIT_MAX_VERTICES = 256
_KNIT_DIM_FACTOR = 2  # an indecomposable may have at most this times dim A


@functools.lru_cache(maxsize=256)
def _dual_projective(pmod: Mod) -> tuple[Mod, np.ndarray]:
    """P* = Hom_A(P, A) as a right module over opposite(A), and its Hom basis stack.

    b acts on phi by left multiplication, phi |-> b * phi, read back in that
    basis by ``hom_coords``.  Cached per
    projective: the presentations of tau and tau^-1 meet few distinct ones.
    """
    alg, p = pmod.alg, pmod.alg.p
    reg = regular_module(alg)
    phis = _hom_basis(pmod, reg)[0]
    left = alg.structconst.transpose(0, 2, 1)  # left[i] is the matrix of a |-> b_i * a
    prods = np.einsum("iab,tbc->itac", left, phis) % p
    coords = hom_coords(pmod, reg, prods.reshape(-1, alg.dim, pmod.dim)).reshape(alg.dim, len(phis), len(phis))
    return make_module(opposite(alg), [Mat._reduced(p, c.T.copy()) for c in coords]), phis


def transpose_module(m: Mod) -> Mod:
    """Auslander-Bridger transpose Tr m, a right module over opposite(m.alg).

    From the minimal projective presentation P1 -> P0 -> m -> 0, Tr m is the
    cokernel of the induced map P0* -> P1* (phi |-> phi o f).  It is zero
    exactly when m is projective; tau = D Tr and tau^-1 = Tr D.
    """
    p = m.alg.p
    epi, inc = _cover_step(m)
    if inc.src.dim == 0:  # Omega m = 0: m is projective
        return zero_module(opposite(m.alg))
    epi1, _ = _cover_step(inc.src)
    p0, p1 = epi.src, epi1.src
    f = (inc @ epi1).mat.a
    p0_star, phis = _dual_projective(p0)
    p1_star, _ = _dual_projective(p1)
    pulled = hom_coords(p1, regular_module(m.alg), phis @ f % p)
    f_star = MMap(p0_star, p1_star, Mat._reduced(p, pulled.T.copy()))
    return quotient_module(p1_star, f_star.mat)[0]


def ar_translate(m: Mod) -> Mod:
    """tau m = D Tr m; zero exactly when m is projective."""
    return dual_module(transpose_module(m))


def ar_translate_inverse(m: Mod) -> Mod:
    """tau^-1 m = Tr D m; zero exactly when m is injective."""
    return transpose_module(dual_module(m))


def almost_split_sequence(x: Mod, *, z: Mod | None = None) -> tuple[MMap, MMap] | None:
    """The almost split sequence 0 -> x -> E -> z -> 0 starting at an
    indecomposable x, with z = tau^-1 x; None when x is injective (z = 0).

    ``z`` may pass a module isomorphic to tau^-1 x, which the sequence then
    ends at instead of a transpose computed here; None computes tau^-1 x.
    The isomorphism is the caller's to know and is not checked here: the
    knitting passes the vertex k whose tau it certified isomorphic to x,
    and tau^-1 tau of a non-projective indecomposable is itself.  Every
    certificate below is checked either way.

    E is the pushout of 0 -> Omega z -> P0(z) -> z -> 0 along a map
    eta: Omega z -> x spanning the socle of Ext^1(z, x) = Hom(Omega z, x) /
    (maps through P0(z)) under post-composition by rad End(x): eta is
    nonzero in Ext^1 and rad End(x) o eta lies in the coboundaries.  For a
    split local End(x) that socle is one-dimensional; a larger one raises
    GuardError, as does a non-split End(x) (``local_end_radical``).  Every
    certificate is checked on the result: eta nonzero, eta in the socle, and
    the sequence exact with dim E = dim x + dim z.
    """
    p = x.alg.p
    if z is None:
        z = ar_translate_inverse(x)
    if z.dim == 0:
        return None
    epi, inc = _cover_step(z)
    p0, omega = epi.src, inc.src
    maps = _hom_basis(omega, x)[0]
    d = len(maps)
    # the composites read by hom_coords below are module maps by construction
    cobound = Mat(p, hom_coords(omega, x, _hom_basis(p0, x)[0] @ inc.mat.a % p).T)
    # v lies in the coboundaries iff annihilator @ v = 0
    annihilator = linalg.kernel_basis(cobound.transpose()).transpose()
    rad = [hom_coords(omega, x, s @ maps % p) for s in local_end_radical(x)]
    conditions = Mat(p, np.vstack([(annihilator.a @ r.T) % p for r in rad] + [np.zeros((0, d), dtype=np.int64)]))
    socle_span = linalg.kernel_basis(conditions)
    socle_dim = socle_span.cols - rank(cobound)
    if socle_dim != 1:
        if socle_dim > 1:
            raise GuardError(f"socle of Ext^1(tau^-1 X, X) has dimension {socle_dim} > 1")
        raise ValidationError("internal inconsistency: Ext^1(tau^-1 X, X) has zero socle")
    # eta: a socle vector outside the coboundaries, i.e. nonzero in Ext^1
    eta = next(socle_span.a[:, t] for t in range(socle_span.cols) if (annihilator.a @ socle_span.a[:, t] % p).any())
    if (conditions.a @ eta % p).any():  # certificate: eta lies in the socle
        raise ValidationError("internal inconsistency: eta is not in the socle")
    eta_map = Mat._reduced(p, np.tensordot(eta, maps, axes=1) % p)
    xp, (incl_x, incl_p), (_, proj_p) = direct_sum([x, p0])
    pushed = MMap(omega, xp, incl_x.mat @ eta_map - incl_p.mat @ inc.mat)
    e, quot = quotient_module(xp, pushed.mat)
    onto = linalg.solve(quot.mat.transpose(), (epi.mat @ proj_p.mat).transpose())
    if onto is None:
        raise ValidationError("internal inconsistency: the pushout does not map onto z")
    left, right = quot @ incl_x, MMap(e, z, onto.transpose())
    if not (right @ left).is_zero() or rank(left.mat) != x.dim or rank(right.mat) != z.dim or e.dim != x.dim + z.dim:
        raise ValidationError("internal inconsistency: the almost split sequence is not exact")
    return left, right


def _peirce_connected(alg: Alg) -> bool:
    """Whether the graph on the idempotents, with i - j where e_i A e_j or e_j A e_i is nonzero, is connected."""
    slices = _peirce_ops(alg).any(axis=(2, 3))  # slices[i, j]: e_i A e_j is nonzero
    linked = slices | slices.T
    seen = np.eye(len(linked), dtype=bool)[0]
    for _ in linked:  # after k rounds, seen holds every vertex within k steps of vertex 0
        seen = seen | linked[seen].any(axis=0)
    return bool(seen.all())


@functools.lru_cache(maxsize=64)
def knit(alg: Alg) -> tuple[list[Mod], tuple[tuple[int, int, int], ...]]:
    """The certified knitting closure and its arrows (i, j, multiplicity) in
    the sorted vertex order, computed once per algebra: the vertices of
    ``modules.classify_indecomposables`` and the arrows of ``modules.ar_quiver``,
    which document them.

    Each vertex x adds tau x (or rad x for a projective), and tau^-1 x with the
    middle term of the almost split sequence starting at x (or x / soc x for
    an injective).  The tau-partners are recorded as they are found: tau x
    landing on vertex k makes x the tau^-1 of vertex k, passed as ``z`` to
    ``almost_split_sequence`` when k is walked, and tau^-1 x landing on vertex
    k makes k's tau known, so k computes no tau.  A knit of N vertices, I of
    them injective, makes N + I transposes rather than 2N, and the skipped
    additions were hits on vertices already certified isomorphic.
    """
    _require_split_basic(alg)
    if not _peirce_connected(alg):
        raise GuardError("classification needs a connected algebra (Auslander's theorem)")
    projs = [projective_module(alg, j) for j in range(len(alg.idempotents))]
    max_dim = _KNIT_DIM_FACTOR * alg.dim
    found: list[Mod] = []
    buckets: dict[tuple, list[int]] = {}

    def _add(m: Mod) -> list[int]:
        """Keep the new summands of m as vertices; the vertex of every summand, repeated by multiplicity."""
        hits = []
        for piece, _, _ in modules.decompose_with_maps(m):
            bucket = buckets.setdefault((piece.dim, piece.dim_vector()), [])
            j = _first_iso(piece, [found[k] for k in bucket])
            if j is None:
                if piece.dim > max_dim or len(found) == _KNIT_MAX_VERTICES:
                    raise CapExhausted(
                        f"knitting cap reached ({len(found)} vertices, a summand of dimension {piece.dim}, "
                        f"caps {_KNIT_MAX_VERTICES} and {max_dim}): the algebra may be representation infinite",
                        leftover=piece,
                    )
                j = len(bucket)
                bucket.append(len(found))
                found.append(piece)
            hits.append(bucket[j])
        return hits

    for pm in projs:
        _add(pm)
    arrows: collections.Counter = collections.Counter()
    # each tau-edge is computed from whichever end is walked first
    inverse_of: dict[int, Mod] = {}  # vertex -> a vertex isomorphic to its tau^-1
    tau_known: set[int] = set()  # vertices whose tau is a vertex already
    for i, x in enumerate(found):  # grows while it is walked: every vertex is processed once
        if i not in tau_known:
            tau = ar_translate(x)
            if tau.dim:
                inverse_of.update((k, x) for k in _add(tau))
            else:
                _add(submodule(x, radical_submodule(x))[0])
        seq = almost_split_sequence(x, z=inverse_of.get(i))
        if seq is None:
            local_end_radical(x)  # End(x) split local, or GuardError
            targets = _add(quotient_module(x, socle(x)[1].mat)[0])
        else:
            if i not in inverse_of:
                tau_known.update(_add(seq[1].dst))
            targets = _add(seq[0].dst)  # the middle term
        arrows.update((i, j) for j in targets)
    order = sorted(range(len(found)), key=lambda k: (found[k].dim, found[k].dim_vector(), found[k].key()))
    rank_of = {k: r for r, k in enumerate(order)}
    return [found[k] for k in order], tuple(sorted((rank_of[i], rank_of[j], n) for (i, j), n in arrows.items()))
