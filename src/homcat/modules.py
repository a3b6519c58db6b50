"""The abelian category of finite-dimensional right modules over an algebra.

A module is a tuple of action matrices, one per algebra basis element, acting
on column coordinates.  Because the algebra acts on the right, composition
reads in right-action order: the law checked at construction is

    action[j] @ action[i] == sum_k c[i][j][k] action[k]

(apply b_i first, then b_j, to realize b_i * b_j).  Module homomorphisms are
matrices commuting with every action matrix; all downstream functors (Hom,
kernels, covers, envelopes, decompositions, quivers) are linear algebra over
these matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from homcat.algebras import Alg, algebra_generators, opposite, preset
from homcat.errors import GuardError, ValidationError
from homcat.linalg import (
    Mat,
    block_diag,
    column_space,
    hstack,
    in_column_span,
    inverse,
    is_nilpotent,
    kernel_basis,
    quotient_structure,
    rank,
    solve,
    span_key,
)
from homcat.quivers import Quiver

__all__ = [
    "Mod",
    "MMap",
    "make_module",
    "zero_module",
    "regular_module",
    "projective_module",
    "simple_module",
    "hom_space",
    "kci",
    "direct_sum",
    "top",
    "socle",
    "radical_submodule",
    "projective_cover",
    "dual_module",
    "injective_envelope",
    "is_isomorphic",
    "decompose",
    "decompose_with_maps",
    "classify_indecomposables",
    "known_indecomposables",
    "ar_quiver",
    "submodule",
    "quotient_module",
]


@dataclass(frozen=True, eq=False)
class Mod:
    """A validated right module: one action matrix per algebra basis element."""

    alg: Alg
    dim: int
    action: tuple[Mat, ...]

    def rho(self, x: np.ndarray) -> Mat:
        """Action matrix of the algebra element with coordinates x."""
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for i, xi in enumerate(np.mod(x, self.alg.p)):
            if xi:
                out = out + xi * self.action[i].a
        return Mat(self.alg.p, out)

    def dim_vector(self) -> tuple[int, ...]:
        """Dimensions of the slices M e_j over the designated idempotents."""
        return tuple(rank(self.rho(e)) for e in self.alg.idempotents)

    def key(self) -> bytes:
        return b"".join(m.key() for m in self.action) or b"0"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mod)
            and self.alg == other.alg
            and self.dim == other.dim
            and self.action == other.action
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.key()))

    def __repr__(self) -> str:
        return f"Mod(dim={self.dim} over {self.alg.name})"


@dataclass(frozen=True, eq=False)
class MMap:
    """A module homomorphism src -> dst, stored as a dst.dim x src.dim matrix."""

    src: Mod
    dst: Mod
    mat: Mat

    def __post_init__(self):
        if self.mat.shape != (self.dst.dim, self.src.dim):
            raise ValidationError(
                f"homomorphism matrix has shape {self.mat.shape}, expected "
                f"{(self.dst.dim, self.src.dim)}"
            )
        for i in range(self.src.alg.dim):
            if self.mat @ self.src.action[i] != self.dst.action[i] @ self.mat:
                raise ValidationError(
                    f"matrix does not commute with the action of basis element {i}",
                    witness=i,
                )

    def __matmul__(self, other: "MMap") -> "MMap":
        if other.dst != self.src:
            raise ValidationError("composition endpoint mismatch")
        return MMap(other.src, self.dst, self.mat @ other.mat)

    def __add__(self, other: "MMap") -> "MMap":
        return MMap(self.src, self.dst, self.mat + other.mat)

    def __sub__(self, other: "MMap") -> "MMap":
        return MMap(self.src, self.dst, self.mat - other.mat)

    def __neg__(self) -> "MMap":
        return MMap(self.src, self.dst, -self.mat)

    def scale(self, k: int) -> "MMap":
        return MMap(self.src, self.dst, self.mat.scale(k))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MMap)
            and self.src == other.src
            and self.dst == other.dst
            and self.mat == other.mat
        )

    def __hash__(self) -> int:
        return hash(self.mat)

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    @staticmethod
    def identity(m: Mod) -> "MMap":
        return MMap(m, m, Mat.identity(m.alg.p, m.dim))

    @staticmethod
    def zero(src: Mod, dst: Mod) -> "MMap":
        return MMap(src, dst, Mat.zeros(src.alg.p, dst.dim, src.dim))


# -- constructors --------------------------------------------------------------


def make_module(alg: Alg, action) -> Mod:
    """Validate the right-module law and the unit axiom; report the witness pair."""
    mats = tuple(m if isinstance(m, Mat) else Mat(alg.p, m) for m in action)
    if len(mats) != alg.dim:
        raise ValidationError(f"need {alg.dim} action matrices, got {len(mats)}")
    dims = {m.shape for m in mats}
    if len(dims) > 1:
        raise ValidationError("action matrices have mixed shapes")
    n = mats[0].rows if mats else 0
    if mats and mats[0].cols != n:
        raise ValidationError("action matrices must be square")
    mod = Mod(alg=alg, dim=n, action=mats)
    if n > 0:
        stacked = np.stack([m.a for m in mats])  # (algdim, n, n)
        got = np.einsum("jab,ibc->ijac", stacked, stacked) % alg.p
        want = np.einsum("ijk,kab->ijab", alg.structconst, stacked) % alg.p
        if not np.array_equal(got, want):
            bad = np.argwhere((got - want) % alg.p != 0)[0]
            raise ValidationError(
                f"action incompatible with structure constants at pair "
                f"({int(bad[0])}, {int(bad[1])})",
                witness=(int(bad[0]), int(bad[1])),
            )
    if mod.rho(alg.unit) != Mat.identity(alg.p, n):
        raise ValidationError("unit does not act as the identity")
    return mod


def zero_module(alg: Alg) -> Mod:
    return make_module(alg, [Mat.zeros(alg.p, 0, 0)] * alg.dim)


def regular_module(alg: Alg) -> Mod:
    """The algebra acting on itself by right multiplication."""
    return make_module(alg, [alg.right_mult(alg.basis_vector(i)) for i in range(alg.dim)])


def _restricted_action(m: Mod, basis: Mat) -> list[Mat]:
    """Action matrices on a submodule given by a column basis; raises if the
    span is not invariant."""
    if basis.cols == 0:
        return [Mat.zeros(m.alg.p, 0, 0)] * m.alg.dim
    stacked = solve(basis, hstack([m.action[i] @ basis for i in range(m.alg.dim)]))
    if stacked is None:
        raise ValidationError("column span is not invariant under the action")
    k = basis.cols
    return [Mat(m.alg.p, stacked.a[:, i * k : (i + 1) * k]) for i in range(m.alg.dim)]


def submodule(m: Mod, basis: Mat) -> tuple[Mod, MMap]:
    """Submodule on a column span, with its inclusion."""
    b = column_space(basis)
    sub = make_module(m.alg, _restricted_action(m, b))
    return sub, MMap(sub, m, b)


def quotient_module(m: Mod, sub_basis: Mat) -> tuple[Mod, MMap]:
    """Quotient by an invariant column span, with its projection."""
    proj, sec = quotient_structure(m.dim, sub_basis)
    mats = [proj @ m.action[i] @ sec for i in range(m.alg.dim)]
    quot = make_module(m.alg, mats)
    return quot, MMap(m, quot, proj)


def projective_module(alg: Alg, j: int) -> Mod:
    """The right ideal e_j * A inside the regular module."""
    reg = regular_module(alg)
    basis = column_space(alg.left_mult(alg.idempotents[j]))
    sub, _ = submodule(reg, basis)
    return sub


def _projective_with_inclusion(alg: Alg, j: int) -> tuple[Mod, Mat]:
    reg = regular_module(alg)
    basis = column_space(alg.left_mult(alg.idempotents[j]))
    sub, inc = submodule(reg, basis)
    return sub, inc.mat


def simple_module(alg: Alg, j: int) -> Mod:
    """Top of the j-th indecomposable projective."""
    t, _ = top(projective_module(alg, j))
    return t


# -- hom spaces ----------------------------------------------------------------


_HOM_CACHE: dict[tuple[Mod, Mod], tuple[MMap, ...]] = {}


def hom_space(m: Mod, n: Mod) -> list[MMap]:
    """Basis of Hom(m, n): solutions of F @ act_m(b) = act_n(b) @ F.

    It suffices to intertwine a verified generating set of the algebra; the
    commutant of the generators equals the commutant of the whole algebra.
    Results are cached (modules are immutable).
    """
    if m.alg != n.alg:
        raise ValidationError("hom_space between modules over different algebras")
    cached = _HOM_CACHE.get((m, n))
    if cached is not None:
        return list(cached)
    p = m.alg.p
    if m.dim == 0 or n.dim == 0:
        return []
    blocks = []
    eye_n = np.eye(n.dim, dtype=np.int64)
    eye_m = np.eye(m.dim, dtype=np.int64)
    for g in algebra_generators(m.alg):
        am = m.rho(g)
        an = n.rho(g)
        blocks.append(np.kron(eye_n, am.a.T) - np.kron(an.a, eye_m))
    system = Mat(p, np.vstack(blocks))
    basis = kernel_basis(system)
    out = []
    for t in range(basis.cols):
        f = basis.a[:, t].reshape(n.dim, m.dim)
        out.append(MMap(m, n, Mat(p, f)))
    _HOM_CACHE[(m, n)] = tuple(out)
    return out


def _vec(mats: list[Mat], p: int, nrows: int, ncols: int) -> Mat:
    """Row-major flattenings as columns (empty-safe)."""
    if not mats:
        return Mat.zeros(p, nrows * ncols, 0)
    return Mat(p, np.stack([m.a.reshape(-1) for m in mats], axis=1))


# -- kernels, cokernels, images -------------------------------------------------


def kci(f: MMap) -> tuple[tuple[Mod, MMap], tuple[Mod, MMap], tuple[Mod, MMap]]:
    """Kernel (with inclusion), cokernel (with projection), image (with inclusion)."""
    ker_basis = kernel_basis(f.mat)
    ker, ker_inc = submodule(f.src, ker_basis)
    img_basis = column_space(f.mat)
    img, img_inc = submodule(f.dst, img_basis)
    cok, cok_proj = quotient_module(f.dst, img_basis)
    assert ker.dim + img.dim == f.src.dim
    return (ker, ker_inc), (cok, cok_proj), (img, img_inc)


def direct_sum(mods: list[Mod], alg: Alg | None = None) -> tuple[Mod, list[MMap], list[MMap]]:
    """Biproduct with canonical injections and projections."""
    if not mods:
        if alg is None:
            raise ValidationError("direct_sum of an empty list needs the algebra")
        z = zero_module(alg)
        return z, [], []
    alg = mods[0].alg
    if any(m.alg != alg for m in mods):
        raise ValidationError("direct_sum over mixed algebras")
    p = alg.p
    mats = [block_diag([m.action[i] for m in mods], p) for i in range(alg.dim)]
    total = make_module(alg, mats)
    injections, projections = [], []
    offset = 0
    for m in mods:
        inj = np.zeros((total.dim, m.dim), dtype=np.int64)
        inj[offset : offset + m.dim, :] = np.eye(m.dim, dtype=np.int64)
        injections.append(MMap(m, total, Mat(p, inj)))
        projections.append(MMap(total, m, Mat(p, inj.T)))
        offset += m.dim
    return total, injections, projections


# -- top, socle, covers, envelopes ----------------------------------------------


def radical_submodule(m: Mod) -> Mat:
    """Column basis of m * rad(A)."""
    rad = m.alg.radical
    if rad.cols == 0 or m.dim == 0:
        return Mat.zeros(m.alg.p, m.dim, 0)
    cols = [m.rho(rad.a[:, t]).a for t in range(rad.cols)]
    return column_space(Mat(m.alg.p, np.hstack(cols)))


def top(m: Mod) -> tuple[Mod, MMap]:
    """Largest semisimple quotient m / m*rad, with the quotient map."""
    return quotient_module(m, radical_submodule(m))


def socle(m: Mod) -> tuple[Mod, MMap]:
    """Largest semisimple submodule {x : x * rad = 0}, with its inclusion."""
    rad = m.alg.radical
    if rad.cols == 0 or m.dim == 0:
        return submodule(m, Mat.identity(m.alg.p, m.dim))
    stacked = Mat(m.alg.p, np.vstack([m.rho(rad.a[:, t]).a for t in range(rad.cols)]))
    return submodule(m, kernel_basis(stacked))


def projective_cover(m: Mod) -> tuple[Mod, MMap]:
    """Minimal projective surjection onto m.

    Lifts a basis of top(m), one generator per idempotent slice, and maps the
    corresponding projectives e_j * A by right multiplication.  Surjectivity
    and minimality (kernel inside P * rad) are verified.
    """
    alg = m.alg
    if m.dim == 0:
        z = zero_module(alg)
        return z, MMap.zero(z, m)
    t, q = top(m)
    pieces: list[Mod] = []
    columns: list[np.ndarray] = []
    for j, e in enumerate(alg.idempotents):
        slice_basis = column_space(t.rho(e))
        if slice_basis.cols == 0:
            continue
        pj, pj_basis = _projective_with_inclusion(alg, j)
        for s in range(slice_basis.cols):
            target = Mat.column(alg.p, slice_basis.a[:, s])
            w = solve(q.mat, target)
            if w is None:  # q is onto by construction
                raise ValidationError("internal inconsistency: top lift unsolvable")
            v = m.rho(e) @ w  # generator inside m * e_j
            # map the projective basis element with algebra coordinates beta
            # to v * beta
            for b in range(pj.dim):
                beta = pj_basis.a[:, b]
                columns.append((m.rho(beta) @ v).a[:, 0])
            pieces.append(pj)
    total, _, _ = direct_sum(pieces, alg)
    epi_mat = Mat(alg.p, np.stack(columns, axis=1) if columns else np.zeros((m.dim, 0), dtype=np.int64))
    epi = MMap(total, m, epi_mat)
    if rank(epi.mat) != m.dim:
        raise ValidationError("internal inconsistency: cover map not surjective")
    ker = kernel_basis(epi.mat)
    if ker.cols and not in_column_span(radical_submodule(total), ker):
        raise ValidationError("internal inconsistency: cover not minimal")
    return total, epi


def dual_module(m: Mod, target_alg: Alg | None = None) -> Mod:
    """Linear dual as a right module over the opposite algebra."""
    aop = opposite(m.alg) if target_alg is None else target_alg
    return make_module(aop, [a.transpose() for a in m.action])


def injective_envelope(m: Mod) -> tuple[Mod, MMap]:
    """Minimal injective extension, computed by duality:

    dualize to a module over the opposite algebra, take its projective cover,
    and dualize back.  The dual of the cover epi is the validated embedding.
    """
    alg = m.alg
    if m.dim == 0:
        z = zero_module(alg)
        return z, MMap.zero(m, z)
    md = dual_module(m)
    cover, epi = projective_cover(md)
    env = make_module(alg, [a.transpose() for a in cover.action])
    mono = MMap(m, env, epi.mat.transpose())
    if kernel_basis(mono.mat).cols != 0:
        raise ValidationError("internal inconsistency: envelope map not injective")
    return env, mono


# -- isomorphism testing ---------------------------------------------------------


def _rank_arr(a: np.ndarray, p: int) -> int:
    from homcat.linalg import _rref_array

    return len(_rref_array(a.copy(), p)[1])


def _invertible_arr(a: np.ndarray, p: int) -> bool:
    return a.shape[0] == a.shape[1] and _rank_arr(a, p) == a.shape[0]


def _nilpotent_arr(a: np.ndarray, p: int) -> bool:
    n = a.shape[0]
    if n == 0:
        return True
    x = a % p
    e = 1
    while e < n:
        x = (x @ x) % p
        e *= 2
    return not x.any()


def _combine_arr(mats: list[np.ndarray], coeffs, p: int) -> np.ndarray:
    out = np.zeros(mats[0].shape, dtype=np.int64)
    for c, f in zip(coeffs, mats):
        if c:
            out = out + int(c) * f
    return out % p


def _invertible_combination(basis: list[MMap], seed: int = 0) -> MMap | None:
    """Deterministic sweep for an invertible combination of hom-basis maps:
    basis elements, a greedy rank-increasing accumulation, exhaustive
    enumeration over small fields, then seeded random draws."""
    if not basis:
        return None
    p = basis[0].mat.p
    n = basis[0].mat.rows
    src, dst = basis[0].src, basis[0].dst
    mats = [f.mat.a for f in basis]

    def _found(a: np.ndarray) -> MMap:
        return MMap(src, dst, Mat(p, a))

    for a in mats:
        if _invertible_arr(a, p):
            return _found(a)
    acc = np.zeros((n, n), dtype=np.int64)
    best = 0
    for a in mats:
        cand = (acc + a) % p
        r = _rank_arr(cand, p)
        if r > best:
            acc, best = cand, r
    if best == n:
        return _found(acc)
    if p ** len(basis) <= 3**12:
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            if not any(coeffs):
                continue
            cand = _combine_arr(mats, coeffs, p)
            if _invertible_arr(cand, p):
                return _found(cand)
        return None
    rng = np.random.default_rng(seed)
    for _ in range(200):
        coeffs = rng.integers(0, p, size=len(basis))
        if coeffs.any() and _invertible_arr(_combine_arr(mats, coeffs, p), p):
            return _found(_combine_arr(mats, coeffs, p))
    return None


def is_isomorphic(m: Mod, n: Mod) -> MMap | None:
    """A verified isomorphism m -> n, or None.

    Soundness is unconditional (any returned map is invertible and
    intertwines); the search over combinations is exhaustive over small
    fields and randomized with a fixed seed over large ones.
    """
    if m.alg != n.alg or m.dim != n.dim:
        return None
    if m.dim == 0:
        return MMap.zero(m, n)
    if m.dim_vector() != n.dim_vector():
        return None
    return _invertible_combination(hom_space(m, n))


# -- Krull-Schmidt decomposition -------------------------------------------------


def _endo_candidates(mats: list[np.ndarray], p: int, seed: int = 0):
    """Candidate endomorphism matrices for Fitting splits, deterministic order:
    the basis, eigenvalue shifts of the basis, pairwise sums/differences, then
    an exhaustive (small field) or seeded random coefficient sweep."""
    for a in mats:
        yield a
    n = mats[0].shape[0]
    eye = np.eye(n, dtype=np.int64)
    for a in mats:
        for lam in range(1, p):
            yield (a - lam * eye) % p
    for a, b in itertools.combinations(mats, 2):
        yield (a + b) % p
        yield (a - b) % p
    if p ** len(mats) <= 3**9:
        for coeffs in itertools.product(range(p), repeat=len(mats)):
            if any(coeffs):
                yield _combine_arr(mats, coeffs, p)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(150):
            coeffs = rng.integers(0, p, size=len(mats))
            if coeffs.any():
                yield _combine_arr(mats, coeffs, p)


def _splitting_endo(m: Mod, basis: list[MMap], seed: int = 0) -> MMap | None:
    """An endomorphism that is neither nilpotent nor invertible, if found."""
    p = m.alg.p
    mats = [f.mat.a for f in basis]
    for a in _endo_candidates(mats, p, seed):
        if _nilpotent_arr(a, p):
            continue
        if not _invertible_arr(a, p):
            return MMap(m, m, Mat(p, a))
    return None


def decompose_with_maps(m: Mod, seed: int = 0) -> list[tuple[Mod, MMap, MMap]]:
    """Indecomposable summands with inclusion/projection maps.

    Splits along Fitting decompositions ker(f^N) + im(f^N) of non-nilpotent
    non-invertible endomorphisms; a summand is declared indecomposable when
    the candidate sweep (exhaustive over small fields) finds no such
    endomorphism.
    """
    if m.dim == 0:
        return []
    basis = hom_space(m, m)
    f = _splitting_endo(m, basis, seed)
    if f is None:
        return [(m, MMap.identity(m), MMap.identity(m))]
    power = f.mat.power(1 << (m.dim.bit_length()))
    ker = kernel_basis(power)
    img = column_space(power)
    u = hstack([ker, img])
    u_inv = inverse(u)
    if ker.cols == 0 or img.cols == 0 or u_inv is None:
        raise ValidationError("internal inconsistency: Fitting split failed")
    out: list[tuple[Mod, MMap, MMap]] = []
    offset = 0
    for basis_mat in (ker, img):
        part, inc = submodule(m, basis_mat)
        proj = MMap(m, part, Mat(m.alg.p, u_inv.a[offset : offset + part.dim, :]))
        offset += part.dim
        for piece, pinc, pproj in decompose_with_maps(part, seed):
            out.append((piece, inc @ pinc, pproj @ proj))
    return out


def decompose(m: Mod, seed: int = 0) -> list[tuple[Mod, int]]:
    """Indecomposable summands grouped by isomorphism, with multiplicities."""
    parts = [piece for piece, _, _ in decompose_with_maps(m, seed)]
    parts.sort(key=lambda x: (x.dim, x.dim_vector(), x.key()))
    grouped: list[tuple[Mod, int]] = []
    for piece in parts:
        for i, (rep, mult) in enumerate(grouped):
            if is_isomorphic(rep, piece) is not None:
                grouped[i] = (rep, mult + 1)
                break
        else:
            grouped.append((piece, 1))
    return grouped


# -- classification of indecomposables -------------------------------------------


def _enumerate_submodule_spans(m: Mod) -> list[Mat]:
    """All submodules of m as canonical column bases (small fields only).

    Every submodule is a sum of cyclic ones, so we enumerate cyclic spans
    (one monic generator per line) and close under joins.
    """
    p = m.alg.p
    n = m.dim
    if n == 0:
        return [Mat.zeros(p, 0, 0)]
    stacked = np.stack([a.a for a in m.action])  # (algdim, n, n)
    cyclics: dict[bytes, Mat] = {}
    # monic vectors: first nonzero coordinate is 1
    for lead in range(n):
        tail = n - lead - 1
        for rest in itertools.product(range(p), repeat=tail):
            v = np.zeros(n, dtype=np.int64)
            v[lead] = 1
            v[lead + 1 :] = rest
            gens = (stacked @ v) % p  # (algdim, n)
            span = column_space(Mat(p, gens.T))
            cyclics.setdefault(span_key(span), span)
    cyclic_list = list(cyclics.values())
    zero = Mat.zeros(p, n, 0)
    found: dict[bytes, Mat] = {span_key(zero): zero}
    for c in cyclic_list:
        found.setdefault(span_key(c), c)
    queue = list(found.values())
    while queue:
        w = queue.pop()
        for c in cyclic_list:
            if c.cols == 0 or in_column_span(w, c):
                continue
            joined = column_space(hstack([w, c]))
            key = span_key(joined)
            if key not in found:
                found[key] = joined
                queue.append(joined)
    return list(found.values())


def _pir_pair_spans(alg: Alg, total: Mod) -> list[Mat]:
    """Submodules of R + R for R = k[T]/(T^n), by triangular generator pairs.

    Over this principal ideal ring every submodule is generated by (T^a, 0)
    and (c, T^b); enumerating (a, b, c) and deduplicating spans is complete
    and avoids the generic cyclic-join search.
    """
    p = alg.p
    n = alg.dim
    stacked = np.stack([a.a for a in total.action])  # (algdim, 2n, 2n)
    found: dict[bytes, Mat] = {}
    zero = Mat.zeros(p, total.dim, 0)
    found[span_key(zero)] = zero

    def _record(u: np.ndarray, w: np.ndarray) -> None:
        gens = np.concatenate([(stacked @ u) % p, (stacked @ w) % p], axis=0)
        span = column_space(Mat(p, gens.T))
        found.setdefault(span_key(span), span)

    for a in range(n + 1):
        u = np.zeros(2 * n, dtype=np.int64)
        if a < n:
            u[a] = 1
        for b in range(n + 1):
            for coeffs in itertools.product(range(p), repeat=n):
                w = np.zeros(2 * n, dtype=np.int64)
                w[:n] = coeffs
                if b < n:
                    w[n + b] = 1
                _record(u, w)
    return list(found.values())


_PRESET_CACHE: dict = {}


def _preset_name_of(alg: Alg) -> str | None:
    candidates = ["lambda1", "lambda2", "lambda3", "ground_field", f"truncpoly({alg.dim})"]
    for name in candidates:
        try:
            if alg == preset(name, alg.p):
                return name
        except ValueError:
            continue
    return None


def _cheap_invariant(m: Mod) -> tuple:
    rad_series = []
    cur = Mat.identity(m.alg.p, m.dim)
    for _ in range(m.dim + 1):
        nxt = column_space(hstack([m.rho(m.alg.radical.a[:, t]) @ cur for t in range(m.alg.radical.cols)])) if m.alg.radical.cols and cur.cols else Mat.zeros(m.alg.p, m.dim, 0)
        rad_series.append(nxt.cols)
        if nxt.cols == 0:
            break
        cur = nxt
    return (m.dim, m.dim_vector(), tuple(rad_series), socle(m)[0].dim)


def classify_indecomposables(alg: Alg, seed: int = 0) -> list[Mod]:
    """Complete duplicate-free list of indecomposables, small fields only.

    Enumerates submodules of all pairwise sums of indecomposable projectives,
    takes the resulting submodules and quotients, decomposes everything, and
    deduplicates up to isomorphism.  Guarded to preset algebras at p in {2, 3};
    completeness is cross-checked against fixed counts in the acceptance suite.
    """
    name = _preset_name_of(alg)
    if name is None:
        raise GuardError("classification is guarded to preset algebras")
    if alg.p not in (2, 3):
        raise GuardError("classification enumerates subspaces; use p in {2, 3}")
    cache_key = (name, alg.p)
    if cache_key in _PRESET_CACHE:
        return _PRESET_CACHE[cache_key]
    projs = [projective_module(alg, j) for j in range(len(alg.idempotents))]
    candidates: dict[bytes, Mod] = {}

    def _add(mod: Mod) -> None:
        if mod.dim > 0:
            candidates.setdefault(mod.key(), mod)

    pir = name == "ground_field" or name.startswith("truncpoly")
    for i in range(len(projs)):
        for j in range(i, len(projs)):
            total, _, _ = direct_sum([projs[i], projs[j]])
            spans = _pir_pair_spans(alg, total) if pir else _enumerate_submodule_spans(total)
            for span in spans:
                if span.cols:
                    _add(submodule(total, span)[0])
                if span.cols < total.dim:
                    _add(quotient_module(total, span)[0])
    pieces: dict[bytes, Mod] = {}
    for mod in candidates.values():
        for piece, _, _ in decompose_with_maps(mod, seed):
            pieces.setdefault(piece.key(), piece)
    by_invariant: dict[tuple, list[Mod]] = {}
    for piece in sorted(pieces.values(), key=lambda x: (x.dim, x.dim_vector(), x.key())):
        bucket = by_invariant.setdefault(_cheap_invariant(piece), [])
        if all(is_isomorphic(rep, piece) is None for rep in bucket):
            bucket.append(piece)
    result = [m for bucket in by_invariant.values() for m in bucket]
    result.sort(key=lambda x: (x.dim, x.dim_vector(), x.key()))
    _PRESET_CACHE[cache_key] = result
    return result


def known_indecomposables(alg: Alg) -> list[Mod]:
    """Directly constructed indecomposable lists for the preset algebras.

    Works at any prime (no enumeration); used to exercise large-field checks
    and cross-checked against ``classify_indecomposables`` at p in {2, 3}.
    """
    name = _preset_name_of(alg)
    if name is None:
        raise GuardError("known indecomposables only available for presets")
    if name == "ground_field":
        return [simple_module(alg, 0)]
    if name.startswith("truncpoly"):
        reg = regular_module(alg)
        out = []
        for j in range(1, alg.dim + 1):
            # k[T]/(T^j) = regular / span(T^j, ..., T^(n-1))
            tail = np.zeros((alg.dim, alg.dim - j), dtype=np.int64)
            for t in range(alg.dim - j):
                tail[j + t, t] = 1
            out.append(quotient_module(reg, Mat(alg.p, tail))[0])
        out.sort(key=lambda x: (x.dim, x.dim_vector(), x.key()))
        return out
    if name in ("lambda1", "lambda3"):
        out = []
        for a in range(len(alg.idempotents)):
            pj = projective_module(alg, a)
            for keep in range(1, pj.dim + 1):
                # interval: quotient by the tail of the (ordered) ideal basis
                tail = np.zeros((pj.dim, pj.dim - keep), dtype=np.int64)
                for t in range(pj.dim - keep):
                    tail[keep + t, t] = 1
                out.append(quotient_module(pj, Mat(alg.p, tail))[0])
        out.sort(key=lambda x: (x.dim, x.dim_vector(), x.key()))
        return out
    if name == "lambda2":
        out = [simple_module(alg, j) for j in range(3)]
        out.append(projective_module(alg, 0))
        out.append(projective_module(alg, 2))
        out.append(injective_envelope(simple_module(alg, 1))[0])
        out.sort(key=lambda x: (x.dim, x.dim_vector(), x.key()))
        return out
    raise GuardError(f"no known list for preset {name}")


# -- AR quiver --------------------------------------------------------------------


def local_end_radical(m: Mod, basis: list[MMap] | None = None) -> list[MMap]:
    """Basis of the maximal ideal of a local endomorphism algebra.

    For each basis endomorphism g there is exactly one scalar lambda with
    g - lambda * id nilpotent (split local case); those differences span the
    radical.  Raises if some g has no such scalar.
    """
    if basis is None:
        basis = hom_space(m, m)
    p = m.alg.p
    eye = Mat.identity(p, m.dim)
    gens: list[Mat] = []
    for g in basis:
        for lam in range(p):
            cand = g.mat - eye.scale(lam)
            if is_nilpotent(cand):
                gens.append(cand)
                break
        else:
            raise ValidationError("endomorphism algebra is not split local")
    cols = _vec(gens, p, m.dim, m.dim)
    reduced = column_space(cols)
    return [MMap(m, m, Mat(p, reduced.a[:, t].reshape(m.dim, m.dim))) for t in range(reduced.cols)]


def _rad_hom_basis(ind: list[Mod], hom: dict, i: int, j: int) -> list[MMap]:
    """Basis of rad(X_i, X_j): all of Hom for distinct vertices, the maximal
    ideal of End for a vertex with itself."""
    if i == j:
        return local_end_radical(ind[i], hom[(i, i)])
    return hom[(i, j)]


def ar_quiver(alg: Alg, indecomposables: list[Mod] | None = None) -> Quiver:
    """Arrow multiplicities are dim rad(X,Y) / rad^2(X,Y) over the classified
    indecomposables, with rad^2 spanned by two-step composites."""
    ind = indecomposables if indecomposables is not None else classify_indecomposables(alg)
    return _quiver_from_rad(alg, ind, _rad_hom_basis_factory(ind))


def _rad_hom_basis_factory(ind: list[Mod]):
    hom = {}
    for i in range(len(ind)):
        for j in range(len(ind)):
            hom[(i, j)] = hom_space(ind[i], ind[j])
    def rad_basis(i: int, j: int) -> list[MMap]:
        return _rad_hom_basis(ind, hom, i, j)
    return rad_basis


def _quiver_from_rad(alg: Alg, ind: list[Mod], rad_basis) -> Quiver:
    p = alg.p
    n = len(ind)
    rad = {(i, j): rad_basis(i, j) for i in range(n) for j in range(n)}
    arrows = []
    for i in range(n):
        for j in range(n):
            target = ind[j]
            composites = []
            for z in range(n):
                for g in rad[(i, z)]:
                    for h in rad[(z, j)]:
                        composites.append((h @ g).mat)
            rad_vec = _vec([f.mat for f in rad[(i, j)]], p, target.dim, ind[i].dim)
            rad2_vec = _vec(composites, p, target.dim, ind[i].dim)
            # two-step composites always land inside rad, so the arrow count
            # is a plain rank difference
            mult = rank(rad_vec) - rank(rad2_vec)
            if mult > 0:
                arrows.append((i, j, mult))
    vertices = tuple(_vertex_label(m) for m in ind)
    return Quiver(vertices=vertices, arrows=tuple(arrows))


def _vertex_label(m: Mod) -> tuple[str, int]:
    dv = m.dim_vector()
    label = "m" + "".join(str(d) for d in dv)
    return (label, m.dim)
