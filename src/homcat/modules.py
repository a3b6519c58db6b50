"""The abelian category of finite-dimensional right modules over an algebra.

A module is one stacked array of action matrices, one per algebra basis
element, acting on column coordinates.  Because the algebra acts on the right,
composition reads in right-action order: the law checked at construction is

    action[j] @ action[i] == sum_k c[i][j][k] action[k]

(apply b_i first, then b_j, to realize b_i * b_j).  Module homomorphisms are
matrices commuting with every action matrix; all downstream functors (Hom,
kernels, covers, envelopes, decompositions, quivers) are linear algebra over
these matrices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from homcat.algebras import Alg, algebra_generators, opposite
from homcat.errors import GuardError, ValidationError
from homcat.linalg import (
    Mat,
    _rref_array,
    column_space,
    hstack,
    in_column_span,
    inverse,
    is_invertible,
    is_nilpotent,
    kernel_basis,
    quotient_structure,
    rank,
    rref,
    solve,
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
    "hom_coords",
    "kci",
    "direct_sum",
    "top",
    "socle",
    "radical_submodule",
    "projective_cover",
    "dual_module",
    "injective_envelope",
    "is_projective",
    "is_injective",
    "is_isomorphic",
    "decompose",
    "decompose_with_maps",
    "classify_indecomposables",
    "ar_quiver",
    "submodule",
    "quotient_module",
]


@dataclass(frozen=True, eq=False, slots=True)
class Mod:
    """A validated right module: the action of the algebra basis as one array.

    ``acts`` is a read-only (alg.dim, dim, dim) int64 array, acts[i] the matrix
    of basis element i; ``action`` gives the same matrices as ``Mat`` views of
    it.  Build modules with ``make_module``, which returns one shared object
    per (algebra object, action) while it stays in its bounded cache.
    Equality is structural: equal algebras and equal action arrays.
    """

    alg: Alg
    dim: int
    acts: np.ndarray
    _hash: int | None = field(default=None, init=False, repr=False)

    @property
    def action(self) -> tuple[Mat, ...]:
        """The action matrices, as read-only ``Mat`` views of ``acts``."""
        p = self.alg.p
        return tuple(Mat._reduced(p, a) for a in self.acts)

    def rho(self, x: np.ndarray) -> Mat:
        """Action matrix of the algebra element with coordinates x.

        One product with the flattened action array: alg.dim terms below
        p^2 <= 2^42 each, so the int64 sum cannot overflow before it is reduced.
        """
        p, n = self.alg.p, self.dim
        return Mat._reduced(p, (np.mod(x, p) @ self.acts.reshape(len(self.acts), n * n)).reshape(n, n) % p)

    def dim_vector(self) -> tuple[int, ...]:
        """Dimensions of the slices M e_j over the designated idempotents, computed once per module."""
        return _dim_vector(self)

    def key(self) -> bytes:
        """The ``Mat.key`` bytes of the action matrices, concatenated in basis order."""
        shape = self.dim.to_bytes(4, "little") * 2
        return b"".join(shape + a.tobytes() for a in self.acts) or b"0"

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Mod)
            and self.dim == other.dim
            and self.alg == other.alg
            and bool(np.array_equal(self.acts, other.acts))
        )

    def __hash__(self) -> int:
        # computed once, since every cache lookup hashes its modules; the key
        # bytes themselves are not kept, they would double each module's memory
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.dim, self.key())))
        return self._hash

    def __repr__(self) -> str:
        return f"Mod(dim={self.dim} over {self.alg.name})"


@functools.lru_cache(maxsize=256)
def _dim_vector(m: Mod) -> tuple[int, ...]:
    """``Mod.dim_vector``, computed once per module: one rank per idempotent."""
    return tuple(rank(m.rho(e)) for e in m.alg.idempotents)


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
        p = self.mat.p
        if p != self.src.alg.p or p != self.dst.alg.p:
            raise ValueError(f"mixed moduli {p} and {self.src.alg.p}, {self.dst.alg.p}")
        if self.mat.a.any():  # the zero map commutes with every action
            _check_commutes(self.src, self.dst, self.mat.a[None])

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


def _check_commutes(m: Mod, n: Mod, mats: np.ndarray) -> None:
    """Certify a stack of maps m -> n against every basis element's action at
    once; the witness is the first one the first bad matrix fails."""
    bad = ((mats[:, None] @ m.acts - n.acts @ mats[:, None]) % m.alg.p).any(axis=(2, 3))
    if bad.any():
        i = int(np.argmax(bad[np.argmax(bad.any(axis=1))]))
        raise ValidationError(f"matrix does not commute with the action of basis element {i}", witness=i)


# -- constructors --------------------------------------------------------------


def make_module(alg: Alg, action) -> Mod:
    """The validated module over ``alg`` with the given action matrices.

    ``action`` lists alg.dim square matrices (``Mat``s over alg.p, or anything
    ``Mat`` accepts), or is one stacked (alg.dim, n, n) integer array; entries
    are reduced mod p.  Equal actions over one algebra object give one
    ``Mod`` while it stays in the bounded cache of ``_interned``: the
    right-module law and the unit axiom are checked once per value, and a
    failure raises ``ValidationError`` with the witness pair on every call.
    """
    p = alg.p
    if isinstance(action, np.ndarray) and action.ndim == 3 and action.dtype.kind == "i":
        acts = np.mod(action, p, dtype=np.int64, order="C")
    else:
        mats = [_reduced_matrix(m, p) for m in action]
        if len({a.shape for a in mats}) > 1:
            raise ValidationError("action matrices have mixed shapes")
        acts = np.stack(mats) if mats else np.zeros((0, 0, 0), dtype=np.int64)
    if len(acts) != alg.dim:
        raise ValidationError(f"need {alg.dim} action matrices, got {len(acts)}")
    n = acts.shape[1]
    if acts.shape[2] != n:
        raise ValidationError("action matrices must be square")
    acts.flags.writeable = False
    # keyed on the algebra object, so the module returned has alg as its algebra;
    # the cached module keeps alg alive, so its id is not reused meanwhile
    return _interned(id(alg), Mod(alg=alg, dim=n, acts=acts))


def _reduced_matrix(m, p: int) -> np.ndarray:
    if not isinstance(m, Mat):
        return Mat(p, m).a
    if m.p != p:
        raise ValueError(f"mixed moduli {m.p} and {p}")
    return m.a


@functools.lru_cache(maxsize=1024)
def _interned(alg_id: int, mod: Mod) -> Mod:
    """The first module equal to ``mod`` over the algebra object ``alg_id``, once
    it has passed the module law and the unit axiom; a failed check is not
    cached, so it raises again on the next call."""
    alg, acts, n = mod.alg, mod.acts, mod.dim
    if n > 0:
        got = np.einsum("jab,ibc->ijac", acts, acts) % alg.p
        want = np.einsum("ijk,kab->ijab", alg.structconst, acts) % alg.p
        if not np.array_equal(got, want):
            bad = np.argwhere((got - want) % alg.p != 0)[0]
            raise ValidationError(
                f"action incompatible with structure constants at pair "
                f"({int(bad[0])}, {int(bad[1])})",
                witness=(int(bad[0]), int(bad[1])),
            )
    if not np.array_equal(mod.rho(alg.unit).a, np.eye(n, dtype=np.int64)):
        raise ValidationError("unit does not act as the identity")
    return mod


@functools.lru_cache(maxsize=64)
def zero_module(alg: Alg) -> Mod:
    return make_module(alg, [Mat.zeros(alg.p, 0, 0)] * alg.dim)


@functools.lru_cache(maxsize=64)
def regular_module(alg: Alg) -> Mod:
    """The algebra acting on itself by right multiplication."""
    return make_module(alg, [alg.right_mult(alg.basis_vector(i)) for i in range(alg.dim)])


def _restricted_action(acts: np.ndarray, basis: Mat) -> tuple[Mat, np.ndarray]:
    """The pivot columns of ``basis`` and the stacked action matrices ``acts``
    restricted to their span, from one ``rref`` of [basis | acts @ basis]: each
    moved column's entries in the pivot rows are its coordinates.  A pivot in
    the moved block means the span is not invariant, which raises."""
    p, d, k = basis.p, len(acts), basis.cols
    moved = (acts @ basis.a) % p  # (d, dim, k): the images of the basis under each acts[i]
    red, pivots = rref(Mat._reduced(p, np.hstack([basis.a, *moved])))
    if pivots and pivots[-1] >= k:
        raise ValidationError("column span is not invariant under the action")
    r = len(pivots)
    action = red.a[:r, k:].reshape(r, d, k)[:, :, list(pivots)].transpose(1, 0, 2)
    return basis.take_columns(pivots), action


def submodule(m: Mod, basis: Mat) -> tuple[Mod, MMap]:
    """Submodule on a column span, with its inclusion on the pivot columns of
    ``basis`` (which may be dependent), presented by one elimination."""
    b, action = _restricted_action(m.acts, basis)
    sub = make_module(m.alg, action)
    return sub, MMap(sub, m, b)


def quotient_module(m: Mod, sub_basis: Mat) -> tuple[Mod, MMap]:
    """Quotient by an invariant column span, with its projection."""
    proj, sec = quotient_structure(m.dim, sub_basis)
    quot = make_module(m.alg, (proj.a @ m.acts % m.alg.p) @ sec.a)
    return quot, MMap(m, quot, proj)


def projective_module(alg: Alg, j: int) -> Mod:
    """The right ideal e_j * A inside the regular module."""
    return _projective_with_inclusion(alg, j)[0]


@functools.lru_cache(maxsize=256)
def _projective_with_inclusion(alg: Alg, j: int) -> tuple[Mod, Mat]:
    sub, inc = submodule(regular_module(alg), alg.left_mult(alg.idempotents[j]))
    return sub, inc.mat


def simple_module(alg: Alg, j: int) -> Mod:
    """Top of the j-th indecomposable projective."""
    t, _ = top(projective_module(alg, j))
    return t


# -- hom spaces ----------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _hom_basis(m: Mod, n: Mod) -> tuple[np.ndarray, np.ndarray]:
    """Cached Hom(m, n) basis: a certified read-only (k, n.dim, m.dim) stack and
    the free position of each element (the ``kernel_basis`` columns of the
    intertwining system, flattened row-major: its last nonzero entry)."""
    if m.alg != n.alg:
        raise ValidationError("hom_space between modules over different algebras")
    if m.dim == 0 or n.dim == 0:
        return np.zeros((0, n.dim, m.dim), dtype=np.int64), np.zeros(0, dtype=np.intp)
    p = m.alg.p
    gens = algebra_generators(m.alg)
    # F rho_m(g) - rho_n(g) F = 0 on the row-major entries of F: generator g
    # contributes the rows I_n (x) rho_m(g)^T - rho_n(g) (x) I_m, written by
    # index into one array, system[g, i, j, k, l] = row (g, i, j), column (k, l)
    system = np.zeros((len(gens), n.dim, m.dim, n.dim, m.dim), dtype=np.int64)
    on_n, on_m = np.arange(n.dim), np.arange(m.dim)
    system[:, on_n, :, on_n, :] = np.stack([m.rho(g).a.T for g in gens])
    system[:, :, on_m, :, on_m] -= np.stack([n.rho(g).a for g in gens])
    np.mod(system, p, out=system)
    rows = system.reshape(-1, n.dim * m.dim)
    vecs = np.ascontiguousarray(kernel_basis(Mat._reduced(p, rows)).a.T)
    free = vecs.shape[1] - 1 - np.argmax(vecs[:, ::-1] != 0, axis=1)
    stack = vecs.reshape(len(vecs), n.dim, m.dim)
    _check_commutes(m, n, stack)
    stack.flags.writeable = False
    return stack, free


def hom_space(m: Mod, n: Mod) -> list[MMap]:
    """Basis of Hom(m, n): solutions of F @ act_m(b) = act_n(b) @ F.

    It suffices to intertwine a verified generating set of the algebra; the
    commutant of the generators equals the commutant of the whole algebra.
    The basis is cached (modules are immutable); the maps are built per call.
    """
    return [MMap(m, n, Mat._reduced(m.alg.p, f)) for f in _hom_basis(m, n)[0]]


def hom_coords(m: Mod, n: Mod, mats) -> np.ndarray:
    """Coordinate rows in the ``hom_space(m, n)`` basis of a stack of n.dim x m.dim matrices.

    Each basis map is 1 at its free position and every other basis map is 0
    there, so a map's coordinates are its entries at the free positions.  One
    reconstruction, coords @ basis == maps (mod p), on the cached basis stack
    flattened, certifies the read: a matrix outside Hom(m, n) raises
    ``ValidationError`` with its stack index as witness.
    Sums have at most m.dim * n.dim terms below p^2 <= 2^42: no int64 overflow.
    """
    stack, free = _hom_basis(m, n)
    a = np.asarray(mats, dtype=np.int64)
    if a.ndim != 3 or a.shape[1:] != (n.dim, m.dim):
        raise ValidationError(f"expected a stack of {n.dim}x{m.dim} matrices, got shape {a.shape}")
    p = m.alg.p
    flat = a.reshape(len(a), n.dim * m.dim) % p
    coords = flat[:, free]
    bad = np.flatnonzero(((coords @ stack.reshape(len(stack), n.dim * m.dim) - flat) % p).any(axis=1))
    if bad.size:
        raise ValidationError("matrix is not in the span of the Hom basis", witness=int(bad[0]))
    return coords


# -- kernels, cokernels, images -------------------------------------------------


def kci(f: MMap) -> tuple[tuple[Mod, MMap], tuple[Mod, MMap], tuple[Mod, MMap]]:
    """Kernel (with inclusion), cokernel (with projection), image (with inclusion)."""
    ker, ker_inc = submodule(f.src, kernel_basis(f.mat))
    img, img_inc = submodule(f.dst, f.mat)
    cok, cok_proj = quotient_module(f.dst, img_inc.mat)
    if ker.dim + img.dim != f.src.dim:
        raise ValidationError("internal inconsistency: kernel and image dimensions do not add up")
    return (ker, ker_inc), (cok, cok_proj), (img, img_inc)


def _block_sum(alg: Alg, mods: list[Mod]) -> tuple[Mod, list[int]]:
    """The sum module of mods over alg, its action block diagonal in list order,
    with the first coordinate of each summand."""
    offsets = list(itertools.accumulate((m.dim for m in mods), initial=0))
    n = offsets[-1]
    acts = np.zeros((alg.dim, n, n), dtype=np.int64)
    for m, lo in zip(mods, offsets):
        acts[:, lo : lo + m.dim, lo : lo + m.dim] = m.acts
    return make_module(alg, acts), offsets


def _block_inclusion(m: Mod, total: Mod, lo: int) -> MMap:
    """The inclusion of the summand m at coordinate lo of a block sum: identity columns."""
    return MMap(m, total, Mat._reduced(m.alg.p, np.eye(total.dim, m.dim, -lo, dtype=np.int64)))


def _block_projection(total: Mod, m: Mod, lo: int) -> MMap:
    """The projection of a block sum onto its summand m at coordinate lo: identity rows."""
    return MMap(total, m, Mat._reduced(m.alg.p, np.eye(m.dim, total.dim, lo, dtype=np.int64)))


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
    total, offsets = _block_sum(alg, mods)
    injections = [_block_inclusion(m, total, lo) for m, lo in zip(mods, offsets)]
    projections = [_block_projection(total, m, lo) for m, lo in zip(mods, offsets)]
    return total, injections, projections


# -- top, socle, covers, envelopes ----------------------------------------------


def radical_submodule(m: Mod) -> Mat:
    """Columns spanning m * rad(A), m's image under each radical basis element:
    dependent in general, which ``submodule``, ``quotient_module`` and ``solve`` accept."""
    rad = m.alg.radical
    if rad.cols == 0 or m.dim == 0:
        return Mat.zeros(m.alg.p, m.dim, 0)
    return Mat(m.alg.p, np.hstack([m.rho(rad.a[:, t]).a for t in range(rad.cols)]))


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
    """Minimal projective surjection onto m, from its cached cover step.

    Lifts a basis of top(m), one generator per idempotent slice, and maps the
    corresponding projectives e_j * A by right multiplication.  Surjectivity
    and minimality (kernel inside P * rad) are verified; over an algebra that
    is not split basic the cover is not minimal and GuardError is raised.
    """
    epi, _ = _cover_step(m)
    return epi.src, epi


@functools.lru_cache(maxsize=512)
def _cover_step(m: Mod) -> tuple[MMap, MMap]:
    """(epi: P ->> m, inc: Omega m >-> P) for the projective cover P of m.

    Built and certified once per module (see ``projective_cover``), so every
    resolution, envelope and presentation through m shares it; the kernel
    that certifies minimality is the one Omega m is spanned by.
    """
    alg, p = m.alg, m.alg.p
    if m.dim == 0:
        z = zero_module(alg)
        return MMap.zero(z, m), MMap.identity(z)
    t, q = top(m)
    pieces: list[Mod] = []
    blocks: list[np.ndarray] = []
    for j, e in enumerate(alg.idempotents):
        slice_basis = column_space(t.rho(e))
        if slice_basis.cols == 0:
            continue
        pj, pj_basis = _projective_with_inclusion(alg, j)
        w = solve(q.mat, slice_basis)  # one lift per top vector of the slice
        if w is None:  # q is onto by construction
            raise ValidationError("internal inconsistency: top lift unsolvable")
        gens = (m.rho(e) @ w).a  # generators inside m * e_j, one per column
        # the basis element of e_j A with algebra coordinates beta goes to
        # v * beta = sum_i beta_i action[i] @ v; both sums have terms below
        # p^2 <= 2^42 and are reduced before the next one
        moved = np.einsum("iab,bs->ias", m.acts, gens) % p
        cols = np.einsum("ias,ib->asb", moved, pj_basis.a) % p
        blocks.append(cols.reshape(m.dim, -1))  # generator-major, as the summands
        pieces += [pj] * gens.shape[1]
    total, _ = _block_sum(alg, pieces)
    # the e_j sum to 1, so some slice of top(m) is nonzero and blocks is not empty
    epi = MMap(total, m, Mat._reduced(p, np.hstack(blocks)))
    if rank(epi.mat) != m.dim:
        raise ValidationError("internal inconsistency: cover map not surjective")
    ker = kernel_basis(epi.mat)
    if ker.cols and not in_column_span(radical_submodule(total), ker):
        _require_split_basic(alg)  # one generator per top vector is minimal only then
        raise ValidationError("internal inconsistency: cover not minimal")
    return epi, submodule(total, ker)[1]


def _require_split_basic(alg: Alg) -> None:
    """Raise GuardError unless every top e_j A / e_j rad A is F_p, that is,
    the e_j are primitive and the algebra is split basic."""
    tops = [top(projective_module(alg, j))[0].dim for j in range(len(alg.idempotents))]
    if tops != [1] * len(tops):
        raise GuardError(
            f"tops of the e_j A have dimensions {tops}: needs a split basic algebra "
            "(every e_j A / e_j rad A equal to F_p)"
        )


def dual_module(m: Mod, target_alg: Alg | None = None) -> Mod:
    """Linear dual as a right module over the opposite algebra."""
    aop = opposite(m.alg) if target_alg is None else target_alg
    return make_module(aop, m.acts.transpose(0, 2, 1))


def injective_envelope(m: Mod) -> tuple[Mod, MMap]:
    """Minimal injective extension, computed by duality:

    dualize to a module over the opposite algebra, take its projective cover
    (``_cover_step``, shared with the injective resolutions), and dualize
    back.  The dual of the cover epi is the validated embedding.
    """
    epi, _ = _cover_step(dual_module(m))
    env = make_module(m.alg, epi.src.acts.transpose(0, 2, 1))
    mono = MMap(m, env, epi.mat.transpose())
    if kernel_basis(mono.mat).cols != 0:
        raise ValidationError("internal inconsistency: envelope map not injective")
    return env, mono


# -- isomorphism testing and Krull-Schmidt ----------------------------------------


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo b over F_p; coefficient lists, constant term first, b[-1] != 0."""
    a = [x % p for x in a]
    d = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, d - 1, -1):
        f = a[i] * inv % p
        if f:
            for j, y in enumerate(b):
                a[i - d + j] = (a[i - d + j] - f * y) % p
    a = a[:d]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _poly_rem(prod, mod, p)


def _minimal_polynomial(g: Mat) -> list[int]:
    """Monic minimal polynomial of g, constant term first.

    A Krylov solve on the vectorized powers I, g, ..., g^n: their reduced
    echelon form has pivots 0..d-1, and column d expresses g^d in the lower
    powers, the first relation among them.
    """
    p, n = g.p, g.rows
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(n):
        powers.append(powers[-1] @ g.a % p)
    red, pivots = _rref_array(np.stack([q.ravel() for q in powers], axis=1), p)
    d = len(pivots)
    return [-x % p for x in red[:d, d].tolist()] + [1]


def _singular_shift(g: Mat) -> Mat | None:
    """g - lambda for the first eigenvalue lambda of g in F_p, or None if g has none.

    The order is tr(g)/n first when p does not divide n (the eigenvalue of
    every g with a nilpotent shift), then 0, 1, ..., p-1.  Past the first,
    the eigenvalues in F_p are the roots of h = gcd(mu_g, x^p - x), with x^p
    reduced mod the minimal polynomial mu_g by square-and-multiply: h = 1
    decides "no eigenvalue" exactly, a linear h gives the root, and a larger
    h is evaluated over F_p in vectorized chunks for its smallest root.
    """
    p, n = g.p, g.rows
    eye = np.eye(n, dtype=np.int64)
    if n % p:
        shift = Mat(p, g.a - int(np.trace(g.a)) * pow(n, -1, p) % p * eye)
        if not is_invertible(shift):
            return shift
    mu = _minimal_polynomial(g)
    xp, base, e = [1], _poly_rem([0, 1], mu, p), p
    while e:
        if e & 1:
            xp = _poly_mulmod(xp, base, mu, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, mu, p)
    xp_minus_x = xp + [0] * (2 - len(xp))
    xp_minus_x[1] -= 1
    h, r = mu, _poly_rem(xp_minus_x, mu, p)
    while r:
        h, r = r, _poly_rem(h, r, p)
    if len(h) == 1:
        return None
    if len(h) == 2:
        lam = -h[0] * pow(h[1], -1, p) % p
    else:  # Horner over 2^16 points at a time; intermediates stay below p^2 <= 2^42
        for lo in range(0, p, 1 << 16):
            xs = np.arange(lo, min(lo + (1 << 16), p), dtype=np.int64)
            acc = np.zeros_like(xs)
            for c in reversed(h):
                acc = (acc * xs + c) % p
            if not acc.all():
                lam = lo + int(np.argmin(acc))
                break
    return Mat(p, g.a - lam * eye)


@functools.lru_cache(maxsize=256)
def _split_or_certify(m: Mod) -> Mat | None:
    """A singular, non-nilpotent endomorphism of m, or None when End(m) is local;
    the verdict is computed once per module, and a GuardError is not cached,
    so it raises again on the next call.

    A basis endomorphism whose eigenvalue shift is not nilpotent is returned.
    Otherwise the span R of the shifts is closed under products: a product
    outside R is returned if it is not nilpotent (it is singular, having a
    nilpotent factor) and joins R otherwise.  A product-closed span of
    nilpotents is a nilpotent ideal, since its semisimple quotient cannot be
    spanned by nilpotents; then End(m) = R + F_p is local.

    If some basis element has no eigenvalue in F_p, every element of End(m)
    is tested instead (GuardError above 3^9 of them): End(m) is local exactly
    when each one is nilpotent or invertible.
    """
    mats = _hom_basis(m, m)[0]
    p, n, d = m.alg.p, m.dim, len(mats)
    shifts = []
    for g in mats:
        s = _singular_shift(Mat._reduced(p, g))
        if s is not None and not is_nilpotent(s):
            return s
        shifts.append(s)
    if None in shifts:
        if p**d > 3**9:
            raise GuardError(f"an endomorphism has no eigenvalue in F_{p}, and {p}^{d} elements exceed the 3^9 sweep")
        for coeffs in itertools.product(range(p), repeat=d):
            f = Mat(p, np.tensordot(coeffs, mats, axes=1))
            if not is_invertible(f) and not is_nilpotent(f):
                return f
        return None
    span = [s.a for s in shifts if s.a.any()]
    while span:
        stack = np.stack(span)
        red, pivots = rref(Mat(p, stack.reshape(len(span), n * n)))
        prods = np.einsum("iab,jbc->ijac", stack, stack).reshape(-1, n * n) % p
        residue = (prods - prods[:, list(pivots)] @ red.a[: len(pivots)]) % p
        outside = np.flatnonzero(residue.any(axis=1))
        if outside.size == 0:
            return None
        prod = Mat(p, prods[outside[0]].reshape(n, n))
        if not is_nilpotent(prod):
            return prod
        span.append(prod.a)
    return None


def _basis_iso(m: Mod, n: Mod) -> MMap | None:
    """The first invertible element of the Hom(m, n) basis, or None.

    Between indecomposables this decides isomorphism exactly.  If X and Y are
    isomorphic through phi, the non-isomorphisms X -> Y are phi o rad End(X),
    a proper subspace since End(X) is local, and no basis of Hom(X, Y) lies
    in a proper subspace.
    """
    if m.dim_vector() != n.dim_vector():
        return None
    for f in _hom_basis(m, n)[0]:
        if is_invertible(g := Mat._reduced(m.alg.p, f)):
            return MMap(m, n, g)
    return None


def is_isomorphic(m: Mod, n: Mod) -> MMap | None:
    """A verified isomorphism m -> n, or None; exact at every prime.

    Returns a Hom basis element when one is invertible.  Otherwise both
    modules are decomposed and their summands matched pairwise by the same
    scan (``_basis_iso``, exact between indecomposables); the matched
    isomorphisms are assembled through the inclusions and projections and
    checked on construction.  Raises GuardError when a decomposition does
    (see ``decompose_with_maps``).
    """
    if m.alg != n.alg or m.dim != n.dim:
        return None
    if m.dim == 0:
        return MMap.zero(m, n)
    if m.dim_vector() != n.dim_vector():
        return None
    if (f := _basis_iso(m, n)) is not None:
        return f
    targets = decompose_with_maps(n)
    total = Mat.zeros(m.alg.p, n.dim, m.dim)
    for x, _, onto_x in decompose_with_maps(m):
        for k, (y, inc_y, _) in enumerate(targets):
            f = _basis_iso(x, y)
            if f is not None:
                total = total + inc_y.mat @ f.mat @ onto_x.mat
                del targets[k]
                break
        else:
            return None
    if not is_invertible(total):
        raise ValidationError("internal inconsistency: matched summands do not assemble an isomorphism")
    return MMap(m, n, total)


def decompose_with_maps(m: Mod) -> list[tuple[Mod, MMap, MMap]]:
    """Indecomposable summands with inclusion/projection maps.

    Splits along Fitting decompositions ker(f^N) + im(f^N) of singular,
    non-nilpotent endomorphisms; a summand is returned only once its
    endomorphism ring is certified local (``_split_or_certify``), so the
    result is exact at every prime.  Raises GuardError when a Hom basis
    endomorphism has no eigenvalue in F_p (as for a residue field larger
    than F_p), no basis element splits, and End has more than 3^9 elements.
    """
    if m.dim == 0:
        return []
    f = _split_or_certify(m)
    if f is None:
        return [(m, MMap.identity(m), MMap.identity(m))]
    power = f.power(1 << (m.dim.bit_length()))
    parts = [submodule(m, kernel_basis(power)), submodule(m, power)]  # ker f^N, im f^N
    u_inv = inverse(hstack([inc.mat for _, inc in parts]))
    if not parts[0][0].dim or not parts[1][0].dim or u_inv is None:
        raise ValidationError("internal inconsistency: Fitting split failed")
    out: list[tuple[Mod, MMap, MMap]] = []
    offset = 0
    for part, inc in parts:
        proj = MMap(m, part, Mat(m.alg.p, u_inv.a[offset : offset + part.dim, :]))
        offset += part.dim
        for piece, pinc, pproj in decompose_with_maps(part):
            out.append((piece, inc @ pinc, pproj @ proj))
    return out


def decompose(m: Mod) -> list[tuple[Mod, int]]:
    """Indecomposable summands grouped by isomorphism, with multiplicities."""
    parts = [piece for piece, _, _ in decompose_with_maps(m)]
    parts.sort(key=lambda x: (x.dim, x.dim_vector(), x.key()))
    reps, mults = [], []
    for piece in parts:
        k = _first_iso(piece, reps)
        if k is None:
            reps.append(piece)
            mults.append(1)
        else:
            mults[k] += 1
    return list(zip(reps, mults))


def _first_iso(piece: Mod, candidates) -> int | None:
    """The index of the first candidate isomorphic to ``piece``, or None; the
    one isomorphism-class lookup, comparing candidates in list order."""
    return next((k for k, c in enumerate(candidates) if is_isomorphic(c, piece) is not None), None)


@functools.lru_cache(maxsize=256)
def is_projective(m: Mod) -> bool:
    """Every indecomposable summand of m is isomorphic to one of the e_j A."""
    projs = [projective_module(m.alg, j) for j in range(len(m.alg.idempotents))]
    return all(_first_iso(piece, projs) is not None for piece, _, _ in decompose_with_maps(m))


@functools.lru_cache(maxsize=64)
def _indecomposable_injectives(alg: Alg) -> tuple[Mod, ...]:
    """The injective envelopes of the simples, in idempotent order; built once per algebra."""
    return tuple(injective_envelope(simple_module(alg, j))[0] for j in range(len(alg.idempotents)))


@functools.lru_cache(maxsize=256)
def is_injective(m: Mod) -> bool:
    """Every indecomposable summand of m is isomorphic to the injective envelope of a simple."""
    injs = _indecomposable_injectives(m.alg)
    return all(_first_iso(piece, injs) is not None for piece, _, _ in decompose_with_maps(m))


# -- classification of indecomposables -------------------------------------------


def classify_indecomposables(alg: Alg) -> list[Mod]:
    """Complete duplicate-free list of indecomposables; every answer returned is certified.

    Knits the Auslander-Reiten quiver (Auslander-Reiten-Smalo 1995, Ch. IV,
    V, VII) from the indecomposable projectives: every vertex X adds the
    summands of rad X (X projective) or tau X, of X / soc X (X injective) or
    of tau^-1 X and the middle term of the almost split sequence
    0 -> X -> E -> tau^-1 X -> 0, each new summand kept unless it is
    isomorphic to a vertex with its dimension vector.  The closure is then a
    finite union of AR components, each sequence carries its checked
    certificate (``homcat.knitting.almost_split_sequence``), every top
    e_j A / e_j rad A is F_p (so the e_j are primitive and the algebra is
    split basic) and the Peirce graph of the e_j is connected, so the algebra
    is connected and by Auslander's theorem (1974) a finite component is the
    whole module category.  Refuses with CapExhausted past 256 vertices or a
    vertex of dimension above 2 dim A (the algebra may be representation
    infinite; the factor is a heuristic, so a representation-finite algebra
    with a larger indecomposable is refused too), and with GuardError for a
    disconnected or non-split-basic algebra, a vertex whose endomorphism ring
    is not split local or an Ext socle above dimension one.  Sorted by
    (dim, dim vector, key); computed once per algebra, together with the
    arrows of ``ar_quiver``, and shared by every caller.  Each tau-edge is
    computed once: a vertex whose tau or tau^-1 is already a vertex (tau and
    tau^-1 are inverse bijections between the non-projective and the
    non-injective indecomposables) reuses it (``homcat.knitting.knit``).
    """
    from homcat.knitting import knit  # the AR layer builds on this module; loaded on first use

    return knit(alg)[0]


# -- AR quiver --------------------------------------------------------------------


def local_end_radical(m: Mod) -> np.ndarray:
    """Basis stack (r, m.dim, m.dim) of the maximal ideal of a local End(m).

    For each basis endomorphism g there is exactly one scalar lambda with
    g - lambda * id nilpotent (split local case); those differences span the
    radical.  Raises GuardError if some g has no such scalar (a residue field
    larger than F_p, or a ring that is not local).
    """
    p = m.alg.p
    shifts = []
    for g in _hom_basis(m, m)[0]:
        shift = _singular_shift(Mat._reduced(p, g))
        if shift is None or not is_nilpotent(shift):
            raise GuardError("endomorphism algebra is not split local")
        shifts.append(shift.a.ravel())
    reduced = column_space(Mat(p, np.reshape(shifts, (len(shifts), m.dim * m.dim)).T))
    return reduced.a.T.reshape(reduced.cols, m.dim, m.dim)


def ar_quiver(alg: Alg) -> Quiver:
    """The AR quiver over the classified indecomposables, with the arrows the
    knitting read off: X -> Y with multiplicity the number of summands
    isomorphic to Y in the middle term E of 0 -> X -> E -> tau^-1 X -> 0, or in
    X / soc X for an injective X (the targets of the left almost split map
    out of X).  Every End(X) is certified split local, and then that
    multiplicity is dim irr(X, Y) = dim rad(X, Y) / rad^2(X, Y)
    (Auslander-Reiten-Smalo 1995, Ch. VII)."""
    from homcat.knitting import knit

    ind, arrows = knit(alg)
    vertices = tuple(("m" + "".join(str(d) for d in m.dim_vector()), m.dim) for m in ind)
    return Quiver(vertices=vertices, arrows=arrows)
