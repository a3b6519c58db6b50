"""Finite-dimensional associative unital algebras over F_p by structure constants.

An algebra is given by a three-index table c with basis products
b_i * b_j = sum_k c[i][j][k] b_k, together with a designated unit vector, a
complete set of orthogonal idempotents, and a basis of its Jacobson radical.
The radical is *supplied and validated*, not computed: general radical
computation in characteristic p is subtle, while every algebra handled here
has an evident radical basis.  Validation checks that the span is a nilpotent
two-sided ideal and that the quotient is semisimple by its trace form
(x, y) -> tr(L_xy).  A nondegenerate form proves semisimplicity.  A form
whose kernel is a nilpotent ideal proves the quotient is not semisimple.  In
characteristic p the form also vanishes on a semisimple block M_n with p
dividing n (M_2(F_2), say), and then validation raises GuardError instead of
guessing.

Elements are multiplied a table at a time: ``_products`` forms every product
of two lists of vectors as two matrix products of the structure constants,
and validation, generating sets, closure and e A e slices all read its
tables; a span is extended by the pivots past it in one ``rref``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from homcat.errors import GuardError, ValidationError
from homcat.linalg import (
    Mat,
    column_space,
    hstack,
    inverse,
    kernel_basis,
    quotient_structure,
    rref,
    validate_prime,
)

__all__ = [
    "Alg",
    "AlgIso",
    "make_algebra",
    "preset",
    "opposite",
    "algebra_iso_search",
    "algebra_to_json",
    "algebra_from_json",
    "PRESET_NAMES",
]


@dataclass(frozen=True, eq=False)
class Alg:
    """A validated finite-dimensional algebra.

    Equality is structural (modulus, structure constants, unit, idempotents,
    radical span) and ignores labels.  ``opposite`` is memoized on the object:
    the opposite of the opposite is the algebra itself.
    """

    p: int
    dim: int
    labels: tuple[str, ...]
    structconst: np.ndarray  # shape (dim, dim, dim), entries in [0, p)
    unit: np.ndarray  # shape (dim,)
    idempotents: tuple[np.ndarray, ...]
    radical: Mat  # columns span the Jacobson radical
    name: str = "algebra"
    _opposite: "Alg | None" = field(default=None, init=False, repr=False)
    _hash: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.structconst.flags.writeable = False
        self.unit.flags.writeable = False
        for e in self.idempotents:
            e.flags.writeable = False

    # -- element arithmetic (coordinate vectors) ----------------------------

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _products(self.p, self.structconst, [x], [y])[0, 0]

    def left_mult(self, x: np.ndarray) -> Mat:
        """Matrix of a |-> x*a on coordinate columns."""
        return Mat(self.p, np.einsum("i,ijk->kj", x % self.p, self.structconst))

    def right_mult(self, x: np.ndarray) -> Mat:
        """Matrix of a |-> a*x on coordinate columns."""
        return Mat(self.p, np.einsum("i,jik->kj", x % self.p, self.structconst))

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return v

    def radical_powers(self) -> list[Mat]:
        """Column spans of rad, rad^2, ... down to zero (zero span included)."""
        return list(_radical_powers(self))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Alg)
            and self.p == other.p
            and self.dim == other.dim
            and np.array_equal(self.structconst, other.structconst)
            and np.array_equal(self.unit, other.unit)
            and len(self.idempotents) == len(other.idempotents)
            and all(np.array_equal(a, b) for a, b in zip(self.idempotents, other.idempotents))
            and self.radical == other.radical
        )

    def __hash__(self) -> int:
        # computed once, since every cache keyed by an algebra hashes it
        if self._hash is None:
            key = (self.p, self.dim, self.structconst.tobytes(), self.unit.tobytes())
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __repr__(self) -> str:
        return f"Alg({self.name}, dim={self.dim}, p={self.p})"


@dataclass(frozen=True)
class AlgIso:
    """A verified algebra isomorphism: mutually inverse maps of basis coordinates."""

    forward: Mat
    backward: Mat


# -- validation ---------------------------------------------------------------


def _products(p: int, c: np.ndarray, xs, ys) -> np.ndarray:
    """Every product x_s * y_t of the rows of xs and ys, as a (len xs, len ys,
    dim) array, in the algebra with structure constants c (reduced mod p).

    Two matrix products, reduced between them: each sum has at most dim
    terms below p^2 <= 2^42, so int64 never overflows.
    """
    d = len(c)
    xs = np.asarray(xs, dtype=np.int64) % p
    ys = np.asarray(ys, dtype=np.int64) % p
    left = (xs @ c.reshape(d, d * d) % p).reshape(len(xs), d, d)  # left[s] = matrix of y -> x_s * y
    return ys @ left % p


def _span_powers(p: int, c: np.ndarray, span: Mat) -> list[Mat] | None:
    """Column spans of S, S^2, ... down to zero (zero span included), S the
    column span of ``span`` in the algebra with structure constants c; None
    when a power stops shrinking, so S is not nilpotent."""
    powers = [column_space(span)]
    while powers[-1].cols > 0:
        prev = powers[-1]
        prods = _products(p, c, prev.a.T, span.a.T).reshape(-1, len(c))
        nxt = column_space(Mat(p, prods.T))
        if nxt.cols >= prev.cols:
            return None
        powers.append(nxt)
    return powers


@functools.lru_cache(maxsize=64)
def _radical_powers(alg: Alg) -> tuple[Mat, ...]:
    """``Alg.radical_powers``, computed once per algebra; a radical that is not
    nilpotent raises, and is not cached."""
    powers = _span_powers(alg.p, alg.structconst, alg.radical)
    if powers is None:
        raise ValidationError("radical span is not nilpotent")
    return tuple(powers)


def _check_associativity(p: int, c: np.ndarray) -> None:
    lhs = np.einsum("ijm,mkl->ijkl", c, c) % p
    rhs = np.einsum("jkm,iml->ijkl", c, c) % p
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere((lhs - rhs) % p != 0)[0]
        raise ValidationError(
            f"structure constants not associative at basis triple {tuple(int(t) for t in bad[:3])}",
            witness=tuple(int(t) for t in bad[:3]),
        )


def _check_unit(alg: Alg) -> None:
    eye = np.eye(alg.dim, dtype=np.int64)
    left = _products(alg.p, alg.structconst, [alg.unit], eye)[0]
    right = _products(alg.p, alg.structconst, eye, [alg.unit])[:, 0]
    if not np.array_equal(left, eye) or not np.array_equal(right, eye):
        raise ValidationError("designated unit is not a two-sided identity")


def _check_idempotents(alg: Alg) -> None:
    es = np.array(alg.idempotents).reshape(-1, alg.dim)
    want = np.eye(len(es), dtype=np.int64)[:, :, None] * es[:, None]  # [a, b] = delta_ab e_a
    bad = np.argwhere((_products(alg.p, alg.structconst, es, es) != want).any(axis=2))
    if bad.size:
        a, b = (int(t) for t in bad[0])
        raise ValidationError(f"idempotents {a} and {b} fail e_a * e_b = delta * e_a", witness=(a, b))
    if not np.array_equal(es.sum(axis=0) % alg.p, alg.unit):
        raise ValidationError("idempotents do not sum to the unit")


def _check_radical_ideal(alg: Alg) -> tuple[Mat, Mat]:
    """Check that every b_i * r_t and r_t * b_i lies in the radical span, the
    kernel of the projection onto A/rad; return (projection, section)."""
    rad = alg.radical
    if rad.rows != alg.dim:
        raise ValidationError("radical basis has wrong ambient dimension")
    proj, sec = quotient_structure(alg.dim, rad)
    eye = np.eye(alg.dim, dtype=np.int64)
    left = _products(alg.p, alg.structconst, eye, rad.a.T)  # [i, t] = b_i * r_t
    right = _products(alg.p, alg.structconst, rad.a.T, eye).swapaxes(0, 1)  # [i, t] = r_t * b_i
    bad = np.argwhere((np.stack([left, right], axis=2) @ proj.a.T % alg.p).any(axis=3))
    if bad.size:
        i, t, side = int(bad[0, 0]), int(bad[0, 1]), ("left", "right")[bad[0, 2]]
        raise ValidationError(
            f"radical is not a two-sided ideal ({side} product of basis {i} escapes)",
            witness=(i, t, side),
        )
    return proj, sec


def _check_quotient_semisimple(alg: Alg, proj: Mat, sec: Mat) -> None:
    """The trace form (x, y) -> tr(L_xy) of the quotient B = A/rad, presented
    by (proj, sec), certifies B semisimple when nondegenerate.  Its kernel K
    is a two-sided ideal of B: a nilpotent K proves B not semisimple; any
    other K is a guard, since over F_p the form also vanishes on semisimple
    blocks (M_2(F_2) has tr = 0)."""
    q = proj.rows
    if q == 0:
        raise ValidationError("radical spans the whole algebra; no unit survives")
    c = _products(alg.p, alg.structconst, sec.a.T, sec.a.T) @ proj.a.T % alg.p  # B's structure constants
    # tr(L_i L_j) = sum_ab c[i, b, a] c[j, a, b]: q^2 terms below p^2, no overflow for q < 1448
    gram = c.reshape(q, q * q) @ c.swapaxes(1, 2).reshape(q, q * q).T % alg.p
    kernel = kernel_basis(Mat(alg.p, gram))
    if kernel.cols == 0:
        return
    if _span_powers(alg.p, c, kernel) is not None:
        # witness: an element of A outside the radical whose class lies in K
        witness = tuple(int(v) for v in (sec.a @ kernel.a[:, 0]) % alg.p)
        raise ValidationError("radical quotient not semisimple (degenerate trace form)", witness=witness)
    raise GuardError(
        f"the trace form of the radical quotient is degenerate on a non-nilpotent ideal at p = {alg.p}: "
        "it cannot certify semisimplicity at this p"
    )


def make_algebra(
    dim: int,
    structconst,
    unit,
    idempotents,
    radical,
    p: int,
    labels=None,
    name: str = "algebra",
) -> Alg:
    """Build and exhaustively validate an algebra.

    Before any product: an idempotent of the wrong length, or zero, raises
    ValidationError with its index as witness, and a radical ``Mat`` over
    another prime raises ValueError ("mixed moduli").  Then ValidationError
    with a witness is raised for: non-associativity, a bad unit,
    non-orthogonal or non-idempotent designated idempotents, a radical that
    is not a nilpotent two-sided ideal, or a quotient trace form degenerate
    on a nilpotent ideal.  Raises GuardError when the trace form is
    degenerate on an ideal that is not nilpotent: it cannot decide
    semisimplicity at this p.
    """
    validate_prime(p)
    c = np.mod(np.asarray(structconst, dtype=np.int64), p)
    if c.shape != (dim, dim, dim):
        raise ValidationError(f"structure constants must have shape {(dim,)*3}, got {c.shape}")
    u = np.mod(np.asarray(unit, dtype=np.int64), p)
    if u.shape != (dim,):
        raise ValidationError("unit vector has wrong length")
    es = tuple(np.mod(np.asarray(e, dtype=np.int64), p) for e in idempotents)
    for t, e in enumerate(es):
        if e.shape != (dim,):
            raise ValidationError(f"idempotent {t} has wrong length", witness=t)
        if not e.any():
            raise ValidationError(f"idempotent {t} is zero", witness=t)
    rad = radical if isinstance(radical, Mat) else Mat(p, np.asarray(radical, dtype=np.int64).reshape(dim, -1))
    if rad.p != p:
        raise ValueError(f"mixed moduli {rad.p} and {p}")
    if labels is None:
        labels = tuple(f"b{i}" for i in range(dim))
    alg = Alg(
        p=int(p),
        dim=int(dim),
        labels=tuple(labels),
        structconst=c,
        unit=u,
        idempotents=es,
        radical=rad,
        name=name,
    )
    _check_associativity(alg.p, alg.structconst)
    _check_unit(alg)
    _check_idempotents(alg)
    proj, sec = _check_radical_ideal(alg)
    alg.radical_powers()  # raises if not nilpotent
    _check_quotient_semisimple(alg, proj, sec)
    return alg


# -- presets ------------------------------------------------------------------

PRESET_NAMES = ("lambda1", "lambda2", "lambda3", "ground_field", "truncpoly(n)")


def _matrix_units_algebra(positions: list[tuple[int, int]], killed: set[tuple[int, int]], p: int, name: str):
    """Span of matrix units E_ab at the given positions, with products
    E_ab E_cd = delta(b,c) E_ad, and products landing in ``killed`` set to 0."""
    d = len(positions)
    index = {pos: t for t, pos in enumerate(positions)}
    c = np.zeros((d, d, d), dtype=np.int64)
    for i, (a, b) in enumerate(positions):
        for j, (cc, dd) in enumerate(positions):
            if b != cc:
                continue
            tgt = (a, dd)
            if tgt in killed:
                continue
            if tgt not in index:
                raise ValidationError(f"matrix-unit span not closed: {(a, b)} * {(cc, dd)}")
            c[i, j, index[tgt]] = 1
    labels = tuple(f"E{a}{b}" for a, b in positions)
    diag = sorted({a for a, b in positions} | {b for a, b in positions})
    unit = np.zeros(d, dtype=np.int64)
    idems = []
    for a in diag:
        e = np.zeros(d, dtype=np.int64)
        e[index[(a, a)]] = 1
        idems.append(e)
        unit[index[(a, a)]] = 1
    rad_cols = [index[(a, b)] for a, b in positions if a != b]
    rad = np.zeros((d, len(rad_cols)), dtype=np.int64)
    for k, t in enumerate(rad_cols):
        rad[t, k] = 1
    return make_algebra(d, c, unit, idems, Mat(p, rad), p, labels=labels, name=name)


def _truncated_polynomial_algebra(n: int, p: int) -> Alg:
    c = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                c[i, j, i + j] = 1
    unit = np.zeros(n, dtype=np.int64)
    unit[0] = 1
    rad = np.zeros((n, n - 1), dtype=np.int64)
    for k in range(n - 1):
        rad[k + 1, k] = 1
    labels = tuple("1" if i == 0 else ("T" if i == 1 else f"T{i}") for i in range(n))
    return make_algebra(n, c, unit, [unit], Mat(p, rad), p, labels=labels, name=f"truncpoly({n})")


def preset(name: str, p: int) -> Alg:
    """Named algebras: lambda1/2/3, truncpoly(n), ground_field.

    Each (name, p) is built and validated once and then shared, so repeated
    calls return the same object and equality tests on it are identity tests.
    """
    return _build_preset(name, p)


@functools.lru_cache(maxsize=32)
def _build_preset(name: str, p: int) -> Alg:
    validate_prime(p)
    if name == "ground_field":
        return dataclasses.replace(_truncated_polynomial_algebra(1, p), name="ground_field")
    if name == "lambda1":
        pos = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
        return _matrix_units_algebra(pos, set(), p, "lambda1")
    if name == "lambda2":
        pos = [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)]
        return _matrix_units_algebra(pos, set(), p, "lambda2")
    if name == "lambda3":
        # lambda1 modulo the ideal spanned by E13
        pos = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
        return _matrix_units_algebra(pos, {(1, 3)}, p, "lambda3")
    if name.startswith("truncpoly(") and name.endswith(")"):
        n = int(name[len("truncpoly(") : -1])
        if n < 1:
            raise ValueError("truncpoly(n) needs n >= 1")
        return _truncated_polynomial_algebra(n, p)
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def opposite(a: Alg) -> Alg:
    """Same space, multiplication reversed: c'[i][j][k] = c[j][i][k].

    Built once per algebra object and linked both ways, so
    ``opposite(opposite(a)) is a``; a commutative algebra is its own opposite.
    Modules over either side then share one algebra object, and the cached
    constructors keyed on it never compare two equal copies.
    """
    if a._opposite is None:
        c = a.structconst.swapaxes(0, 1)
        op = a if np.array_equal(c, a.structconst) else Alg(
            p=a.p,
            dim=a.dim,
            labels=a.labels,
            structconst=np.ascontiguousarray(c),
            unit=a.unit.copy(),
            idempotents=tuple(e.copy() for e in a.idempotents),
            radical=a.radical,
            name=a.name[3:-1] if a.name.startswith("op(") else f"op({a.name})",
        )
        object.__setattr__(op, "_opposite", a)
        object.__setattr__(a, "_opposite", op)
    return a._opposite


# -- generating sets ----------------------------------------------------------

@functools.lru_cache(maxsize=64)
def algebra_generators(alg: Alg) -> list[np.ndarray]:
    """A verified generating set: the idempotents plus a lift of rad/rad^2.

    Commuting with (the actions of) these elements is equivalent to commuting
    with the whole algebra, which shrinks intertwining systems.  Generation is
    verified by ``_close_under_products``; if it fails (non-basic algebra),
    the full basis is returned.
    """
    gens = [np.asarray(e) for e in alg.idempotents]
    powers = alg.radical_powers()
    rad, rad2 = powers[0], powers[min(1, len(powers) - 1)]  # rad^2 = rad = 0 when rad = 0
    _, pivots = rref(hstack([rad2, rad]))  # the radical columns past rad^2 lift rad/rad^2
    gens += [rad.a[:, t - rad2.cols].copy() for t in pivots if t >= rad2.cols]
    if _close_under_products(alg, alg, [(g, g) for g in gens]) is None:
        gens = [alg.basis_vector(i) for i in range(alg.dim)]
    return gens


# -- isomorphism search -------------------------------------------------------


def _peirce_slice(alg: Alg, i: int, j: int, within: Mat | None = None) -> Mat:
    """Basis of e_i * S * e_j where S is the whole algebra or a given span."""
    op = alg.left_mult(alg.idempotents[i]) @ alg.right_mult(alg.idempotents[j])
    src = Mat.identity(alg.p, alg.dim) if within is None else within
    return column_space(op @ src)


def _slice_dims(alg: Alg) -> list[np.ndarray]:
    """dims of e_i R^t e_j for t = 0, 1, ... (t=0 means the whole algebra)."""
    m = len(alg.idempotents)
    layers = [None] + alg.radical_powers()
    out = []
    for within in layers:
        d = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                d[i, j] = _peirce_slice(alg, i, j, within).cols
        out.append(d)
    return out


def _arrow_slices(alg: Alg) -> dict[tuple[int, int], np.ndarray]:
    """One generator of each one-dimensional slice (e_i R e_j)/(e_i R^2 e_j).

    Only algebras whose slices here are at most one-dimensional are supported;
    that covers every preset and every endomorphism algebra in scope.
    """
    m = len(alg.idempotents)
    powers = alg.radical_powers()
    r1, r2 = powers[0], powers[min(1, len(powers) - 1)]
    arrows: dict[tuple[int, int], np.ndarray] = {}
    for i in range(m):
        for j in range(m):
            s1 = _peirce_slice(alg, i, j, r1)
            s2 = _peirce_slice(alg, i, j, r2)
            # the columns of s1 past the span of s2 lift the slice of rad/rad^2
            past = [t - s2.cols for t in rref(hstack([s2, s1]))[1] if t >= s2.cols]
            if len(past) > 1:
                raise ValidationError(
                    "isomorphism search supports at most one arrow per idempotent pair",
                    witness=(i, j),
                )
            if past:
                arrows[(i, j)] = s1.a[:, past[0]].copy()
    return arrows


def _is_algebra_map(a: Alg, b: Alg, phi: Mat) -> bool:
    if not np.array_equal((phi.a @ a.unit) % b.p, b.unit):
        return False
    # phi(b_i * b_j) = phi(b_i) * phi(b_j) on all basis pairs
    lhs = a.structconst @ phi.a.T % b.p
    return np.array_equal(lhs, _products(b.p, b.structconst, phi.a.T, phi.a.T))


def _close_under_products(
    a: Alg, b: Alg, gens: list[tuple[np.ndarray, np.ndarray]]
) -> Mat | None:
    """Extend generator images multiplicatively until the span fills a.

    Works in rounds: each forms every product of the vectors so far (and of
    their images in b) and keeps the products past the span of the vectors,
    the pivots of one ``rref``.  Returns the matrix of the induced linear map
    on the independent vectors, or None when a round adds nothing before
    the span fills a: the generators do not span a as an algebra.
    """
    vecs = np.array([g for g, _ in gens], dtype=np.int64)
    imgs = np.array([h for _, h in gens], dtype=np.int64)
    pivots = list(rref(Mat(a.p, vecs.T))[1])
    while len(pivots) < a.dim:
        k = len(vecs)
        prods = _products(a.p, a.structconst, vecs, vecs).reshape(k * k, a.dim)
        new = [t - k for t in rref(Mat(a.p, np.vstack([vecs, prods]).T))[1] if t >= k]
        if not new:
            return None
        pivots += range(k, k + len(new))  # each new vector lies past every earlier one
        vecs = np.vstack([vecs, prods[new]])
        imgs = np.vstack([imgs, _products(b.p, b.structconst, imgs, imgs).reshape(k * k, b.dim)[new]])
    v_inv = inverse(Mat(a.p, vecs[pivots].T))
    return None if v_inv is None else Mat(b.p, imgs[pivots].T) @ v_inv


def _scalar_assignments(p: int, n_arrows: int):
    """Nonzero-scalar tuples for the arrow images: all-ones first, then every
    other tuple when there are at most 1024 of them."""
    ones = (1,) * n_arrows
    yield ones
    if (p - 1) ** n_arrows <= 1024:
        for combo in itertools.product(range(1, p), repeat=n_arrows):
            if combo != ones:
                yield combo


def algebra_iso_search(a: Alg, b: Alg) -> AlgIso | None:
    """Search for an algebra isomorphism a -> b.

    Strategy: match dimensions, match the Peirce slice dimensions of the
    radical filtration up to a permutation of idempotents, then extend
    idempotent and arrow-generator images multiplicatively, with the arrow
    images scaled by every tuple of nonzero scalars.  Returned isomorphisms
    are always verified; the search is complete for the basic algebras in
    scope (all Peirce slices of rad/rad^2 at most 1-dimensional).  When the
    scalar tuples number more than 1024 only the all-ones tuple is tried, and
    a search that then finds nothing raises GuardError instead of answering
    None.
    """
    if a.p != b.p or a.dim != b.dim:
        return None
    if len(a.idempotents) != len(b.idempotents):
        return None
    dims_a = _slice_dims(a)
    dims_b = _slice_dims(b)
    if len(dims_a) != len(dims_b):
        return None
    try:
        arrows_a = _arrow_slices(a)
        arrows_b = _arrow_slices(b)
    except ValidationError:
        return None
    m = len(a.idempotents)
    arrow_keys = sorted(arrows_a)
    partial = False
    for sigma in itertools.permutations(range(m)):
        if not all(
            da[i, j] == db[sigma[i], sigma[j]]
            for da, db in zip(dims_a, dims_b)
            for i in range(m)
            for j in range(m)
        ):
            continue
        if sorted((sigma[i], sigma[j]) for i, j in arrow_keys) != sorted(arrows_b):
            continue
        partial = partial or (a.p - 1) ** len(arrow_keys) > 1024
        for scalars in _scalar_assignments(a.p, len(arrow_keys)):
            gens: list[tuple[np.ndarray, np.ndarray]] = []
            for i in range(m):
                gens.append((a.idempotents[i], b.idempotents[sigma[i]]))
            for (i, j), lam in zip(arrow_keys, scalars):
                gens.append((arrows_a[(i, j)], (arrows_b[(sigma[i], sigma[j])] * lam) % b.p))
            phi = _close_under_products(a, b, gens)
            if phi is None:
                continue
            phi_inv = inverse(phi)
            if phi_inv is None:
                continue
            if _is_algebra_map(a, b, phi) and _is_algebra_map(b, a, phi_inv):
                return AlgIso(forward=phi, backward=phi_inv)
    if partial:
        raise GuardError(
            f"algebra isomorphism search: {a.p - 1}^{len(arrow_keys)} arrow scalings exceed the 1024 sweep"
        )
    return None


# -- JSON description format --------------------------------------------------


def algebra_to_json(alg: Alg) -> dict:
    """Serializable description: sparse structure constants as [i, j, k, value]."""
    entries = [
        [int(i), int(j), int(k), int(alg.structconst[i, j, k])]
        for i, j, k in zip(*np.nonzero(alg.structconst))
    ]
    return {
        "name": alg.name,
        "prime": alg.p,
        "dim": alg.dim,
        "labels": list(alg.labels),
        "structconst": entries,
        "unit": [int(x) for x in alg.unit],
        "idempotents": [[int(x) for x in e] for e in alg.idempotents],
        "radical": [[int(x) for x in alg.radical.a[:, t]] for t in range(alg.radical.cols)],
    }


def _json_field(data: dict, field: str, default=None):
    if field in data:
        return data[field]
    if default is None:
        raise ValidationError(f"JSON is missing field {field!r}", witness=field)
    return default


def _json_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"JSON field {field!r} must be an integer, got {value!r}", witness=field)
    return int(value)


def _json_ints(value, field: str, length: int) -> list[int]:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ValidationError(f"JSON field {field!r} must be a list of {length} integers", witness=field)
    return [_json_int(x, field) for x in value]


def _json_vectors(data: dict, field: str, dim: int) -> list[list[int]]:
    value = _json_field(data, field, [])
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"algebra JSON field {field!r} must be a list", witness=field)
    return [_json_ints(v, f"{field}[{t}]", dim) for t, v in enumerate(value)]


def algebra_from_json(data: dict) -> Alg:
    """Rebuild and re-validate an algebra.

    Every field is checked before it is used: a missing or malformed field
    raises ValidationError whose witness names it (``structconst[3]`` for the
    fourth entry); a bad prime raises as in ``validate_prime``.
    """
    if not isinstance(data, dict):
        raise ValidationError("algebra JSON must be an object")
    p = _json_int(_json_field(data, "prime"), "prime")
    validate_prime(p)
    dim = _json_int(_json_field(data, "dim"), "dim")
    if dim < 1:
        raise ValidationError(f"algebra JSON field 'dim' must be positive, got {dim}", witness="dim")
    entries = _json_field(data, "structconst")
    if not isinstance(entries, (list, tuple)):
        raise ValidationError("algebra JSON field 'structconst' must be a list", witness="structconst")
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    for t, entry in enumerate(entries):
        field = f"structconst[{t}]"
        i, j, k, v = _json_ints(entry, field, 4)
        if not all(0 <= x < dim for x in (i, j, k)):
            raise ValidationError(f"algebra JSON field {field!r} has an index outside [0, {dim})", witness=field)
        c[i, j, k] = v % p
    unit = _json_ints(_json_field(data, "unit"), "unit", dim)
    idempotents = _json_vectors(data, "idempotents", dim)
    rad_cols = _json_vectors(data, "radical", dim)
    labels = data.get("labels")
    if labels is not None and (
        not isinstance(labels, (list, tuple)) or len(labels) != dim or not all(isinstance(x, str) for x in labels)
    ):
        raise ValidationError(f"algebra JSON field 'labels' must be a list of {dim} strings", witness="labels")
    name = data.get("name", "algebra")
    if not isinstance(name, str):
        raise ValidationError("algebra JSON field 'name' must be a string", witness="name")
    rad = np.array(rad_cols, dtype=np.int64).T.reshape(dim, len(rad_cols))
    return make_algebra(dim, c, unit, idempotents, Mat(p, rad), p, labels=labels, name=name)
