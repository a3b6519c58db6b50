"""Exact dense linear algebra over a prime field F_p.

Everything downstream (module categories, complexes, derived Homs) bottoms
out in the four workhorses here: ``rref``, ``kernel_basis``, ``solve`` and
``quotient_structure``.  Matrices are small at desk scale (at most ~100
columns), so storage is dense int64 numpy arrays with entries reduced mod p,
and elimination uses deterministic pivoting (first nonzero entry in column
order) so every output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Fp",
    "Mat",
    "is_prime",
    "validate_prime",
    "inv_mod",
    "rref",
    "rank",
    "kernel_basis",
    "solve",
    "inverse",
    "column_space",
    "quotient_structure",
    "in_column_span",
    "hstack",
    "vstack",
    "block_diag",
    "is_nilpotent",
]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def validate_prime(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or not is_prime(int(p)):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")


_INV_TABLES: dict[int, np.ndarray] = {}


def _inv_table(p: int) -> np.ndarray:
    """Table of multiplicative inverses mod p (index 0 unused)."""
    tab = _INV_TABLES.get(p)
    if tab is None:
        tab = np.zeros(p, dtype=np.int64)
        for x in range(1, p):
            tab[x] = pow(x, p - 2, p)
        _INV_TABLES[p] = tab
    return tab


def inv_mod(x: int, p: int) -> int:
    x = int(x) % p
    if x == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return int(_inv_table(p)[x])


@dataclass(frozen=True)
class Fp:
    """A residue in the prime field F_p."""

    residue: int
    p: int

    def __post_init__(self):
        validate_prime(self.p)
        object.__setattr__(self, "residue", int(self.residue) % self.p)

    def _check(self, other: "Fp") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.residue + other.residue, self.p)

    def __sub__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.residue - other.residue, self.p)

    def __mul__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.residue * other.residue, self.p)

    def __neg__(self) -> "Fp":
        return Fp(-self.residue, self.p)

    def inv(self) -> "Fp":
        return Fp(inv_mod(self.residue, self.p), self.p)

    def __bool__(self) -> bool:
        return self.residue != 0


class Mat:
    """Immutable dense matrix over F_p.

    Wraps an int64 numpy array with all entries reduced into [0, p).  The
    array is marked read-only; arithmetic returns new matrices.
    """

    __slots__ = ("p", "a")

    def __init__(self, p: int, a) -> None:
        validate_prime(p)
        arr = np.asarray(a, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        arr = np.mod(arr, p)
        arr.flags.writeable = False
        self.p = int(p)
        self.a = arr

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Mat":
        return Mat(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "Mat":
        return Mat(p, np.eye(n, dtype=np.int64))

    @staticmethod
    def from_rows(p: int, rows) -> "Mat":
        rows = list(rows)
        if not rows:
            return Mat.zeros(p, 0, 0)
        return Mat(p, np.array(rows, dtype=np.int64))

    @staticmethod
    def column(p: int, entries) -> "Mat":
        return Mat(p, np.asarray(entries, dtype=np.int64).reshape(-1, 1))

    # -- shape -------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Mat") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Mat(self.p, (self.a @ other.a) % self.p)

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat(self.p, self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat(self.p, self.a.astype(np.int64) - other.a)

    def __neg__(self) -> "Mat":
        return Mat(self.p, -self.a.astype(np.int64))

    def scale(self, k: int) -> "Mat":
        return Mat(self.p, self.a * (int(k) % self.p))

    def transpose(self) -> "Mat":
        return Mat(self.p, self.a.T)

    def power(self, e: int) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        result = Mat.identity(self.p, self.rows)
        base = self
        while e > 0:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def take_columns(self, idx) -> "Mat":
        idx = list(idx)
        return Mat(self.p, self.a[:, idx].reshape(self.rows, len(idx)))

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"Mat(p={self.p}, {self.rows}x{self.cols})\n{self.a}"

    def key(self) -> bytes:
        """Canonical byte key (shape + entries); used for dedup sets."""
        return self.shape[0].to_bytes(4, "little") + self.shape[1].to_bytes(4, "little") + self.a.tobytes()


def hstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("hstack of empty list")
    p = mats[0].p
    return Mat(p, np.hstack([m.a for m in mats]))


def vstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack of empty list")
    p = mats[0].p
    return Mat(p, np.vstack([m.a for m in mats]))


def block_diag(mats: list[Mat], p: int | None = None) -> Mat:
    if not mats:
        if p is None:
            raise ValueError("block_diag of empty list needs an explicit modulus")
        return Mat.zeros(p, 0, 0)
    p = mats[0].p
    r = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    out = np.zeros((r, c), dtype=np.int64)
    i = j = 0
    for m in mats:
        out[i : i + m.rows, j : j + m.cols] = m.a
        i += m.rows
        j += m.cols
    return Mat(p, out)


# -- elimination ------------------------------------------------------------


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """In-place reduced row echelon form of ``a`` mod p; returns pivots."""
    inv = _inv_table(p)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr], :] = a[[pr, r], :]
        a[r, :] = (a[r, :] * inv[a[r, c]]) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r, :])
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the strictly increasing pivot columns."""
    a = m.a.copy()
    a, pivots = _rref_array(a, m.p)
    return Mat(m.p, a), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the right null space {x : m @ x = 0}."""
    r, pivots = rref(m)
    p = m.p
    free = [c for c in range(m.cols) if c not in set(pivots)]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(r.a[i, f])) % p
    return Mat(p, basis)


def solve(a: Mat, b: Mat) -> Mat | None:
    """A particular solution X of a @ X = b, or None if inconsistent."""
    a._check(b)
    if a.rows != b.rows:
        raise ValueError(f"solve: row mismatch {a.rows} vs {b.rows}")
    aug = np.hstack([a.a, b.a]).copy()
    red, pivots = _rref_array(aug, a.p)
    n = a.cols
    if any(pc >= n for pc in pivots):
        return None
    x = np.zeros((n, b.cols), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc, :] = red[i, n:]
    return Mat(a.p, x)


def inverse(m: Mat) -> Mat | None:
    """Two-sided inverse, or None if m is singular (square input only)."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    x = solve(m, Mat.identity(m.p, m.rows))
    if x is None:
        return None
    if not np.array_equal((x.a @ m.a) % m.p, np.eye(m.rows, dtype=np.int64)):
        return None
    return x


def column_space(m: Mat) -> Mat:
    """Basis of the column span: the pivot columns of ``m`` itself."""
    _, pivots = rref(m)
    return m.take_columns(pivots)


def in_column_span(basis: Mat, vecs: Mat) -> bool:
    return solve(basis, vecs) is not None


def span_key(m: Mat) -> bytes:
    """Canonical key of the column span (column-reduced basis bytes)."""
    red, pivots = rref(Mat(m.p, m.a.T))
    return Mat(m.p, red.a[: len(pivots), :]).key()


def quotient_structure(ambient_dim: int, sub: Mat) -> tuple[Mat, Mat]:
    """Projection and section presenting F_p^n / span(sub).

    Returns (proj, section) with proj: F^n -> F^(n-r) whose kernel is exactly
    the column span of ``sub``, and proj @ section the identity of the
    quotient.  ``sub`` may have dependent columns; it is reduced internally.
    """
    p = sub.p
    n = ambient_dim
    if sub.rows != n:
        raise ValueError(f"subspace lives in dim {sub.rows}, ambient is {n}")
    basis = column_space(sub)
    r = basis.cols
    # pivot coordinates of the span, found on the transpose
    _, pivot_coords = rref(Mat(p, basis.a.T))
    free = [i for i in range(n) if i not in set(pivot_coords)]
    # complement spanned by standard basis vectors at the free coordinates
    comp = np.zeros((n, n - r), dtype=np.int64)
    for k, f in enumerate(free):
        comp[f, k] = 1
    full = Mat(p, np.hstack([basis.a, comp]))
    full_inv = inverse(full)
    if full_inv is None:  # complement choice always works; defensive
        raise ValueError("internal error: complement did not complete a basis")
    proj = Mat(p, full_inv.a[r:, :])
    section = Mat(p, comp)
    return proj, section


def is_nilpotent(m: Mat) -> bool:
    if m.rows != m.cols:
        raise ValueError("nilpotence of a non-square matrix")
    if m.rows == 0:
        return True
    e = 1
    x = m
    while e < m.rows:
        x = x @ x
        e *= 2
    return x.is_zero()
