"""Exact dense linear algebra over a prime field F_p.

Everything downstream (module categories, complexes, derived Homs) bottoms
out in the four workhorses here: ``rref``, ``kernel_basis``, ``solve`` and
``quotient_structure``, each one elimination (``quotient_structure`` adds a
one-product certificate); a submodule, quotient or cohomology group is
presented from one of them.  Matrices are small at desk scale (at most ~100
columns), so storage is dense int64 numpy arrays with entries reduced mod p.

Elimination runs on Python-int rows (``ndarray.tolist``), not numpy calls:
the typical system is a 10 x 10 to 10 x 20 matrix at p = 2 or 3 with a fifth
of its entries nonzero, where per-call overhead outweighs vector width (the
MeatAxe setting of many small sparse eliminations).  Only rows with a
nonzero entry in the pivot column are updated, and Python ints cannot
overflow at any p.  Pivoting is deterministic (first nonzero entry in column
order), so every output is reproducible; the reduced row echelon form is
unique anyway.  Dense large systems pay for this: a random 100 x 100 matrix
at p = 101 takes about 12 times as long as with a numpy row-update loop
(``BENCH_5.json``); no suite builds one.

The modulus is bounded by ``MAX_PRIME`` = 2^21: a product of two n x n
matrices then sums n * (p-1)^2 < 2^63 for every n < 2^21, so int64 never
overflows.  Larger moduli raise ``GuardError`` instead of returning
wrapped-around entries.
"""

from __future__ import annotations

import functools

import numpy as np

from homcat.errors import GuardError

__all__ = [
    "MAX_PRIME",
    "Mat",
    "is_prime",
    "validate_prime",
    "rref",
    "rank",
    "is_invertible",
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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=64)  # every Mat construction validates its modulus
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: its twelve prime bases are proven exact for n < 2^64."""
    n = int(n)
    if n >= 2**64:
        raise GuardError(f"is_prime is proven exact only below 2**64, got {n}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


MAX_PRIME = 2**21


def validate_prime(p: int) -> None:
    """Raise ValueError unless p is a prime integer, GuardError above MAX_PRIME."""
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")
    if p > MAX_PRIME:
        raise GuardError(f"modulus {p} exceeds MAX_PRIME = 2**21; int64 products could overflow")
    if not is_prime(int(p)):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")


class Mat:
    """Immutable dense matrix over F_p.

    Wraps an int64 numpy array with all entries reduced into [0, p).  The
    array is marked read-only; arithmetic returns new matrices.
    """

    __slots__ = ("p", "a")

    def __init__(self, p: int, a) -> None:
        validate_prime(p)
        arr = np.asarray(a)
        if arr.dtype.kind in "fc" and arr.size:  # an empty float array truncates nothing
            raise ValueError(f"matrix entries must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        arr = np.mod(arr, p)
        arr.flags.writeable = False
        self.p = int(p)
        self.a = arr

    @classmethod
    def _reduced(cls, p: int, arr: np.ndarray) -> "Mat":
        """Wrap an int64 array already reduced mod an already validated p."""
        m = cls.__new__(cls)
        arr.flags.writeable = False
        m.p = p
        m.a = arr
        return m

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

    def _check(self, other: "Mat", op: str | None = None) -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")
        if op is not None and self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} {op} {other.shape}")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Mat._reduced(self.p, (self.a @ other.a) % self.p)

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other, "+")
        return Mat._reduced(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other, "-")
        return Mat._reduced(self.p, (self.a - other.a) % self.p)

    def __neg__(self) -> "Mat":
        return Mat._reduced(self.p, -self.a % self.p)

    def scale(self, k: int) -> "Mat":
        return Mat._reduced(self.p, self.a * (int(k) % self.p) % self.p)

    def transpose(self) -> "Mat":
        return Mat._reduced(self.p, self.a.T)

    def power(self, e: int) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if e < 0:
            raise ValueError(f"negative matrix power {e}")
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
        return Mat._reduced(self.p, self.a[:, idx].reshape(self.rows, len(idx)))

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (
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


def _common_modulus(mats: list[Mat], op: str) -> int:
    if not mats:
        raise ValueError(f"{op} of empty list")
    moduli = {m.p for m in mats}
    if len(moduli) != 1:
        raise ValueError(f"{op} of mixed moduli {sorted(moduli)}")
    return mats[0].p


def hstack(mats: list[Mat]) -> Mat:
    return Mat._reduced(_common_modulus(mats, "hstack"), np.hstack([m.a for m in mats]))


def vstack(mats: list[Mat]) -> Mat:
    return Mat._reduced(_common_modulus(mats, "vstack"), np.vstack([m.a for m in mats]))


def block_diag(mats: list[Mat], p: int | None = None) -> Mat:
    if not mats:
        if p is None:
            raise ValueError("block_diag of empty list needs an explicit modulus")
        return Mat.zeros(p, 0, 0)
    p = _common_modulus(mats, "block_diag")
    r = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    out = np.zeros((r, c), dtype=np.int64)
    i = j = 0
    for m in mats:
        out[i : i + m.rows, j : j + m.cols] = m.a
        i += m.rows
        j += m.cols
    return Mat._reduced(p, out)


# -- elimination ------------------------------------------------------------


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """In-place reduced row echelon form of ``a`` (entries in [0, p)); returns pivots."""
    rows = a.tolist()
    n = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(a.shape[1]):
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        row = rows[i]
        rows[i] = rows[r]
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            row = [x * inv % p for x in row]
        rows[r] = row
        for k, other in enumerate(rows):
            f = other[c]
            if f and k != r:
                rows[k] = [(x - f * y) % p for x, y in zip(other, row)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    if pivots:
        a[...] = rows
    return a, pivots


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the strictly increasing pivot columns."""
    a, pivots = _rref_array(m.a.copy(), m.p)
    return Mat._reduced(m.p, a), tuple(pivots)


def rank(m: Mat) -> int:
    return len(_rref_array(m.a.copy(), m.p)[1])


def is_invertible(m: Mat) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the right null space {x : m @ x = 0}.

    Echelon contract, which ``modules.hom_coords`` reads coordinates by: each
    column is 1 at its last nonzero row, and every other column is 0 there.
    """
    r, pivots = rref(m)
    p = m.p
    free = sorted(set(range(m.cols)).difference(pivots))
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[list(pivots), :] = -r.a[: len(pivots), free] % p
    return Mat._reduced(p, basis)


def solve(a: Mat, b: Mat) -> Mat | None:
    """A particular solution X of a @ X = b, or None if inconsistent."""
    a._check(b)
    if a.rows != b.rows:
        raise ValueError(f"solve: row mismatch {a.rows} vs {b.rows}")
    red, pivots = _rref_array(np.hstack([a.a, b.a]), a.p)
    n = a.cols
    if any(pc >= n for pc in pivots):
        return None
    x = np.zeros((n, b.cols), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc, :] = red[i, n:]
    return Mat._reduced(a.p, x)


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


def quotient_structure(ambient_dim: int, sub: Mat) -> tuple[Mat, Mat]:
    """Projection and section presenting F_p^n / span(sub), from one ``rref``.

    Returns (proj, section) with proj: F^n -> F^(n-r) whose kernel is exactly
    the column span of ``sub``, and proj @ section the identity of the
    quotient.  ``sub`` may have dependent columns.  The pivots of the rref R of
    sub^T are the pivot coordinates of the span; section is the unit columns
    at the other (free) coordinates, and proj is the unit rows there with
    -R[:, free]^T at the pivot columns, the one map that kills every row of R
    and inverts section; one product, proj @ [sub | section] == [0 | I], checks it.
    """
    p = sub.p
    n = ambient_dim
    if sub.rows != n:
        raise ValueError(f"subspace lives in dim {sub.rows}, ambient is {n}")
    red, pivots = rref(sub.transpose())
    free = sorted(set(range(n)).difference(pivots))
    section = np.zeros((n, len(free)), dtype=np.int64)
    section[free, range(len(free))] = 1
    proj = section.T.copy()
    proj[:, list(pivots)] = -red.a[: len(pivots), free].T % p
    cert = proj @ np.hstack([sub.a, section]) % p
    if cert[:, : sub.cols].any() or not np.array_equal(cert[:, sub.cols :], np.eye(len(free), dtype=np.int64)):
        raise ValueError("internal error: quotient projection failed its certificate")
    return Mat._reduced(p, proj), Mat._reduced(p, section)


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
