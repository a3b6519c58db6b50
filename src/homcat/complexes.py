"""Bounded complexes of modules, chain maps, homotopies, and Hom complexes.

Sign conventions, fixed once and used everywhere:

* shift:        d_{Sigma^k X}^n = (-1)^k d_X^{n+k}
* cone(f)^n  =  X^{n+1} (+) Y^n  with differential  [[-d_X, 0], [f, d_Y]]
* homotopy:     phi^n - psi^n = d_Y^{n-1} h^n + h^{n+1} d_X^n
* Hom complex:  (D phi)^(j) = d_y phi^(j) - (-1)^n phi^(j+1) d_x
* squares:      left o w o right - target = d s + s d  (``solve_squares``)

With these choices the long exact sequence of a cone and the rotation axiom
hold with no case analysis.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from homcat.algebras import Alg, preset
from homcat.errors import ValidationError
from homcat.linalg import (
    Mat,
    block_diag,
    hstack,
    kernel_basis,
    quotient_structure,
    rank,
    solve,
    vstack,
)
from homcat.modules import (
    MMap,
    Mod,
    _block_inclusion,
    _block_projection,
    _block_sum,
    _hom_basis,
    hom_coords,
    make_module,
    submodule,
    zero_module,
)

__all__ = [
    "Cx",
    "CMap",
    "Htp",
    "make_complex",
    "stalk",
    "shift",
    "shift_map",
    "cohomology_data",
    "cohomology_dim",
    "cohomology_dims",
    "cohomology_map",
    "cone_complex",
    "null_homotopy",
    "squares_system",
    "solve_squares",
    "lift_map",
    "hom_complex",
    "HomComplex",
    "hom_k_dim",
    "chain_map_basis",
    "truncate",
    "direct_sum_cx",
    "euler_characteristic",
]


@dataclass(frozen=True, eq=False)
class Cx:
    """A bounded complex: objects[k] sits in degree lo + k.

    Zero outside the stored window; construction trims zero ends, so the
    zero complex has an empty object tuple.
    """

    alg: Alg
    lo: int
    objects: tuple[Mod, ...]
    diffs: tuple[MMap, ...]  # diffs[k]: objects[k] -> objects[k+1]

    @property
    def hi(self) -> int:
        return self.lo + len(self.objects) - 1

    def degrees(self) -> range:
        return range(self.lo, self.lo + len(self.objects))

    def obj(self, n: int) -> Mod:
        if self.lo <= n <= self.hi:
            return self.objects[n - self.lo]
        return zero_module(self.alg)

    def diff(self, n: int) -> MMap:
        k = n - self.lo
        return self.diffs[k] if 0 <= k < len(self.diffs) else MMap.zero(self.obj(n), self.obj(n + 1))

    def _dmat(self, n: int) -> Mat:
        """The matrix of d^n; a zero matrix, with no zero map built, outside the window."""
        k = n - self.lo
        return self.diffs[k].mat if 0 <= k < len(self.diffs) else _zeros(self.obj(n), self.obj(n + 1))

    def _darr(self, n: int) -> np.ndarray | None:
        """The array of d^n, or None outside the window, where d^n is zero."""
        k = n - self.lo
        return self.diffs[k].mat.a if 0 <= k < len(self.diffs) else None

    def is_zero(self) -> bool:
        return not self.objects

    def total_dim(self) -> int:
        return sum(m.dim for m in self.objects)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cx)
            and self.alg == other.alg
            and (self.is_zero() and other.is_zero() or self.lo == other.lo)
            and self.objects == other.objects
            and self.diffs == other.diffs
        )

    def __hash__(self) -> int:
        return hash((self.lo, tuple(m.dim for m in self.objects)))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Cx(0 over {self.alg.name})"
        dims = ", ".join(f"{n}:{self.obj(n).dim}" for n in self.degrees())
        return f"Cx([{dims}] over {self.alg.name})"


def make_complex(alg: Alg, lo: int, objects, diffs) -> Cx:
    """Validate endpoints and d o d = 0 (witness degree reported), trim zero ends."""
    objects = list(objects)
    diffs = list(diffs)
    if objects and len(diffs) != len(objects) - 1:
        raise ValidationError(
            f"need {len(objects) - 1} differentials for {len(objects)} objects, got {len(diffs)}"
        )
    for k, d in enumerate(diffs):
        if d.src != objects[k] or d.dst != objects[k + 1]:
            raise ValidationError(f"differential {lo + k} has mismatched endpoints")
    for k in range(len(diffs) - 1):
        if not (diffs[k + 1] @ diffs[k]).is_zero():
            raise ValidationError(
                f"d o d != 0 at degree {lo + k}", witness=lo + k
            )
    # trim zero modules at both ends
    while objects and objects[0].dim == 0:
        objects.pop(0)
        if diffs:
            diffs.pop(0)
        lo += 1
    while objects and objects[-1].dim == 0:
        objects.pop()
        if diffs:
            diffs.pop()
    if not objects:
        return Cx(alg=alg, lo=0, objects=(), diffs=())
    return Cx(alg=alg, lo=lo, objects=tuple(objects), diffs=tuple(diffs))


def stalk(m: Mod, degree: int = 0) -> Cx:
    """The complex with m in one degree and zero elsewhere."""
    return make_complex(m.alg, degree, [m], [])


def zero_complex(alg: Alg) -> Cx:
    return Cx(alg=alg, lo=0, objects=(), diffs=())


def shift(x: Cx, k: int) -> Cx:
    """(Sigma^k X)^n = X^(n+k), differential scaled by (-1)^k."""
    if x.is_zero() or k == 0:
        return x
    sign = 1 if k % 2 == 0 else -1
    diffs = tuple(MMap(d.src, d.dst, d.mat.scale(sign)) for d in x.diffs)
    return Cx(alg=x.alg, lo=x.lo - k, objects=x.objects, diffs=diffs)


@dataclass(frozen=True, eq=False)
class CMap:
    """A chain map commuting with differentials; only its support is stored, and
    the checks and algebra below run over it (a missing component is zero)."""

    src: Cx
    dst: Cx
    comps: dict  # degree -> MMap

    def __post_init__(self):
        x, y = self.src, self.dst
        for n, f in self.comps.items():
            if f.src != x.obj(n) or f.dst != y.obj(n):
                raise ValidationError(f"component {n} has mismatched endpoints")
        f = _arrays(self.comps)
        for n in sorted(_reach(f)):  # both sides vanish elsewhere
            if _nonzero(x.alg.p, [(+1, f.get(n + 1), x._darr(n)), (-1, y._darr(n), f.get(n))]):
                raise ValidationError(f"chain condition fails at degree {n}", witness=n)

    def _mat(self, n: int) -> Mat:
        f = self.comps.get(n)
        return f.mat if f is not None else _zeros(self.src.obj(n), self.dst.obj(n))

    def component(self, n: int) -> MMap:
        return self.comps.get(n) or MMap.zero(self.src.obj(n), self.dst.obj(n))

    def __matmul__(self, other: "CMap") -> "CMap":
        if other.dst != self.src:
            raise ValidationError("chain map composition endpoint mismatch")
        a, b = self.comps, other.comps
        return CMap.build(other.src, self.dst, {n: a[n] @ b[n] for n in sorted(a.keys() & b.keys())})

    def __add__(self, other: "CMap") -> "CMap":
        a, b = self.comps, other.comps
        comps = {n: a[n] + b[n] if n in a and n in b else a.get(n) or b[n] for n in sorted(a.keys() | b.keys())}
        return CMap(self.src, self.dst, comps)

    def __sub__(self, other: "CMap") -> "CMap":
        return self + (-other)

    def __neg__(self) -> "CMap":
        return CMap(self.src, self.dst, {n: -f for n, f in self.comps.items()})

    def scale(self, k: int) -> "CMap":
        return CMap(self.src, self.dst, {n: f.scale(k) for n, f in self.comps.items()})

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.comps.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CMap) or self.src != other.src or self.dst != other.dst:
            return False
        a, b = self.comps, other.comps
        return all(
            a[n].mat == b[n].mat if n in a and n in b else (a.get(n) or b[n]).is_zero()  # stored once: must be zero
            for n in a.keys() | b.keys()
        )

    def __hash__(self):
        # zero components are skipped: a map equals itself with explicit zeros added
        return hash(tuple(sorted((n, f.mat) for n, f in self.comps.items() if not f.is_zero())))

    @staticmethod
    def identity(x: Cx) -> "CMap":
        return CMap(x, x, {n: MMap.identity(x.obj(n)) for n in x.degrees()})

    @staticmethod
    def zero(src: Cx, dst: Cx) -> "CMap":
        return CMap(src, dst, {})

    @staticmethod
    def build(src: Cx, dst: Cx, comps: dict) -> "CMap":
        return CMap(src, dst, _trim(dict(comps)))


def _zeros(src: Mod, dst: Mod) -> Mat:
    return Mat._reduced(src.alg.p, np.zeros((dst.dim, src.dim), dtype=np.int64))


def _reach(comps: dict) -> set:
    """Degrees n with n or n + 1 in the support; elsewhere every term at degree n is zero."""
    return {m for k in comps for m in (k - 1, k)}


def _arrays(comps: dict) -> dict:
    """Degree -> the array of each stored component."""
    return {n: f.mat.a for n, f in comps.items()}


def _nonzero(p: int, terms) -> bool:
    """Whether the signed sum of the products in ``terms`` is nonzero mod p.

    Each term is (sign, *factors); a None factor is an absent, zero component,
    so its product is never formed.
    """
    total = None
    for sign, *factors in terms:
        if all(a is not None for a in factors):
            term = sign * (reduce(np.matmul, factors) % p)
            total = term if total is None else total + term
    return total is not None and bool((total % p).any())


def _combined_degrees(x: Cx, y: Cx) -> range:
    cs = [c for c in (x, y) if not c.is_zero()]
    return range(min(c.lo for c in cs), max(c.hi for c in cs) + 1) if cs else range(0)


def _cmap_of(src: Cx, dst: Cx, block) -> CMap:
    """The chain map with the matrix block(n) in each degree n where src and dst are nonzero."""
    return CMap.build(src, dst, {
        n: MMap(src.obj(n), dst.obj(n), block(n))
        for n in _combined_degrees(src, dst)
        if src.obj(n).dim and dst.obj(n).dim
    })


def _trim(comps: dict) -> dict:
    return {n: f for n, f in comps.items() if f.mat.rows and f.mat.cols}


def shift_map(f: CMap, k: int) -> CMap:
    """Sigma^k f: components reindexed, no sign on the map itself."""
    return CMap.build(
        shift(f.src, k), shift(f.dst, k), {n - k: g for n, g in f.comps.items()}
    )


@dataclass(frozen=True, eq=False)
class Htp:
    """A homotopy certificate: phi - psi = d h + h d, verified on construction."""

    phi: CMap
    psi: CMap
    comps: dict  # degree n -> MMap: X^n -> Y^(n-1)

    def __post_init__(self):
        x, y = self.phi.src, self.phi.dst
        if self.psi.src != x or self.psi.dst != y:
            raise ValidationError("homotopy endpoints do not match the two maps")
        for n, h in self.comps.items():
            if h.src != x.obj(n) or h.dst != y.obj(n - 1):
                raise ValidationError(f"homotopy component {n} has wrong endpoints")
        phi, psi, h = _arrays(self.phi.comps), _arrays(self.psi.comps), _arrays(self.comps)
        for n in sorted(phi.keys() | psi.keys() | _reach(h)):
            dh, hd = (-1, y._darr(n - 1), h.get(n)), (-1, h.get(n + 1), x._darr(n))
            if _nonzero(x.alg.p, [(+1, phi.get(n)), (-1, psi.get(n)), dh, hd]):
                raise ValidationError(f"homotopy identity fails at degree {n}", witness=n)

    def component(self, n: int) -> MMap:
        return self.comps.get(n) or MMap.zero(self.phi.src.obj(n), self.phi.dst.obj(n - 1))

    @staticmethod
    def zero(phi: CMap, psi: CMap) -> "Htp":
        return Htp(phi, psi, {})


# -- degreewise linear solver ---------------------------------------------------


class DegreewiseSolver:
    """Joint linear solver for chain-map/homotopy systems.

    Variables are *module maps*: each ranges over the cached Hom basis stack
    of its Hom space (``modules._hom_basis``), so every solution component
    automatically intertwines the algebra action.  Equations are sums of
    terms L @ Var @ R equal to a right-hand side, flattened row-major into one
    F_p system over the coefficients.  Every variable is declared before the
    first equation, so each equation is one full-width block of rows.
    """

    def __init__(self, p: int):
        self.p = p
        self.bases: dict = {}  # key -> the (k, rows, cols) Hom basis stack
        self.offsets: dict = {}
        self.size = 0
        self.rows: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []

    def add_var(self, key, src: Mod, dst: Mod) -> None:
        """A variable ranging over Hom(src, dst)."""
        if key in self.bases:
            raise ValueError(f"duplicate variable {key}")
        if self.rows:
            raise ValueError(f"variable {key} declared after the first equation")
        basis = _hom_basis(src, dst)[0]
        self.bases[key] = basis
        self.offsets[key] = self.size
        self.size += len(basis)

    def add_eq(self, terms, rhs: Mat) -> None:
        """terms: iterable of (key, L: Mat|None, R: Mat|None, sign); a key
        never declared stands for a zero variable."""
        out_rows, out_cols = rhs.shape
        if out_rows * out_cols == 0:
            return
        row_block = np.zeros((out_rows * out_cols, self.size), dtype=np.int64)
        for key, left, right, sign in terms:
            basis = self.bases.get(key)
            if basis is None:
                continue
            k, vr, vc = basis.shape
            la = left.a if left is not None else np.eye(vr, dtype=np.int64)
            ra = right.a if right is not None else np.eye(vc, dtype=np.int64)
            if la.shape[1] != vr or ra.shape[0] != vc or la.shape[0] != out_rows or ra.shape[1] != out_cols:
                raise ValueError(
                    f"term shape mismatch for {key}: L{la.shape} V({vr},{vc}) R{ra.shape} "
                    f"-> want {(out_rows, out_cols)}"
                )
            images = (la @ basis % self.p) @ ra % self.p  # reduced between products: no int64 overflow
            off = self.offsets[key]
            row_block[:, off : off + k] += int(sign) * images.reshape(k, out_rows * out_cols).T
        self.rows.append(row_block % self.p)
        self.rhs.append(rhs.a.reshape(-1))

    def _decode(self, coeffs: np.ndarray) -> dict:
        """Each variable's matrix: its coefficients times its basis stack."""
        return {
            key: Mat(self.p, np.tensordot(coeffs[self.offsets[key] : self.offsets[key] + len(basis)], basis, axes=1))
            for key, basis in self.bases.items()
        }

    def _system(self) -> Mat:
        """All equations stacked, one reduced row block each."""
        return Mat._reduced(self.p, np.vstack([np.zeros((0, self.size), dtype=np.int64), *self.rows]))

    def solve(self) -> dict | None:
        """Combined matrices per key, or None when inconsistent."""
        target = np.concatenate([np.zeros(0, dtype=np.int64), *self.rhs])  # reduced: read off Mats
        sol = solve(self._system(), Mat._reduced(self.p, target.reshape(-1, 1)))
        return None if sol is None else self._decode(sol.a[:, 0])

    def nullspace(self) -> list[dict]:
        """A basis of the homogeneous solution space (right-hand sides ignored)."""
        basis_vecs = kernel_basis(self._system()).a
        return [self._decode(basis_vecs[:, t]) for t in range(basis_vecs.shape[1])]


def squares_system(ends: tuple[Cx, Cx] | None, squares) -> DegreewiseSolver:
    """The unsolved linear system behind ``solve_squares``.

    Unknowns, in column order: the components w^n (keys ``("w", n)``) when
    ``ends`` is given, constrained by the chain condition; then, square by
    square, the homotopy components s^n: X^n -> Y^(n-1) of square k (keys
    ``(k, n)``), where X -> Y are the endpoints of that square's target.
    All are declared before the first equation.
    """
    p = (ends[0] if ends is not None else squares[0][2].src).alg.p
    solver = DegreewiseSolver(p)
    if ends is not None:
        src, dst = ends
        for n in _combined_degrees(src, dst):
            if src.obj(n).dim and dst.obj(n).dim:
                solver.add_var(("w", n), src.obj(n), dst.obj(n))
    for k, (_, _, target) in enumerate(squares):
        x, y = target.src, target.dst
        for n in _combined_degrees(x, y):
            if x.obj(n).dim and y.obj(n - 1).dim:
                solver.add_var((k, n), x.obj(n), y.obj(n - 1))
    if ends is not None:
        for n in _combined_degrees(src, dst):
            rows, cols = dst.obj(n + 1).dim, src.obj(n).dim
            if rows and cols:
                solver.add_eq(
                    [
                        (("w", n + 1), None, src._dmat(n), +1),
                        (("w", n), dst._dmat(n), None, -1),
                    ],
                    Mat.zeros(p, rows, cols),
                )
    for k, (left, right, target) in enumerate(squares):
        x, y = target.src, target.dst
        for n in _combined_degrees(x, y):
            rows, cols = y.obj(n).dim, x.obj(n).dim
            if rows == 0 or cols == 0:
                continue
            terms = [((k, n), y._dmat(n - 1), None, +1), ((k, n + 1), None, x._dmat(n), +1)]
            lmat = left._mat(n) if left is not None else None
            rmat = right._mat(n) if right is not None else None
            if ends is not None:
                terms.append((("w", n), lmat, rmat, -1))
                solver.add_eq(terms, -target._mat(n))
            else:
                known = [m for m in (lmat, rmat) if m is not None]
                const = reduce(operator.matmul, known) if known else Mat.identity(p, cols)
                solver.add_eq(terms, const - target._mat(n))
    return solver


def solve_squares(
    ends: tuple[Cx, Cx] | None, squares
) -> tuple[CMap | None, list[Htp]] | None:
    """Solve jointly for a chain map w and one homotopy per square.

    ``ends`` is (source, target) of w, or None for no w.  Each square is
    ``(left, right, target)`` with chain maps, None standing for an identity,
    and asks for s with left o w o right - target = d s + s d (left o right
    when there is no w; so ``(phi, None, psi)`` certifies phi ~ psi).
    Returns w (None without ends) with one verified Htp per square, or None:
    exactly when the linear system has no solution.
    """
    sol = squares_system(ends, squares).solve()
    if sol is None:
        return None
    w = None
    if ends is not None:
        src, dst = ends
        w_comps = {n: MMap(src.obj(n), dst.obj(n), m) for (key, n), m in sol.items() if key == "w"}
        w = CMap.build(src, dst, w_comps)
    htps = []
    for k, (left, right, target) in enumerate(squares):
        x, y = target.src, target.dst
        known = [f for f in (left, w, right) if f is not None]
        phi = reduce(operator.matmul, known) if known else CMap.identity(x)
        comps = {n: MMap(x.obj(n), y.obj(n - 1), m) for (j, n), m in sol.items() if j == k}
        htps.append(Htp(phi, target, comps))
    return w, htps


def lift_map(src: Mod, dst: Mod, rhs: Mat, left: Mat | None = None, right: Mat | None = None) -> MMap | None:
    """A module map v: src -> dst with left @ v @ right = rhs (None standing
    for an identity), or None: exactly when no such map exists."""
    solver = DegreewiseSolver(src.alg.p)
    solver.add_var("v", src, dst)
    solver.add_eq([("v", left, right, +1)], rhs)
    sol = solver.solve()
    return None if sol is None else MMap(src, dst, sol["v"])


def null_homotopy(phi: CMap, psi: CMap | None = None) -> Htp | None:
    """A verified homotopy between phi and psi (default 0), or None.

    None is exact: the degreewise linear system for h is genuinely unsolvable.
    """
    if psi is None:
        psi = CMap.zero(phi.src, phi.dst)
    if phi.src != psi.src or phi.dst != psi.dst:
        raise ValidationError("maps must share endpoints")
    out = solve_squares(None, [(phi, None, psi)])
    return None if out is None else out[1][0]


# -- cohomology -------------------------------------------------------------------


@dataclass(frozen=True)
class CohomologyData:
    """H^n = ker d^n / im d^(n-1) with enough structure to induce maps."""

    module: Mod
    cocycles: Mat  # columns: basis of ker d^n in X^n coordinates
    proj: Mat  # cocycle coordinates -> H coordinates
    section: Mat  # H coordinates -> cocycle coordinates


@functools.lru_cache(maxsize=8)
def cohomology_data(x: Cx, n: int) -> CohomologyData:
    """H^n(x) as a module, with its cocycles and the maps between cocycle and
    cohomology coordinates.

    One ``solve`` against the cocycles Z gives the boundaries (which present
    the quotient) and the moved cocycles acts[i] @ Z (the action on Z) in Z
    coordinates; a failed solve is retried on the boundaries alone for its message.

    Cached (bounded): an induced map reads H^n of its source and target, and
    a run of maps between a few complexes reads each H^n once; an equal
    complex gets the value built for the first one seen.
    """
    p, acts = x.alg.p, x.obj(n).acts
    z = kernel_basis(x._dmat(n))
    boundaries = x._dmat(n - 1)
    if z.cols == 0:
        return CohomologyData(zero_module(x.alg), z, Mat.zeros(p, 0, 0), Mat.zeros(p, 0, 0))
    k, b = z.cols, boundaries.cols
    coords = solve(z, Mat._reduced(p, np.hstack([boundaries.a, *(acts @ z.a % p)])))
    if coords is None:
        if solve(z, boundaries) is None:
            raise ValidationError("boundaries escape cocycles; complex invalid")
        raise ValidationError("column span is not invariant under the action")
    proj, sec = quotient_structure(k, Mat._reduced(p, coords.a[:, :b]))
    z_action = coords.a[:, b:].reshape(k, len(acts), k).transpose(1, 0, 2)
    module = make_module(x.alg, (proj.a @ z_action % p) @ sec.a)
    return CohomologyData(module, z, proj, sec)


def cohomology_dim(x: Cx, n: int) -> int:
    """dim H^n = dim X^n - rank d^n - rank d^(n-1); make_complex checked d o d = 0."""
    return x.obj(n).dim - rank(x._dmat(n)) - rank(x._dmat(n - 1))


def cohomology_dims(x: Cx) -> dict[int, int]:
    return {n: cohomology_dim(x, n) for n in x.degrees()}


def cohomology_map(f: CMap, n: int) -> MMap:
    """The induced map H^n(src) -> H^n(dst)."""
    hx = cohomology_data(f.src, n)
    hy = cohomology_data(f.dst, n)
    if hx.module.dim == 0 or hy.module.dim == 0:
        return MMap.zero(hx.module, hy.module)
    image = f._mat(n) @ hx.cocycles
    in_zy = solve(hy.cocycles, image)
    if in_zy is None:
        raise ValidationError("chain map does not preserve cocycles")
    return MMap(hx.module, hy.module, hy.proj @ in_zy @ hx.section)


def euler_characteristic(x: Cx) -> int:
    return sum((1 if n % 2 == 0 else -1) * x.obj(n).dim for n in x.degrees())


# -- cones -------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeParts:
    """The structure maps of a mapping cone C(f)^n = X^(n+1) (+) Y^n.

    Any other map into or out of a cone is a block matrix in this layout,
    written by its caller.
    """

    iota: CMap  # Y -> C: the Y-columns of the identity
    pi: CMap  # C -> Sigma X: the X-rows of the identity


@functools.lru_cache(maxsize=8)
def cone_complex(f: CMap) -> tuple[Cx, ConeParts]:
    """The mapping cone with its inclusion iota and projection pi.

    Cached (bounded): ``Tri`` re-checks a triangle against the cone of its
    first map right after ``cone_triangle`` or ``certify_triangle`` built
    it, so the check reads the same cone.  An equal map gets the cone built
    for the first one seen, which equals its own.
    """
    x, y, sx = f.src, f.dst, shift(f.src, 1)
    degs = _combined_degrees(sx, y)
    mods = {n: _block_sum(x.alg, [x.obj(n + 1), y.obj(n)])[0] for n in degs}
    # d^n = [[-d_X^(n+1), 0], [f^(n+1), d_Y^n]] on x^(n+1) (+) y^n, one checked map per degree
    diffs = [
        MMap(mods[n], mods[n + 1], vstack([
            hstack([-x._dmat(n + 1), _zeros(y.obj(n), x.obj(n + 2))]),
            hstack([f._mat(n + 1), y._dmat(n)]),
        ]))
        for n in degs[:-1]
    ]
    cx = make_complex(x.alg, degs.start if len(degs) else 0, [mods[n] for n in degs], diffs)
    # trimming only drops zero-dimensional ends, where no component is built
    iota = {n: _block_inclusion(y.obj(n), mods[n], x.obj(n + 1).dim) for n in y.degrees()}
    pi = {n: _block_projection(mods[n], x.obj(n + 1), 0) for n in sx.degrees()}
    return cx, ConeParts(CMap.build(y, cx, iota), CMap.build(cx, sx, pi))


# -- Hom complexes ------------------------------------------------------------------


@dataclass(frozen=True)
class HomComplex:
    """The total Hom complex of two bounded complexes, over the ground field.

    Degree n gathers all module maps x^i -> y^(i+n); its basis is the
    concatenation of the nonempty Hom basis stacks in ``stacks[n]``.
    """

    cx: Cx
    source: Cx
    target: Cx
    stacks: dict  # degree n -> {source degree i: Hom basis stack of x^i -> y^(i+n)}

    def degree_dim(self, n: int) -> int:
        return _size(self.stacks.get(n, {}))

    def blocks(self, n: int) -> dict[int, slice]:
        """Source degree i -> the slice of the degree-n basis holding maps x^i -> y^(i+n)."""
        return _blocks(self.stacks.get(n, {}))

    def coords_of(self, n: int, comps: dict[int, MMap]) -> Mat:
        """Coordinates of a graded map (component dict) in the degree-n basis."""
        blocks = self.blocks(n)
        coords = np.zeros(self.degree_dim(n), dtype=np.int64)
        for i, f in comps.items():
            if f.src != self.source.obj(i) or f.dst != self.target.obj(i + n):
                raise ValidationError(
                    f"component at source degree {i} is not a map x^{i} -> y^{i + n}", witness=i
                )
            # a source degree without basis maps has an empty block: hom_coords admits only 0 there
            coords[blocks.get(i, slice(0))] = hom_coords(f.src, f.dst, f.mat.a[None])[0]
        return Mat._reduced(self.source.alg.p, coords.reshape(-1, 1))


def _size(stacks: dict) -> int:
    """The dimension of a Hom-complex degree."""
    return sum(map(len, stacks.values()))


def _blocks(stacks: dict) -> dict[int, slice]:
    """Source degree -> slice of its stack in one degree's basis."""
    out, t = {}, 0
    for i, stack in stacks.items():
        out[i], t = slice(t, t + len(stack)), t + len(stack)
    return out


def _hom_dmat(x: Cx, y: Cx, n: int, src: dict, dst: dict) -> Mat:
    """The matrix of D^n: Hom^n -> Hom^(n+1) between the degree stacks ``src``
    and ``dst``: one product per source stack, read off by ``hom_coords``."""
    p = x.alg.p
    dst_blocks = _blocks(dst)
    dmat = np.zeros((_size(dst), _size(src)), dtype=np.int64)
    sign = 1 if n % 2 == 0 else -1
    for (i, fs), cols in zip(src.items(), _blocks(src).values()):
        # D f = d_y f at source degree i, -(-1)^n f d_x at source degree i - 1
        for j, image, s in ((i, y._dmat(i + n).a @ fs, 1), (i - 1, fs @ x._dmat(i - 1).a, -sign)):
            coords = hom_coords(x.obj(j), y.obj(j + n + 1), image % p)
            dmat[dst_blocks.get(j, slice(0)), cols] += s * coords.T
    return Mat(p, dmat)


def _hom_window(x: Cx, y: Cx, lo: int, hi: int) -> tuple[dict[int, dict], dict[int, Mat]]:
    """Degrees lo..hi of Hom*(x, y): source degree -> nonempty Hom basis stack,
    per degree, and the differentials D^lo, ..., D^(hi-1) (``_hom_dmat``)."""
    if x.alg != y.alg:
        raise ValidationError("Hom complex between complexes over different algebras")
    stacks: dict = {k: {} for k in range(lo, hi + 1)}
    for k in stacks:
        for i in x.degrees():
            if x.obj(i).dim and y.obj(i + k).dim and len(s := _hom_basis(x.obj(i), y.obj(i + k))[0]):
                stacks[k][i] = s
    dmats = {k: _hom_dmat(x, y, k, stacks[k], stacks[k + 1]) for k in range(lo, hi)}
    return stacks, dmats


def hom_complex(x: Cx, y: Cx) -> HomComplex:
    """Hom*(x, y) as a complex of ground-field modules, with its basis stacks.

    The stacks give graded maps coordinates and dg structure on Hom*(P, P);
    a dimension of Hom in K reads three degrees only (``hom_k_dim``).
    """
    degs = range(y.lo - x.hi, y.hi - x.lo + 1)  # empty or all zero when x or y is zero
    stacks, dmats = _hom_window(x, y, degs.start, degs.stop - 1)
    ground = preset("ground_field", x.alg.p)
    mods = {n: make_module(ground, [Mat.identity(x.alg.p, _size(stacks[n]))]) for n in degs}
    dmaps = [MMap(mods[n], mods[n + 1], dmats[n]) for n in degs[:-1]]
    cx = make_complex(ground, degs.start, [mods[n] for n in degs], dmaps)
    return HomComplex(cx, x, y, {n: s for n, s in stacks.items() if s})


def chain_map_basis(x: Cx, y: Cx) -> list[CMap]:
    """A basis of the space of chain maps x -> y: the null space of the chain
    condition in ``squares_system((x, y), [])``.

    Its unknowns are the Hom(x^n, y^n) coordinates in degree order, the
    columns of Hom^0(x, y), and its solutions are the cocycles of Hom^0, so
    this is the echelon basis of ker D^0 without building the Hom complex.
    """
    return [
        CMap.build(x, y, {n: MMap(x.obj(n), y.obj(n), m) for (_, n), m in sol.items() if not m.is_zero()})
        for sol in squares_system((x, y), []).nullspace()
    ]


def _hom_k_dims(x: Cx, y: Cx, degs: range) -> dict[int, int]:
    """dim H^n of the Hom complex for each n in ``degs``, from one pass over
    its degrees degs.start - 1, ..., degs.stop: dim Hom^n - rank D^n - rank D^(n-1),
    once each D^n o D^(n-1) = 0 is checked."""
    stacks, dmats = _hom_window(x, y, degs.start - 1, degs.stop)
    for n in degs:
        if not (dmats[n] @ dmats[n - 1]).is_zero():
            raise ValidationError(f"D o D != 0 at degree {n - 1} of the Hom complex", witness=n - 1)
    ranks = {k: rank(d) for k, d in dmats.items()}
    return {n: _size(stacks[n]) - ranks[n] - ranks[n - 1] for n in degs}


def hom_k_dim(x: Cx, y: Cx, n: int = 0) -> int:
    """dim Hom_K(x, Sigma^n y) = dim H^n of the Hom complex, read by
    ``_hom_k_dims`` from its degrees n - 1, n and n + 1 only."""
    return _hom_k_dims(x, y, range(n, n + 1))[n]


# -- truncation and sums --------------------------------------------------------------


def truncate(x: Cx, n: int) -> Cx:
    """Smart truncation: degrees < n unchanged, ker d^n at n, zero above."""
    if x.is_zero() or n >= x.hi:
        return x
    if n < x.lo:
        return zero_complex(x.alg)
    kernel = kernel_basis(x.diff(n).mat)
    ker_mod, inc = submodule(x.obj(n), kernel)
    objects = [x.obj(m) for m in range(x.lo, n)] + [ker_mod]
    diffs = [x.diff(m) for m in range(x.lo, n - 1)]
    if n > x.lo:
        into_kernel = solve(inc.mat, x.diff(n - 1).mat)
        if into_kernel is None:
            raise ValidationError("image of d^(n-1) escapes ker d^n; complex invalid")
        diffs.append(MMap(x.obj(n - 1), ker_mod, into_kernel))
    return make_complex(x.alg, x.lo, objects, diffs)


def _sum_cx(xs: list[Cx]) -> tuple[Cx, dict[int, list[int]]]:
    """The degreewise sum complex, block diagonal in list order, with the first
    coordinate of each summand in each degree (no injections or projections)."""
    if not xs:
        raise ValidationError("direct_sum_cx of an empty list needs at least one complex")
    alg = xs[0].alg
    if any(x.alg != alg for x in xs):
        raise ValidationError("direct_sum_cx over mixed algebras")
    nonzero = [x for x in xs if not x.is_zero()]
    if not nonzero:
        return zero_complex(alg), {}
    degs = range(min(x.lo for x in nonzero), max(x.hi for x in nonzero) + 1)
    mods, offsets = {}, {}
    for n in degs:
        mods[n], offsets[n] = _block_sum(alg, [x.obj(n) for x in xs])
    diffs = [MMap(mods[n], mods[n + 1], block_diag([x._dmat(n) for x in xs], alg.p)) for n in degs[:-1]]
    return make_complex(alg, degs.start, [mods[n] for n in degs], diffs), offsets


def direct_sum_cx(xs: list[Cx]) -> tuple[Cx, list[CMap], list[CMap]]:
    """Degreewise biproduct, block diagonal in list order, with canonical
    injections and projections."""
    total, offsets = _sum_cx(xs)
    injs = [
        CMap.build(x, total, {n: _block_inclusion(x.obj(n), total.obj(n), offsets[n][t]) for n in x.degrees()})
        for t, x in enumerate(xs)
    ]
    projs = [
        CMap.build(total, x, {n: _block_projection(total.obj(n), x.obj(n), offsets[n][t]) for n in x.degrees()})
        for t, x in enumerate(xs)
    ]
    return total, injs, projs
