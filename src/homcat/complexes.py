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

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from homcat.algebras import Alg, preset
from homcat.errors import ValidationError
from homcat.linalg import Mat, block_diag, column_space, hstack, kernel_basis, rank, solve, vstack
from homcat.modules import (
    MMap,
    Mod,
    direct_sum,
    hom_coords,
    hom_space,
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
        for n in sorted(_reach(self.comps)):  # both sides vanish elsewhere
            if self._mat(n + 1) @ x._dmat(n) != y._dmat(n) @ self._mat(n):
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
        return all(self._mat(n) == other._mat(n) for n in self.comps.keys() | other.comps.keys())

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


def _combined_degrees(x: Cx, y: Cx) -> range:
    cs = [c for c in (x, y) if not c.is_zero()]
    return range(min(c.lo for c in cs), max(c.hi for c in cs) + 1) if cs else range(0)


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
        for n in sorted(self.phi.comps.keys() | self.psi.comps.keys() | _reach(self.comps)):
            delta = self.phi._mat(n) - self.psi._mat(n)
            if delta != y._dmat(n - 1) @ self._mat(n) + self._mat(n + 1) @ x._dmat(n):
                raise ValidationError(f"homotopy identity fails at degree {n}", witness=n)

    def _mat(self, n: int) -> Mat:
        h = self.comps.get(n)
        return h.mat if h is not None else _zeros(self.phi.src.obj(n), self.phi.dst.obj(n - 1))

    def component(self, n: int) -> MMap:
        return self.comps.get(n) or MMap.zero(self.phi.src.obj(n), self.phi.dst.obj(n - 1))

    @staticmethod
    def zero(phi: CMap, psi: CMap) -> "Htp":
        return Htp(phi, psi, {})


# -- degreewise linear solver ---------------------------------------------------


class DegreewiseSolver:
    """Joint linear solver for chain-map/homotopy systems.

    Variables are *module maps*: each is parameterized by a basis of its Hom
    space, so every solution component automatically intertwines the algebra
    action.  Equations are sums of terms L @ Var @ R equal to a right-hand
    side, flattened row-major into one F_p system over the coefficients.
    Equations may be added before later variables.
    """

    def __init__(self, p: int):
        self.p = p
        self.bases: dict = {}  # key -> list of basis matrices (ndarray)
        self.shapes: dict = {}  # key -> (rows, cols)
        self.offsets: dict = {}
        self.size = 0
        self.rows: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []

    def add_var(self, key, src: Mod, dst: Mod) -> None:
        """A variable ranging over Hom(src, dst)."""
        if key in self.bases:
            raise ValueError(f"duplicate variable {key}")
        basis = [f.mat.a for f in hom_space(src, dst)] if src.dim and dst.dim else []
        self.bases[key] = basis
        self.shapes[key] = (dst.dim, src.dim)
        self.offsets[key] = self.size
        self.size += len(basis)

    def add_eq(self, terms, rhs: Mat) -> None:
        """terms: iterable of (key, L: Mat|None, R: Mat|None, sign)."""
        out_rows, out_cols = rhs.shape
        if out_rows * out_cols == 0:
            return
        row_block = np.zeros((out_rows * out_cols, self.size), dtype=np.int64)
        for key, left, right, sign in terms:
            basis = self.bases.get(key)
            if not basis:
                continue
            vr, vc = self.shapes[key]
            la = left.a if left is not None else np.eye(vr, dtype=np.int64)
            ra = right.a if right is not None else np.eye(vc, dtype=np.int64)
            if la.shape[1] != vr or ra.shape[0] != vc or la.shape[0] != out_rows or ra.shape[1] != out_cols:
                raise ValueError(
                    f"term shape mismatch for {key}: L{la.shape} V({vr},{vc}) R{ra.shape} "
                    f"-> want {(out_rows, out_cols)}"
                )
            off = self.offsets[key]
            for t, b in enumerate(basis):
                col = (la @ b % self.p) @ ra % self.p  # reduced between products: no int64 overflow
                row_block[:, off + t] += int(sign) * col.reshape(-1)
        self.rows.append(row_block % self.p)
        self.rhs.append(rhs.a.reshape(-1))

    def _decode(self, coeffs: np.ndarray) -> dict:
        out = {}
        for key, basis in self.bases.items():
            r, c = self.shapes[key]
            acc = np.zeros((r, c), dtype=np.int64)
            off = self.offsets[key]
            for t, b in enumerate(basis):
                coeff = int(coeffs[off + t])
                if coeff:
                    acc = acc + coeff * b
            out[key] = Mat(self.p, acc)
        return out

    def _system(self) -> Mat:
        """All equations stacked; rows added before later variables are
        zero-padded, since those variables do not occur in them."""
        out = np.zeros((sum(r.shape[0] for r in self.rows), self.size), dtype=np.int64)
        top = 0
        for r in self.rows:
            out[top : top + r.shape[0], : r.shape[1]] = r
            top += r.shape[0]
        return Mat(self.p, out)

    def solve(self) -> dict | None:
        """Combined matrices per key, or None when inconsistent."""
        if self.size == 0:
            if any(r.any() for r in self.rhs):
                return None
            return {key: Mat.zeros(self.p, r, c) for key, (r, c) in self.shapes.items()}
        if not self.rows:
            return self._decode(np.zeros(self.size, dtype=np.int64))
        target = Mat(self.p, np.concatenate(self.rhs).reshape(-1, 1))
        sol = solve(self._system(), target)
        if sol is None:
            return None
        return self._decode(sol.a[:, 0])

    def nullspace(self) -> list[dict]:
        """A basis of the homogeneous solution space (right-hand sides ignored)."""
        if self.size == 0:
            return []
        if not self.rows:
            basis_vecs = np.eye(self.size, dtype=np.int64)
        else:
            basis_vecs = kernel_basis(self._system()).a
        return [self._decode(basis_vecs[:, t]) for t in range(basis_vecs.shape[1])]


def squares_system(ends: tuple[Cx, Cx] | None, squares) -> DegreewiseSolver:
    """The unsolved linear system behind ``solve_squares``.

    Unknowns, in column order: the components w^n (keys ``("w", n)``) when
    ``ends`` is given, constrained by the chain condition; then, square by
    square, the homotopy components s^n: X^n -> Y^(n-1) of square k (keys
    ``(k, n)``), where X -> Y are the endpoints of that square's target.
    """
    p = (ends[0] if ends is not None else squares[0][2].src).alg.p
    solver = DegreewiseSolver(p)
    if ends is not None:
        src, dst = ends
        degs = _combined_degrees(src, dst)
        for n in degs:
            if src.obj(n).dim and dst.obj(n).dim:
                solver.add_var(("w", n), src.obj(n), dst.obj(n))
        for n in degs:
            rows, cols = dst.obj(n + 1).dim, src.obj(n).dim
            if rows and cols:
                solver.add_eq(
                    [
                        (("w", n + 1), None, src.diff(n).mat, +1),
                        (("w", n), dst.diff(n).mat, None, -1),
                    ],
                    Mat.zeros(p, rows, cols),
                )
    for k, (left, right, target) in enumerate(squares):
        x, y = target.src, target.dst
        degs = _combined_degrees(x, y)
        for n in degs:
            if x.obj(n).dim and y.obj(n - 1).dim:
                solver.add_var((k, n), x.obj(n), y.obj(n - 1))
        for n in degs:
            rows, cols = y.obj(n).dim, x.obj(n).dim
            if rows == 0 or cols == 0:
                continue
            terms = [((k, n), y.diff(n - 1).mat, None, +1), ((k, n + 1), None, x.diff(n).mat, +1)]
            lmat = left.component(n).mat if left is not None else None
            rmat = right.component(n).mat if right is not None else None
            if ends is not None:
                terms.append((("w", n), lmat, rmat, -1))
                solver.add_eq(terms, -target.component(n).mat)
            else:
                known = [m for m in (lmat, rmat) if m is not None]
                const = reduce(operator.matmul, known) if known else Mat.identity(p, cols)
                solver.add_eq(terms, const - target.component(n).mat)
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


def cohomology_data(x: Cx, n: int) -> CohomologyData:
    from homcat.linalg import quotient_structure
    from homcat.modules import _restricted_action

    xn = x.obj(n)
    z = kernel_basis(x.diff(n).mat)
    boundaries = x.diff(n - 1).mat
    if z.cols == 0:
        return CohomologyData(zero_module(x.alg), z, Mat.zeros(x.alg.p, 0, 0), Mat.zeros(x.alg.p, 0, 0))
    b_in_z = solve(z, column_space(boundaries)) if boundaries.cols else Mat.zeros(x.alg.p, z.cols, 0)
    if b_in_z is None:
        raise ValidationError("boundaries escape cocycles; complex invalid")
    proj, sec = quotient_structure(z.cols, b_in_z)
    z_action = _restricted_action(xn, z)
    h_action = [proj @ a @ sec for a in z_action]
    module = make_module(x.alg, h_action)
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
    image = f.component(n).mat @ hx.cocycles
    in_zy = solve(hy.cocycles, image)
    if in_zy is None:
        raise ValidationError("chain map does not preserve cocycles")
    return MMap(hx.module, hy.module, hy.proj @ in_zy @ hx.section)


def euler_characteristic(x: Cx) -> int:
    return sum((1 if n % 2 == 0 else -1) * x.obj(n).dim for n in x.degrees())


# -- cones -------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeParts:
    """Block structure of a mapping cone C(f)^n = X^(n+1) (+) Y^n.

    The per-degree accessors return genuine zero maps outside the window, so
    callers can compose blocks without range bookkeeping.
    """

    x: Cx
    y: Cx
    cone: Cx
    iota: CMap  # Y -> C
    pi: CMap  # C -> Sigma X
    _inj_x: dict
    _inj_y: dict
    _proj_x: dict
    _proj_y: dict

    def inj_x(self, n: int) -> MMap:
        return self._inj_x.get(n) or MMap.zero(self.x.obj(n + 1), self.cone.obj(n))

    def inj_y(self, n: int) -> MMap:
        return self._inj_y.get(n) or MMap.zero(self.y.obj(n), self.cone.obj(n))

    def proj_x(self, n: int) -> MMap:
        return self._proj_x.get(n) or MMap.zero(self.cone.obj(n), self.x.obj(n + 1))

    def proj_y(self, n: int) -> MMap:
        return self._proj_y.get(n) or MMap.zero(self.cone.obj(n), self.y.obj(n))


def cone_complex(f: CMap) -> tuple[Cx, ConeParts]:
    """The mapping cone with its structure maps (inclusion, projection, blocks)."""
    x, y = f.src, f.dst
    degs = _combined_degrees(shift(x, 1), y)
    mods, inj_x, inj_y, proj_x, proj_y = {}, {}, {}, {}, {}
    for n in degs:
        mods[n], (inj_x[n], inj_y[n]), (proj_x[n], proj_y[n]) = direct_sum([x.obj(n + 1), y.obj(n)], x.alg)
    # d^n = [[-d_X^(n+1), 0], [f^(n+1), d_Y^n]] on x^(n+1) (+) y^n, one checked map per degree
    diffs = [
        MMap(mods[n], mods[n + 1], vstack([
            hstack([-x._dmat(n + 1), _zeros(y.obj(n), x.obj(n + 2))]),
            hstack([f._mat(n + 1), y._dmat(n)]),
        ]))
        for n in degs[:-1]
    ]
    cx = make_complex(x.alg, degs.start if len(degs) else 0, [mods[n] for n in degs], diffs)
    # trimming only drops zero-dimensional ends, where the block maps have
    # zero size and vanish from the chain maps anyway
    iota, pi = CMap.build(y, cx, inj_y), CMap.build(cx, shift(x, 1), proj_x)
    return cx, ConeParts(x, y, cx, iota, pi, inj_x, inj_y, proj_x, proj_y)


# -- Hom complexes ------------------------------------------------------------------


@dataclass(frozen=True)
class HomComplex:
    """The total Hom complex of two bounded complexes, over the ground field.

    Degree n gathers all module maps x^i -> y^(i+n); the stored basis
    bookkeeping converts between coordinate vectors and graded map components.
    """

    cx: Cx
    source: Cx
    target: Cx
    basis: dict  # degree n -> list of (source degree i, MMap x^i -> y^(i+n))

    def degree_dim(self, n: int) -> int:
        return len(self.basis.get(n, []))

    def element(self, n: int, coeffs) -> dict[int, MMap]:
        """Assemble the graded map with the given coordinates in degree n."""
        items = self.basis.get(n, [])
        comps: dict[int, MMap] = {}
        for c, (i, f) in zip(coeffs, items):
            if not c:
                continue
            cur = comps.get(i)
            comps[i] = f.scale(int(c)) if cur is None else cur + f.scale(int(c))
        return comps

    def blocks(self, n: int) -> dict[int, slice]:
        """Source degree i -> the slice of the degree-n basis holding maps x^i -> y^(i+n)."""
        return _blocks(self.basis.get(n, []))

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


def _blocks(items: list) -> dict[int, slice]:
    """Source degree -> slice of its maps in one degree's basis (grouped by source degree)."""
    out: dict[int, slice] = {}
    for t, (i, _) in enumerate(items):
        out[i] = slice(out[i].start if i in out else t, t + 1)
    return out


def hom_complex(x: Cx, y: Cx) -> HomComplex:
    """Hom*(x, y) as a complex of ground-field modules.

    H^0 computes Hom in the homotopy category; the basis bookkeeping supports
    dg-algebra structure on Hom*(P, P).  Each differential block is one
    stacked product per source block, read off by ``hom_coords``.
    """
    if x.alg != y.alg:
        raise ValidationError("hom_complex between complexes over different algebras")
    p = x.alg.p
    ground = preset("ground_field", p)
    if x.is_zero() or y.is_zero():
        return HomComplex(zero_complex(ground), x, y, {})
    lo = y.lo - x.hi
    hi = y.hi - x.lo
    basis: dict[int, list] = {}
    for n in range(lo, hi + 1):
        items = []
        for i in x.degrees():
            if y.obj(i + n).dim == 0 or x.obj(i).dim == 0:
                continue
            for f in hom_space(x.obj(i), y.obj(i + n)):
                items.append((i, f))
        if items:
            basis[n] = items
    mods = {n: make_module(ground, [Mat.identity(p, len(basis.get(n, [])))]) for n in range(lo, hi + 1)}
    dmaps = []
    for n in range(lo, hi):
        src_items = basis.get(n, [])
        dst_blocks = _blocks(basis.get(n + 1, []))
        dmat = np.zeros((mods[n + 1].dim, len(src_items)), dtype=np.int64)
        sign = 1 if n % 2 == 0 else -1
        for i, cols in _blocks(src_items).items():
            fs = np.stack([f.mat.a for _, f in src_items[cols]])
            # D f = d_y f at source degree i, -(-1)^n f d_x at source degree i - 1
            for j, image, s in ((i, y.diff(i + n).mat.a @ fs, 1), (i - 1, fs @ x.diff(i - 1).mat.a, -sign)):
                coords = hom_coords(x.obj(j), y.obj(j + n + 1), image % p)
                dmat[dst_blocks.get(j, slice(0)), cols] += s * coords.T
        dmaps.append(MMap(mods[n], mods[n + 1], Mat(p, dmat)))
    cx = make_complex(ground, lo, [mods[n] for n in range(lo, hi + 1)], dmaps)
    return HomComplex(cx, x, y, basis)


def chain_map_basis(x: Cx, y: Cx) -> list[CMap]:
    """A basis of the space of chain maps x -> y (cocycles in Hom degree 0)."""
    hc = hom_complex(x, y)
    if hc.degree_dim(0) == 0:
        return []
    z = kernel_basis(hc.cx.diff(0).mat)
    return [CMap.build(x, y, hc.element(0, z.a[:, t])) for t in range(z.cols)]


def hom_k_dim(x: Cx, y: Cx) -> int:
    """dim Hom in the homotopy category = dim H^0 of the Hom complex."""
    return cohomology_dim(hom_complex(x, y).cx, 0)


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


def direct_sum_cx(xs: list[Cx]) -> tuple[Cx, list[CMap], list[CMap]]:
    """Degreewise biproduct with canonical injections and projections."""
    if not xs:
        raise ValidationError("direct_sum_cx of an empty list needs at least one complex")
    alg = xs[0].alg
    nonzero = [x for x in xs if not x.is_zero()]
    if not nonzero:
        z = zero_complex(alg)
        return z, [CMap.zero(x, z) for x in xs], [CMap.zero(z, x) for x in xs]
    lo = min(x.lo for x in nonzero)
    hi = max(x.hi for x in nonzero)
    mods = {}
    injs: list[dict] = [dict() for _ in xs]
    projs: list[dict] = [dict() for _ in xs]
    for n in range(lo, hi + 1):
        total, inj_list, proj_list = direct_sum([x.obj(n) for x in xs], alg)
        mods[n] = total
        for t in range(len(xs)):
            injs[t][n] = inj_list[t]
            projs[t][n] = proj_list[t]
    diffs = [MMap(mods[n], mods[n + 1], block_diag([x._dmat(n) for x in xs], alg.p)) for n in range(lo, hi)]
    total_cx = make_complex(alg, lo, [mods[n] for n in range(lo, hi + 1)], diffs)
    inj_maps = [CMap.build(x, total_cx, injs[t]) for t, x in enumerate(xs)]
    proj_maps = [CMap.build(total_cx, x, projs[t]) for t, x in enumerate(xs)]
    return total_cx, inj_maps, proj_maps
