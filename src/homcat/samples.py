"""Seeded random generators for modules, complexes, and chain maps.

Everything takes a numpy Generator so verification suites are reproducible:
the same seed always produces the same objects, across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from homcat.algebras import Alg
from homcat.complexes import CMap, Cx, Htp, chain_map_basis, make_complex
from homcat.linalg import Mat, kernel_basis
from homcat.modules import (
    MMap,
    Mod,
    _block_sum,
    _hom_basis,
    _indecomposable_injectives,
    projective_module,
    quotient_module,
    submodule,
    zero_module,
)

__all__ = [
    "random_module",
    "random_complex",
    "random_chain_map",
    "random_homotopic_pair",
    "random_injective_complex",
]


def random_module(alg: Alg, rng: np.random.Generator, max_projectives: int = 2, dim_cap: int = 6) -> Mod:
    """A random module: a sum of projectives, cut down by a random submodule
    or quotient, capped in dimension.

    The cut is the raw span of one or two cyclic generators, which
    ``submodule`` and ``quotient_module`` reduce in their one elimination."""
    n_idem = len(alg.idempotents)
    count = int(rng.integers(1, max_projectives + 1))
    picks = [int(rng.integers(0, n_idem)) for _ in range(count)]
    total, _ = _block_sum(alg, [projective_module(alg, j) for j in picks])
    mode = int(rng.integers(0, 3))
    if mode == 0 or total.dim == 0:
        mod = total
    else:
        # random invariant span from one or two cyclic generators
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            v = rng.integers(0, alg.p, size=total.dim)
            gens.append((total.acts @ v).T)  # column i: v times basis element i
        span = Mat(alg.p, np.hstack(gens))  # dependent columns; submodule and quotient_module reduce them
        if mode == 1:
            mod = submodule(total, span)[0]
        else:
            mod = quotient_module(total, span)[0]
    if mod.dim > dim_cap:
        # fall back to a plain projective to stay small
        mod = projective_module(alg, picks[0])
    return mod


def _constrained_random_map(
    src: Mod, dst: Mod, rng: np.random.Generator, after: MMap | None
) -> MMap:
    """A random hom src -> dst, composing to zero with ``after`` if given."""
    basis = _hom_basis(src, dst)[0]
    if not len(basis):
        return MMap.zero(src, dst)
    p = src.alg.p
    if after is not None and not after.mat.is_zero():
        composites = basis @ after.mat.a % p
        allowed = kernel_basis(Mat(p, composites.reshape(len(basis), -1).T))
    else:
        allowed = Mat.identity(p, len(basis))
    if allowed.cols == 0:
        return MMap.zero(src, dst)
    coeffs = (allowed.a @ rng.integers(0, p, size=allowed.cols)) % p
    return MMap(src, dst, Mat(p, np.tensordot(coeffs, basis, axes=1)))


def _random_differentials(alg: Alg, lo: int, mods: list[Mod], rng: np.random.Generator) -> Cx:
    """The complex on mods from degree lo, each differential drawn with
    ``_constrained_random_map`` to compose to zero with the one before."""
    diffs: list[MMap] = []
    for k in range(len(mods) - 1):
        diffs.append(_constrained_random_map(mods[k], mods[k + 1], rng, diffs[-1] if diffs else None))
    return make_complex(alg, lo, mods, diffs)


def random_complex(
    alg: Alg,
    rng: np.random.Generator,
    max_support: int = 4,
    dim_cap: int = 6,
    lo_range: tuple[int, int] = (-3, 1),
) -> Cx:
    """A random bounded complex with genuinely random differentials.

    Modules are drawn degreewise; each differential is a uniform draw from
    the subspace of maps composing to zero with the previous differential.
    """
    length = int(rng.integers(1, max_support + 1))
    lo = int(rng.integers(lo_range[0], lo_range[1] + 1))
    mods = []
    for _ in range(length):
        if rng.random() < 0.15:
            mods.append(zero_module(alg))
        else:
            mods.append(random_module(alg, rng, dim_cap=dim_cap))
    return _random_differentials(alg, lo, mods, rng)


def random_chain_map(x: Cx, y: Cx, rng: np.random.Generator) -> CMap:
    """A uniform draw from the space of chain maps x -> y."""
    basis = chain_map_basis(x, y)
    if not basis:
        return CMap.zero(x, y)
    out = CMap.zero(x, y)
    for f in basis:
        c = int(rng.integers(0, x.alg.p))
        if c:
            out = out + f.scale(c)
    return out


def random_homotopic_pair(x: Cx, y: Cx, rng: np.random.Generator) -> tuple[CMap, CMap, Htp]:
    """A chain map, a homotopic perturbation phi + dh + hd, and the witness."""
    phi = random_chain_map(x, y, rng)
    comps = {}
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 2):
        if x.obj(n).dim and y.obj(n - 1).dim:
            hs = _hom_basis(x.obj(n), y.obj(n - 1))[0]
            if not len(hs):
                continue
            coeffs = [int(rng.integers(0, x.alg.p)) for _ in hs]  # one draw per basis element, in order
            comps[n] = MMap(x.obj(n), y.obj(n - 1), Mat(x.alg.p, np.tensordot(coeffs, hs, axes=1)))
    perturbation_comps = {}
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
        h_n = comps.get(n)
        h_n1 = comps.get(n + 1)
        term = MMap.zero(x.obj(n), y.obj(n))
        if h_n is not None:
            term = term + y.diff(n - 1) @ h_n
        if h_n1 is not None:
            term = term + h_n1 @ x.diff(n)
        if not term.is_zero():
            perturbation_comps[n] = term
    psi = phi + CMap.build(x, y, perturbation_comps)
    cert = Htp(psi, phi, comps)
    return phi, psi, cert


def random_injective_complex(
    alg: Alg, rng: np.random.Generator, max_support: int = 3, max_summands: int = 2
) -> Cx:
    """A random bounded complex whose components are sums of indecomposable
    injectives (duals of projective covers of the simples)."""
    injectives = _indecomposable_injectives(alg)
    length = int(rng.integers(1, max_support + 1))
    lo = int(rng.integers(-2, 2))
    mods = []
    for _ in range(length):
        count = int(rng.integers(1, max_summands + 1))
        picks = [injectives[int(rng.integers(0, len(injectives)))] for _ in range(count)]
        mods.append(_block_sum(alg, picks)[0])
    return _random_differentials(alg, lo, mods, rng)
