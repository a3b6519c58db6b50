"""Numbered verification suites, shared by the CLI and the acceptance tests.

Each suite builds concrete objects over the preset algebras, runs its checks
at the pinned sample counts, and returns a Report whose rows pair expected
values with computed ones.  Everything is deterministic given (prime, seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from homcat.algebras import preset
from homcat.complexes import (
    CMap,
    cohomology_dim,
    cohomology_dims,
    cohomology_map,
    cone_complex,
    direct_sum_cx,
    hom_complex,
    hom_k_dim,
    null_homotopy,
    stalk,
)
from homcat.derived import (
    dg_cohomology_dims,
    dg_end,
    ext,
    hom_derived,
    idempotent_slice_dims,
    inj_resolution,
    is_iso_in_D,
    khom_agreement,
    proj_resolution,
    resolve_complex,
    tilting_check,
)
from homcat.errors import CapExhausted, HomcatError
from homcat.linalg import is_invertible, kernel_basis, rank
from homcat.modules import (
    ar_quiver,
    classify_indecomposables,
    direct_sum,
    hom_space,
    is_isomorphic,
    projective_module,
    quotient_module,
    radical_submodule,
    regular_module,
    simple_module,
    socle,
)
from homcat.samples import (
    random_chain_map,
    random_complex,
    random_homotopic_pair,
    random_injective_complex,
)
from homcat.stable import (
    complete_resolution,
    stable_ar_quiver,
    stable_hom,
    stable_hom_via_cr,
    stable_indecomposables,
    syzygy,
)
from homcat.triangles import (
    cone_triangle,
    fillin_ambiguity,
    identity_triangle,
    octahedron,
    rotate,
    semisimple_split,
    split_seq_to_triangle,
    sum_triangles,
    verify_cone_les,
)

__all__ = ["Check", "Report", "Options", "run_exercise", "available_exercises"]


@dataclass(frozen=True)
class Check:
    name: str
    expected: object
    got: object

    @property
    def passed(self) -> bool:
        return self.expected == self.got


@dataclass
class Options:
    prime: int | None = None  # None: per-exercise default
    seed: int = 0
    window: tuple[int, int] = (-6, 6)
    cap: int = 12
    samples: int | None = None  # None: per-exercise default


def _samples(options: "Options", default: int) -> int:
    return options.samples if options.samples is not None else default


@dataclass
class Report:
    exercise: str
    algebra: str
    prime: int
    seed: int
    checks: list[Check] = field(default_factory=list)
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, include_runtime: bool = False) -> dict:
        # written reports stay byte-deterministic for fixed flags, so the
        # wall-clock runtime is reported on the console only
        out = {
            "exercise": self.exercise,
            "algebra": self.algebra,
            "prime": self.prime,
            "seed": self.seed,
            "checks": [
                {"name": c.name, "expected": c.expected, "got": c.got, "pass": c.passed}
                for c in self.checks
            ],
            "pass": self.passed,
        }
        if include_runtime:
            out["runtime"] = self.runtime
        return out


def _pick_prime(options: Options, default: int, allowed: tuple[int, ...] | None = None) -> int:
    p = options.prime if options.prime is not None else default
    if allowed is not None and p not in allowed:
        raise ValueError(f"this exercise runs at primes {allowed}, got {p}")
    return p


# -- individual suites ---------------------------------------------------------------


def _ex_1_2_1(options: Options) -> tuple[str, int, list[Check]]:
    """Additivity: Hom sets in K are F_p-spaces with bilinear composition,
    and finite sums of objects and triangles are biproducts."""
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    rng = np.random.default_rng(options.seed)
    checks = []
    for t in range(6):
        x = random_complex(alg, rng, max_support=3, dim_cap=4)
        y = random_complex(alg, rng, max_support=3, dim_cap=4)
        z = random_complex(alg, rng, max_support=3, dim_cap=4)
        a = random_chain_map(y, z, rng)
        b = random_chain_map(y, z, rng)
        c = random_chain_map(x, y, rng)
        bilinear = null_homotopy((a + b) @ c, a @ c + b @ c) is not None
        checks.append(Check(f"composition bilinear (sample {t})", True, bilinear))
        total, _, _ = direct_sum_cx([y, z])
        dims_add = hom_k_dim(x, total) == hom_k_dim(x, y) + hom_k_dim(x, z)
        checks.append(Check(f"Hom_K biproduct dims (sample {t})", True, dims_add))
    for t in range(3):
        f1 = random_chain_map(
            random_complex(alg, rng, max_support=2, dim_cap=3),
            random_complex(alg, rng, max_support=2, dim_cap=3),
            rng,
        )
        f2 = random_chain_map(
            random_complex(alg, rng, max_support=2, dim_cap=3),
            random_complex(alg, rng, max_support=2, dim_cap=3),
            rng,
        )
        tri = sum_triangles([cone_triangle(f1), cone_triangle(f2)])
        checks.append(Check(f"sum of triangles certified (sample {t})", True, tri.kind == "iso-to-cone"))
    return "lambda1", p, checks


def _ex_1_4_1(options: Options) -> tuple[str, int, list[Check]]:
    """Homotopic maps are identified: equal induced maps on all cohomology."""
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    rng = np.random.default_rng(options.seed)
    checks = []
    for t in range(20):
        x = random_complex(alg, rng, max_support=3, dim_cap=5)
        y = random_complex(alg, rng, max_support=3, dim_cap=5)
        phi, psi, _ = random_homotopic_pair(x, y, rng)
        same = all(
            cohomology_map(phi, n).mat == cohomology_map(psi, n).mat
            for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1)
        )
        checks.append(Check(f"equal cohomology maps (sample {t})", True, same))
    return "lambda1", p, checks


def _ex_1_5_1(options: Options) -> tuple[str, int, list[Check]]:
    """Derived Hom from the regular module returns cohomology dimensions."""
    samples = _samples(options, 50)
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    rng = np.random.default_rng(options.seed)
    reg = stalk(regular_module(alg), 0)
    checks = []
    failures = 0
    for t in range(samples):
        x = random_complex(alg, rng, max_support=5, dim_cap=6)
        h = cohomology_dims(x)
        for n in range(-2, 3):
            if hom_derived(reg, x, n, options.cap) != h.get(n, 0):
                failures += 1
    checks.append(Check(f"derived Hom vs cohomology over {samples} complexes", 0, failures))
    return "lambda1", p, checks


def _ex_1_5_2(options: Options) -> tuple[str, int, list[Check]]:
    """Module stalks embed fully faithfully: degree-0 derived Hom equals the
    module Hom, negative degrees vanish."""
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    mods = classify_indecomposables(alg)
    checks = []
    mismatches = 0
    negative = 0
    for m in mods:
        for n in mods:
            want = len(hom_space(m, n))
            if hom_derived(stalk(m, 0), stalk(n, 0), 0, options.cap) != want:
                mismatches += 1
            for d in (-1, -2):
                if hom_derived(stalk(m, 0), stalk(n, 0), d, options.cap) != 0:
                    negative += 1
    checks.append(Check("degree-0 derived Hom equals module Hom (all pairs)", 0, mismatches))
    checks.append(Check("negative-degree derived Homs vanish (all pairs)", 0, negative))
    return "lambda1", p, checks


def _ex_1_6_1(options: Options) -> tuple[str, int, list[Check]]:
    """Vector-space complexes split into their cohomology stalks."""
    samples = _samples(options, 50)
    p = _pick_prime(options, 101)
    alg = preset("ground_field", p)
    rng = np.random.default_rng(options.seed)
    failures = 0
    betti_mismatch = 0
    for t in range(samples):
        x = random_complex(alg, rng, max_support=4, dim_cap=5)
        try:
            s, pm, sm, htp = semisimple_split(x)
        except HomcatError:
            failures += 1
            continue
        for n in x.degrees():
            betti = x.obj(n).dim - rank(x.diff(n).mat) - rank(x.diff(n - 1).mat)
            if s.obj(n).dim != betti:
                betti_mismatch += 1
    checks = [
        Check(f"splitting certificates verified over {samples} complexes", 0, failures),
        Check("stalk dimensions equal rank-nullity Betti numbers", 0, betti_mismatch),
    ]
    return "ground_field", p, checks


def _ex_1_6_3_counts(options: Options) -> tuple[str, int, list[Check]]:
    """Indecomposable counts for the three matrix algebras."""
    p = _pick_prime(options, 2)
    checks = []
    for name, want in (("lambda1", 6), ("lambda2", 6), ("lambda3", 5)):
        got = len(classify_indecomposables(preset(name, p)))
        checks.append(Check(f"indecomposables of {name}", want, got))
    return "lambda1,lambda2,lambda3", p, checks


def _ext_table_rows(alg, mods, max_degree: int, cap: int):
    rows = []
    for i, m in enumerate(mods):
        res = proj_resolution(m, cap)
        for j, n in enumerate(mods):
            if res.res.is_zero():
                dims = {d: 0 for d in range(max_degree + 1)}
            else:
                hc = hom_complex(res.res, stalk(n, 0))
                dims = {d: cohomology_dim(hc.cx, d) for d in range(max_degree + 1)}
            for d in range(max_degree + 1):
                rows.append((i, j, d, dims[d]))
    return rows


def _ex_1_6_3_ext(options: Options) -> tuple[str, int, list[Check]]:
    """Ext bounds: at most one-dimensional everywhere; vanishing of Ext^2 for
    the two hereditary algebras and its single survivor for the third."""
    p = _pick_prime(options, 2)
    checks = []
    for name in ("lambda1", "lambda2", "lambda3"):
        alg = preset(name, p)
        mods = classify_indecomposables(alg)
        rows = _ext_table_rows(alg, mods, 4, options.cap)
        over = sum(1 for _, _, _, dim in rows if dim > 1)
        checks.append(Check(f"Ext dims at most 1 over {name}", 0, over))
        ext2 = sum(dim for _, _, d, dim in rows if d == 2)
        if name in ("lambda1", "lambda2"):
            checks.append(Check(f"Ext^2 vanishes over {name}", 0, ext2))
    alg3 = preset("lambda3", p)
    mods3 = classify_indecomposables(alg3)
    simples = {m.dim_vector(): m for m in mods3 if m.dim == 1}
    s1 = simples[(1, 0, 0)]
    s3 = simples[(0, 0, 1)]
    checks.append(Check("Ext^2(S1, S3) over lambda3", 1, ext(s1, s3, 2, options.cap)))
    return "lambda1,lambda2,lambda3", p, checks


def _ex_1_6_3_ar(options: Options) -> tuple[str, int, list[Check]]:
    """AR quiver shapes for the presets."""
    p = _pick_prime(options, 2)
    checks = []
    q1 = ar_quiver(preset("lambda1", p))
    checks.append(Check("lambda1 AR vertices", 6, len(q1.vertices)))
    checks.append(Check("lambda1 AR arrows", 6, q1.n_arrows))
    labels = [v[0] for v in q1.vertices]
    arrow_labels = {(labels[s], labels[t]) for s, t, _ in q1.arrows}
    want = {
        ("m001", "m011"),
        ("m011", "m010"),
        ("m010", "m110"),
        ("m110", "m100"),
        ("m011", "m111"),
        ("m111", "m110"),
    }
    checks.append(Check("lambda1 AR arrow set", sorted(want), sorted(arrow_labels)))
    q2 = ar_quiver(preset("lambda2", p))
    checks.append(Check("lambda2 AR vertices", 6, len(q2.vertices)))
    checks.append(Check("lambda2 AR arrows", 6, q2.n_arrows))
    q3 = ar_quiver(preset("lambda3", p))
    checks.append(Check("lambda3 AR vertices", 5, len(q3.vertices)))
    checks.append(Check("lambda3 AR arrows", 4, q3.n_arrows))
    qt = ar_quiver(preset("truncpoly(3)", p))
    checks.append(Check("truncpoly(3) AR vertices", 3, len(qt.vertices)))
    checks.append(Check("truncpoly(3) AR arrows", 4, qt.n_arrows))
    return "presets", p, checks


def _ex_1_7_1(options: Options) -> tuple[str, int, list[Check]]:
    """Derived Homs are invariant under quasi-isomorphic replacement."""
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    rng = np.random.default_rng(options.seed)
    mismatches = 0
    for t in range(8):
        x = random_complex(alg, rng, max_support=3, dim_cap=5)
        y = random_complex(alg, rng, max_support=3, dim_cap=5)
        rx = resolve_complex(x, options.cap)
        ry = resolve_complex(y, options.cap)
        for n in range(-1, 2):
            base = hom_derived(x, y, n, options.cap)
            if hom_derived(rx.res, y, n, options.cap) != base:
                mismatches += 1
            if hom_derived(x, ry.res, n, options.cap) != base:
                mismatches += 1
    return "lambda1", p, [Check("derived Hom invariance under replacement", 0, mismatches)]


def _ex_1_7_2(options: Options) -> tuple[str, int, list[Check]]:
    """Hom in K out of an injective resolution agrees with Hom from the stalk."""
    samples = _samples(options, 20)
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    rng = np.random.default_rng(options.seed)
    mismatches = 0
    total = 0
    for t in range(samples):
        x = random_injective_complex(alg, rng)
        for j in range(len(alg.idempotents)):
            m = simple_module(alg, j)
            a, b = khom_agreement(m, x, options.cap)
            total += 1
            if a != b:
                mismatches += 1
    return "lambda1", p, [Check(f"Hom agreement over {total} pairs", 0, mismatches)]


def _ex_1_7_3(options: Options) -> tuple[str, int, list[Check]]:
    """The dual numbers: periodic injective resolutions and stable data."""
    p = _pick_prime(options, 101)
    alg = preset("truncpoly(2)", p)
    k = simple_module(alg, 0)
    checks = []
    try:
        inj_resolution(k, cap=4)
        checks.append(Check("injective resolution cap exhausted", True, False))
    except CapExhausted as exc:
        checks.append(Check("injective resolution cap exhausted", True, True))
        checks.append(Check("surviving cosyzygy is the simple", 1, exc.leftover.dim))
    cr = complete_resolution(k, (-3, 3))
    comps = {cr.cx.obj(n).dim for n in cr.cx.degrees()}
    checks.append(Check("complete resolution components all regular", [2], sorted(comps)))
    ranks = {rank(cr.cx.diff(n).mat) for n in range(-3, 3)}
    checks.append(Check("differentials are multiplication by T", [1], sorted(ranks)))
    checks.append(Check("Z^0 recovers the simple", 1, cr.z0_iso.src.dim))
    checks.append(Check("stable End of the simple", 1, stable_hom(k, k)[0]))
    om = syzygy(k)
    checks.append(Check("syzygy of the simple is the simple", True, is_isomorphic(om, k) is not None))
    return "truncpoly(2)", p, checks


def _ex_2_1_1(options: Options) -> tuple[str, int, list[Check]]:
    """Finite coproducts of exact triangles are exact."""
    samples = _samples(options, 20)
    p = _pick_prime(options, 101)
    rng = np.random.default_rng(options.seed)
    failures = 0
    for t in range(samples):
        alg = preset("lambda1" if t % 2 == 0 else "ground_field", p)
        tris = []
        for _ in range(2):
            x = random_complex(alg, rng, max_support=2, dim_cap=3)
            y = random_complex(alg, rng, max_support=2, dim_cap=3)
            tris.append(cone_triangle(random_chain_map(x, y, rng)))
        try:
            total = sum_triangles(tris)
            if total.kind != "iso-to-cone":
                failures += 1
        except HomcatError:
            failures += 1
    return "lambda1,ground_field", p, [Check(f"sums of {samples} triangle pairs certify", 0, failures)]


def _ex_2_4_1(options: Options) -> tuple[str, int, list[Check]]:
    """A fill-in that is not unique: an explicit witness pair."""
    p = _pick_prime(options, 2, allowed=(2,))
    alg = preset("ground_field", p)
    k = simple_module(alg, 0)
    tri = cone_triangle(CMap.zero(stalk(k, 1), stalk(k, 0)))
    witness = fillin_ambiguity(tri)
    checks = [Check("witness pair found", True, witness is not None)]
    if witness is not None:
        a, b = witness
        checks.append(Check("witnesses differ as maps", True, a != b))
        checks.append(Check("witnesses not homotopic", True, null_homotopy(a, b) is None))
    return "ground_field", p, checks


def _ex_2_5_1(options: Options) -> tuple[str, int, list[Check]]:
    """TR1-TR4 for the homotopy category, on seeded random data."""
    samples = _samples(options, 60)
    p = _pick_prime(options, 101)
    rng = np.random.default_rng(options.seed)
    les_fail = rot_fail = oct_fail = tr1_fail = 0
    for t in range(samples):
        alg = preset("lambda1" if t % 2 == 0 else "ground_field", p)
        x = random_complex(alg, rng, max_support=2, dim_cap=3)
        y = random_complex(alg, rng, max_support=2, dim_cap=3)
        z = random_complex(alg, rng, max_support=2, dim_cap=3)
        f = random_chain_map(x, y, rng)
        g = random_chain_map(y, z, rng)
        if not verify_cone_les(f):
            les_fail += 1
        try:
            tri = cone_triangle(f)
            rotate(tri)
        except HomcatError:
            rot_fail += 1
        try:
            octahedron(f, g)
        except HomcatError:
            oct_fail += 1
        if t % 10 == 0:
            try:
                identity_triangle(x)
            except HomcatError:
                tr1_fail += 1
    checks = [
        Check(f"cone long exact sequences ({samples} samples)", 0, les_fail),
        Check("rotations certify", 0, rot_fail),
        Check("octahedra certify", 0, oct_fail),
        Check("identity triangles certify", 0, tr1_fail),
    ]
    return "lambda1,ground_field", p, checks


def _ex_3_1_1(options: Options) -> tuple[str, int, list[Check]]:
    """Quasi-isomorphism iff invertible in the derived category, certified."""
    samples = _samples(options, 50)
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    rng = np.random.default_rng(options.seed)
    mismatches = 0
    missing_cert = 0
    trues = 0
    for t in range(samples):
        if t % 3 == 2:
            # genuine quasi-isomorphism: a resolution comparison
            x = random_complex(alg, rng, max_support=3, dim_cap=4)
            f = resolve_complex(x, options.cap).comparison
        else:
            x = random_complex(alg, rng, max_support=3, dim_cap=4)
            y = random_complex(alg, rng, max_support=3, dim_cap=4)
            f = random_chain_map(x, y, rng)
        oracle = True
        for n in range(min(f.src.lo, f.dst.lo), max(f.src.hi, f.dst.hi) + 1):
            hm = cohomology_map(f, n)
            from homcat.linalg import inverse

            if hm.src.dim != hm.dst.dim or inverse(hm.mat) is None:
                oracle = False
                break
        got, cert = is_iso_in_D(f, options.cap)
        if got != oracle:
            mismatches += 1
        if got:
            trues += 1
            if cert is None or cert.get("round_trip") is None:
                missing_cert += 1
    checks = [
        Check(f"is_iso_in_D matches the cohomology oracle ({samples} maps)", 0, mismatches),
        Check(f"round-trip certificates present ({trues} true cases)", 0, missing_cert),
    ]
    return "lambda1", p, checks


def _ex_3_3_2(options: Options) -> tuple[str, int, list[Check]]:
    """Acyclic complexes of projectives over truncated polynomials: the Z^0
    correspondence and the stable AR quiver."""
    p = _pick_prime(options, 2)
    checks = []
    for n in (2, 3, 4, 5):
        alg = preset(f"truncpoly({n})", p)
        stables = stable_indecomposables(alg)
        checks.append(Check(f"stable indecomposables of truncpoly({n})", n - 1, len(stables)))
        round_trip = 0
        for m in stables:
            # the Z^0 isomorphism certified when the resolution was built
            cr = complete_resolution(m, options.window)
            iso, kernel_dim = cr.z0_iso, kernel_basis(cr.cx.diff(0).mat).cols
            if iso.dst != m or iso.src.dim != kernel_dim or not is_invertible(iso.mat):
                round_trip += 1
        checks.append(Check(f"Z^0 round trips over truncpoly({n})", 0, round_trip))
    q = stable_ar_quiver(preset("truncpoly(3)", p))
    checks.append(Check("stable AR vertices of truncpoly(3)", 2, len(q.vertices)))
    checks.append(Check("stable AR arrows of truncpoly(3)", 2, q.n_arrows))
    return "truncpoly", p, checks


def _ex_3_5_1(options: Options) -> tuple[str, int, list[Check]]:
    """Exactness of the idempotent slice functor."""
    samples = _samples(options, 50)
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    rng = np.random.default_rng(options.seed)
    mismatches = 0
    for t in range(samples):
        x = random_complex(alg, rng, max_support=3, dim_cap=5)
        h_slice, slice_h = idempotent_slice_dims(alg, 0, x)
        for n in set(h_slice) | set(slice_h):
            if h_slice.get(n, 0) != slice_h.get(n, 0):
                mismatches += 1
    return "lambda1", p, [Check(f"H(Xe) = (HX)e over {samples} complexes", 0, mismatches)]


def _ex_5_1_1(options: Options) -> tuple[str, int, list[Check]]:
    """The canonical map from a module to its injective resolution induces a
    Hom-in-K isomorphism against complexes of injectives."""
    algebra, p, checks = _ex_1_7_2(options)
    extra_mismatch = 0
    alg = preset("lambda1", p)
    for j in range(len(alg.idempotents)):
        m = simple_module(alg, j)
        res = inj_resolution(m, options.cap)
        a, b = khom_agreement(m, res.res, options.cap)
        if a != b or a < 1:
            extra_mismatch += 1
    checks = list(checks)
    checks.append(Check("identity classes against own resolutions", 0, extra_mismatch))
    return algebra, p, checks


def _tilting_modules(alg) -> dict:
    """The two canonical tilting modules over ``alg`` = lambda1, keyed by the
    preset their endomorphism algebra should match."""
    p1 = projective_module(alg, 0)
    p2 = projective_module(alg, 1)
    b_mod, _, _ = direct_sum([p1, p2, quotient_module(p2, socle(p2)[1].mat)[0]])
    c_mod, _, _ = direct_sum(
        [quotient_module(p1, radical_submodule(p1))[0], p1, projective_module(alg, 2)]
    )
    return {"lambda2": b_mod, "lambda3": c_mod}


def _ex_5_3_1(options: Options) -> tuple[str, int, list[Check]]:
    """Tilting: endomorphism algebras of the two canonical modules."""
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    modules = _tilting_modules(alg)
    b_mod, c_mod = modules["lambda2"], modules["lambda3"]
    checks = []
    report_b = tilting_check(b_mod, preset("lambda2", p), cap=options.cap)
    checks.append(Check("End(B) dimension", 5, report_b["end_dim"]))
    checks.append(Check("End(B) matches lambda2", True, report_b["iso_found"]))
    checks.append(Check("tilting table injective for B", True, report_b["injective_on_shifts"]))
    report_c = tilting_check(c_mod, preset("lambda3", p), cap=options.cap)
    checks.append(Check("End(C) dimension", 5, report_c["end_dim"]))
    checks.append(Check("End(C) matches lambda3", True, report_c["iso_found"]))
    checks.append(Check("tilting table injective for C", True, report_c["injective_on_shifts"]))
    report_r = tilting_check(regular_module(alg), alg, cap=options.cap)
    checks.append(Check("End of the regular module matches the algebra", True, report_r["iso_found"]))
    return "lambda1", p, checks


def _ex_6_1_1(options: Options) -> tuple[str, int, list[Check]]:
    """The dg endomorphism algebra of a resolution of the simples: cohomology
    dimensions match the Ext algebra, and the dg identities hold."""
    p = _pick_prime(options, 101)
    alg = preset("lambda1", p)
    simples = [simple_module(alg, j) for j in range(3)]
    resolutions = [proj_resolution(s, options.cap).res for s in simples]
    total, _, _ = direct_sum_cx(resolutions)
    dga = dg_end(total)  # construction verifies Leibniz and associativity
    dims = dg_cohomology_dims(dga)
    checks = [
        Check("H^0 of the dg end algebra", 3, dims.get(0, 0)),
        Check("H^1 of the dg end algebra", 2, dims.get(1, 0)),
        Check("H^n vanishes for n >= 2", 0, sum(dims.get(n, 0) for n in dims if n >= 2)),
        Check("dg identities verified", True, True),
    ]
    for n in range(4):
        want = sum(ext(a, b, n, options.cap) for a in simples for b in simples)
        checks.append(Check(f"H^{n} equals the total Ext dimension", want, dims.get(n, 0)))
    return "lambda1", p, checks


def _ex_7_4_1(options: Options) -> tuple[str, int, list[Check]]:
    """Degreewise split sequences give the same triangles as cones."""
    samples = _samples(options, 20)
    p = _pick_prime(options, 101)
    rng = np.random.default_rng(options.seed)
    failures = 0
    for t in range(samples):
        alg = preset("lambda1" if t % 2 == 0 else "ground_field", p)
        x = random_complex(alg, rng, max_support=2, dim_cap=3)
        y = random_complex(alg, rng, max_support=2, dim_cap=3)
        f = random_chain_map(x, y, rng)
        c, parts = cone_complex(f)
        try:
            tri, _ = split_seq_to_triangle(parts.iota, parts.pi)
            if tri.kind != "iso-to-cone":
                failures += 1
        except HomcatError:
            failures += 1
    return "lambda1,ground_field", p, [
        Check(f"split sequences certify against cones ({samples} samples)", 0, failures)
    ]


def _ex_7_5_1(options: Options) -> tuple[str, int, list[Check]]:
    """Complete resolutions compute stable Homs."""
    p = _pick_prime(options, 2)
    checks = []
    for n in (2, 3, 4, 5):
        alg = preset(f"truncpoly({n})", p)
        stables = stable_indecomposables(alg)
        mismatch = 0
        for a in stables:
            for b in stables:
                if stable_hom_via_cr(a, b, options.window) != stable_hom(a, b)[0]:
                    mismatch += 1
        checks.append(Check(f"two stable Hom routes agree over truncpoly({n})", 0, mismatch))
    return "truncpoly", p, checks


_EXERCISES = {
    "1.2.1": ("additive structure of the homotopy category", _ex_1_2_1),
    "1.4.1": ("homotopic maps are identified", _ex_1_4_1),
    "1.5.1": ("derived Hom from the regular module is cohomology", _ex_1_5_1),
    "1.5.2": ("module stalks embed fully faithfully", _ex_1_5_2),
    "1.6.1": ("vector-space complexes split into stalks", _ex_1_6_1),
    "1.6.3-counts": ("indecomposable counts 6/6/5", _ex_1_6_3_counts),
    "1.6.3-ext": ("Ext bounds and hereditary flags", _ex_1_6_3_ext),
    "1.6.3-ar": ("AR quiver shapes", _ex_1_6_3_ar),
    "1.7.1": ("derived Hom invariance under replacement", _ex_1_7_1),
    "1.7.2": ("Hom agreement for injective resolutions", _ex_1_7_2),
    "1.7.3": ("dual numbers: periodic resolutions and stable data", _ex_1_7_3),
    "2.1.1": ("coproducts of exact triangles", _ex_2_1_1),
    "2.4.1": ("fill-in nonuniqueness witness", _ex_2_4_1),
    "2.5.1": ("TR1-TR4 verification suite", _ex_2_5_1),
    "3.1.1": ("quasi-isomorphism iff invertible in D", _ex_3_1_1),
    "3.3.2": ("acyclic complexes of projectives, stable AR quiver", _ex_3_3_2),
    "3.5.1": ("idempotent slice functor exactness", _ex_3_5_1),
    "5.1.1": ("injective resolutions compute Hom in K", _ex_5_1_1),
    "5.3.1": ("tilting endomorphism algebras", _ex_5_3_1),
    "6.1.1": ("dg endomorphism cohomology equals Ext", _ex_6_1_1),
    "7.4.1": ("split sequences vs cones", _ex_7_4_1),
    "7.5.1": ("stable Homs via complete resolutions", _ex_7_5_1),
}


def available_exercises() -> list[tuple[str, str]]:
    return [(k, v[0]) for k, v in sorted(_EXERCISES.items())]


def run_exercise(exercise_id: str, options: Options | None = None) -> Report:
    """Run one numbered suite; unknown ids raise with the available list."""
    options = options or Options()
    entry = _EXERCISES.get(exercise_id)
    if entry is None:
        ids = ", ".join(k for k, _ in available_exercises())
        raise ValueError(f"unknown exercise {exercise_id!r}; available: {ids}")
    _, fn = entry
    start = time.perf_counter()
    algebra, prime, checks = fn(options)
    runtime = time.perf_counter() - start
    return Report(
        exercise=exercise_id,
        algebra=algebra,
        prime=prime,
        seed=options.seed,
        checks=checks,
        runtime=runtime,
    )
