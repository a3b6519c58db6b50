"""homcat: exact homological algebra over prime fields.

A small engine that answers homological questions about concrete
finite-dimensional algebras (module categories, bounded complexes, derived
Homs and Ext, Auslander-Reiten quivers, tilting endomorphism rings, dg
endomorphism cohomology, stable module categories) by reducing everything to
dense linear algebra over F_p.  All certificates (homotopies, isomorphisms,
resolutions) are re-verified exactly on construction.
"""

from homcat.linalg import Fp, Mat
from homcat.algebras import (
    Alg,
    AlgIso,
    algebra_from_json,
    algebra_iso_search,
    algebra_to_json,
    make_algebra,
    opposite,
    preset,
)
from homcat.modules import (
    MMap,
    Mod,
    ar_quiver,
    classify_indecomposables,
    decompose,
    direct_sum,
    hom_space,
    injective_envelope,
    is_injective,
    is_isomorphic,
    is_projective,
    kci,
    known_indecomposables,
    make_module,
    projective_cover,
    projective_module,
    regular_module,
    simple_module,
    socle,
    top,
    zero_module,
)
from homcat.quivers import Quiver
from homcat.complexes import (
    CMap,
    Cx,
    Htp,
    cohomology_dims,
    cone_complex,
    hom_complex,
    hom_k_dim,
    make_complex,
    null_homotopy,
    shift,
    stalk,
    truncate,
)
from homcat.triangles import (
    Oct,
    Tri,
    certify_triangle,
    cone_triangle,
    fill_in,
    fillin_ambiguity,
    octahedron,
    rotate,
    semisimple_split,
    split_seq_to_triangle,
    sum_triangles,
)
from homcat.derived import (
    DGAlg,
    Resolution,
    dg_cohomology_dims,
    dg_end,
    end_algebra,
    ext,
    hom_derived,
    idempotent_slice,
    inj_resolution,
    is_iso_in_D,
    khom_agreement,
    proj_resolution,
    resolve_complex,
    tilting_check,
)
from homcat.stable import (
    CompleteRes,
    assert_self_injective,
    complete_resolution,
    cosyzygy,
    stable_ar_quiver,
    stable_hom,
    stable_hom_via_cr,
    stable_indecomposables,
    syzygy,
    z0,
)

__version__ = "0.1.0"
