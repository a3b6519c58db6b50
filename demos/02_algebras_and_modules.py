"""The preset algebras and their module categories.

Three matrix algebras (upper triangular and friends), truncated polynomial
rings, and the ground field; modules are tuples of action matrices and all
functors are exact linear algebra.
"""

from homcat.algebras import preset
from homcat.linalg import kernel_basis
from homcat.modules import (
    decompose,
    hom_space,
    injective_envelope,
    is_isomorphic,
    projective_cover,
    projective_module,
    regular_module,
    simple_module,
    socle,
    top,
)

lam1 = preset("lambda1", 101)
print("algebra:", lam1, "radical dimension:", lam1.radical.cols)
print("basis labels:", lam1.labels)

# The regular module decomposes into the three row ideals.
reg = regular_module(lam1)
print("\nregular module decomposes as:")
for piece, mult in decompose(reg):
    print(f"  dim {piece.dim} x{mult}, idempotent slice dims {piece.dim_vector()}")

# Projectives, simples, tops and socles.
p1 = projective_module(lam1, 0)
print("\nP1 has dim", p1.dim, "with top", top(p1)[0].dim_vector(), "and socle", socle(p1)[0].dim_vector())
s1 = simple_module(lam1, 0)
print("Hom(P1, S1) has dimension", len(hom_space(p1, s1)))

# Covers and envelopes are minimal and verified.
cover, epi = projective_cover(s1)
print("\nprojective cover of S1 has dim", cover.dim, "and kernel dim", kernel_basis(epi.mat).cols)
env, mono = injective_envelope(simple_module(lam1, 2))
print("injective envelope of S3 has dim", env.dim)

# Isomorphism testing returns a verified invertible intertwiner.
from homcat.modules import radical_submodule, submodule

radical_of_p1 = submodule(p1, radical_submodule(p1))[0]
iso = is_isomorphic(projective_module(lam1, 1), radical_of_p1)
print("\nP2 is isomorphic to rad(P1):", iso is not None)

# Self-injective algebras look very different: over k[T]/(T^n) the regular
# module is its own injective envelope.
t3 = preset("truncpoly(3)", 101)
print("\nover", t3, "the regular module is injective:",
      injective_envelope(regular_module(t3))[0].dim == 3)
