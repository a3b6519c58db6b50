"""Stable module categories of self-injective algebras.

Over k[T]/(T^n) projectives and injectives coincide; modules then have
two-sided acyclic resolutions by projectives, and maps-modulo-projectives
can be read off either directly or from those complete resolutions.
"""

from homcat.algebras import preset
from homcat.linalg import rank
from homcat.modules import is_isomorphic, simple_module
from homcat.stable import (
    assert_self_injective,
    complete_resolution,
    stable_ar_quiver,
    stable_hom,
    stable_hom_via_cr,
    stable_indecomposables,
    syzygy,
    z0,
)

t3 = preset("truncpoly(3)", 101)
assert_self_injective(t3)
print("k[T]/(T^3) is self-injective")

k = simple_module(t3, 0)
print("syzygy of the simple has dim", syzygy(k).dim, "(the middle module)")

cr = complete_resolution(k, (-3, 3))
print("complete resolution components:", [cr.cx.obj(n).dim for n in cr.cx.degrees()])
print("differential ranks:", [rank(cr.cx.diff(n).mat) for n in range(-3, 3)])
print("Z^0 recovers the module:", is_isomorphic(z0(cr.cx), k) is not None)

# Stable Homs: two independent routes agree.
t3_small = preset("truncpoly(3)", 2)
stables = stable_indecomposables(t3_small)
print("\nstable indecomposables over F_2:", [m.dim for m in stables])
for a in stables:
    for b in stables:
        direct = stable_hom(a, b)[0]
        via_cr = stable_hom_via_cr(a, b, (-4, 4))
        print(f"  stable Hom(dim {a.dim} -> dim {b.dim}): direct {direct}, via resolutions {via_cr}")

print("\nstable AR quiver of k[T]/(T^3):")
print(stable_ar_quiver(t3_small).to_dot("stable_ar"))
