"""Bounded complexes, mapping cones, and the triangulated structure.

Triangles carry certificates: null-homotopies of the composites, and for
non-cone triangles a verified homotopy equivalence onto the cone of their
first map.  Rotation, sums, and the octahedron all re-certify.
"""

import numpy as np

from homcat.algebras import preset
from homcat.complexes import CMap, cohomology_dims, make_complex, null_homotopy, stalk
from homcat.modules import hom_space, projective_module, simple_module
from homcat.samples import random_chain_map, random_complex
from homcat.triangles import (
    cone_triangle,
    fillin_ambiguity,
    octahedron,
    rotate,
    semisimple_split,
    verify_cone_les,
)

lam1 = preset("lambda1", 101)

# The projective resolution of S1 as a two-term complex.
p2, p1 = projective_module(lam1, 1), projective_module(lam1, 0)
inc = hom_space(p2, p1)[0]
x = make_complex(lam1, -1, [p2, p1], [inc])
print("complex P2 -> P1 has cohomology", cohomology_dims(x))

# Cones induce long exact sequences, checked exactly.
rng = np.random.default_rng(0)
f = random_chain_map(random_complex(lam1, rng), random_complex(lam1, rng), rng)
print("cone long exact sequence holds:", verify_cone_les(f))

# Rotating a triangle re-certifies it against a fresh cone.
tri = cone_triangle(f)
rotated = rotate(tri)
print("rotated triangle certificate:", rotated.kind)

# The octahedron: three cone triangles, the fourth certified by solving for its
# equivalence onto the cone, and the commuting-square homotopies.
g = random_chain_map(tri.y, random_complex(lam1, rng), rng)
oct_ = octahedron(f, g)
print("octahedron fourth triangle certified:", oct_.tri_cones.kind)

# Fill-ins need not be unique: over F_2, the cone of the zero map out of a
# shifted stalk carries two non-homotopic completions of (id, id).
gf2 = preset("ground_field", 2)
k = simple_module(gf2, 0)
ambiguous = cone_triangle(CMap.zero(stalk(k, 1), stalk(k, 0)))
a, b = fillin_ambiguity(ambiguous)
print("fill-in witnesses differ and are not homotopic:", null_homotopy(a, b) is None)

# Over a field, every complex splits into its cohomology stalks.
gf = preset("ground_field", 101)
y = random_complex(gf, rng)
stalks, _, _, _ = semisimple_split(y)
print("semisimple splitting:", cohomology_dims(y) == {n: stalks.obj(n).dim for n in y.degrees()})
