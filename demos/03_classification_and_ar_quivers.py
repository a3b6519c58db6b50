"""Classifying indecomposables and drawing Auslander-Reiten quivers.

The engine knits the AR quiver from the projectives (tau, tau^-1 and the
middle terms of almost split sequences), deduplicates up to isomorphism, and
certifies completeness by Auslander's theorem, so the answer is the same at
every prime.  Arrow multiplicities are dim rad/rad^2 of Hom spaces.
"""

from homcat.algebras import preset
from homcat.modules import ar_quiver, classify_indecomposables

for name in ("lambda1", "lambda2", "lambda3", "truncpoly(3)"):
    for p in (2, 101):
        ind = classify_indecomposables(preset(name, p))
        print(f"{name} at p={p}: {len(ind)} indecomposables with dims {sorted(m.dim for m in ind)}")

print("\nAR quiver of lambda1 (the mesh of the linearly oriented A3 quiver):")
quiver = ar_quiver(preset("lambda1", 2))
print(quiver.to_dot("lambda1_ar"))

print("AR quiver of truncpoly(3) (a line with arrows both ways):")
print(ar_quiver(preset("truncpoly(3)", 2)).to_dot("truncpoly3_ar"))
