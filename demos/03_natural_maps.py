"""The reduced ring, the natural map from the primary spectrum into its
prime spectrum, fibers, and maps induced by quotient projections.

Run: python demos/03_natural_maps.py
"""

from gpspec import (
    BaseRing,
    GradedModule,
    GradingGroup,
    InducedSpectrumMap,
    analyze_natural_map,
    quotient_module,
    reduced_ring,
)
from gpspec.maps import primary_point_image

Z = BaseRing(0)
Z2 = GradingGroup((2,))

for n in (6, 8, 30):
    M = GradedModule(BaseRing(n), Z2, [(n, (0,))])
    res = analyze_natural_map(M)
    print(f"=== natural map on the primary spectrum of {M.text()} ===")
    print("  reduced ring:", res.reduced.ring.text())
    print("  injective:", res.injective.label, " surjective:", res.surjective.label)
    print("  homeomorphism:", res.homeomorphism.label)
    for p, mask in res.fibers:
        members = [q.text() for q in res.space.members(mask)]
        print(f"  fiber over {p.text()}: {members}")
    print()

# Mixed torsion over the integers: the annihilator is (12), so the reduced
# ring is Z12 even though the base ring is Z.
M = GradedModule(Z, Z2, [(4, (0,)), (6, (1,))])
print("annihilator of", M.text(), "is", M.zero_submodule.colon().text())
print("reduced ring:", reduced_ring(M).ring.text())
print()

# Pointwise images work even when the ring spectrum is infinite:
MZ = GradedModule(Z, Z2, [(0, (0,))])
print("image of 4Z under the natural map:", primary_point_image(MZ.submodule([(4,)])).text())
print()

# A quotient projection induces an injective continuous map of primary
# spectra going the other way; pulling back the point 2(Z/4Z) gives 2Z.
Q, proj = quotient_module(MZ, MZ.submodule([(4,)]))
pi = InducedSpectrumMap(proj)
print("pullback of 2(Z/4Z):", pi.apply(Q.submodule([(2,)])).text())
