"""Build the Zariski-type topology on a primary spectrum, inspect its
closed sets and base, analyze it, and emit the specialization preorder
as DOT.

Run: python demos/02_topology_tour.py
"""

from gpspec import BaseRing, GradedModule, GradingGroup, analyze_space, build_space
from gpspec.dsl import space_dot
from gpspec.topology import basic_open, closure, radical_core, variety

Z2 = GradingGroup((2,))


def tour(n):
    M = GradedModule(BaseRing(n), Z2, [(n, (0,))])
    sp = build_space(M)
    print(f"=== primary spectrum of {M.text()} ===")
    for i, Q in enumerate(sp.points):
        print(f"  point [{i}] {Q.text()}")
    print("  closed sets:", [sp.indices(m) for m in sp.closed_masks])
    print("  base:", {f"S_{r}": sp.indices(m) for r, m in sp.base})

    # varieties of the named building blocks
    for d in (0, 2, 3):
        N = M.submodule([(d,)]) if d else M.zero_submodule
        print(f"  variety of {N.text():4} ->", sp.indices(variety(sp, N)))

    # closure of a single point: the intersection of the closed sets that
    # contain it (check P4.1 compares it with the variety of the radical)
    print("  closure of point 0:", sp.indices(closure(sp, 1 << 0)))
    print("  radical core of the whole space:", radical_core(sp, sp.full_mask).text())

    rep = analyze_space(sp)
    print(
        "  flags:",
        f"connected={rep.connected} irreducible={rep.irreducible} "
        f"t0={rep.t0} sober={rep.sober} spectral={rep.spectral} "
        f"trivial={rep.trivial_topology}",
    )
    print("  S_5 =", sp.indices(basic_open(sp, 5)),
          " S_%d =" % (n // 2), sp.indices(basic_open(sp, n // 2)))
    print()
    return sp


tour(6)   # discrete two-point space
sp8 = tour(8)  # trivial topology on three points
tour(12)

print("=== DOT for the Z8 space (one mutual-specialization cluster) ===")
print(space_dot(sp8))
