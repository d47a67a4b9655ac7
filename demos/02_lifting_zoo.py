"""One small graph, three liftings.

The triangle-with-pendant graph becomes a simplicial complex with one
2-simplex, a cell complex with one ring, and a path complex whose member
counts keep growing with the dimension cap.
"""

from pathcomplex import (
    SimpleGraph,
    lift_clique_complex,
    lift_path_complex,
    lift_ring_complex,
)

g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
print("graph: triangle {0,1,2} plus the pendant edge 2-3")
print()

simplicial = lift_clique_complex(g, 2)
print("clique lift, counts per dimension:", simplicial.counts())

cells = lift_ring_complex(g, 4)
print("ring lift,   counts per dimension:", cells.counts())

for dim in (1, 2, 3, 4):
    paths = lift_path_complex(g, dim)
    print(f"path lift to dimension {dim}:     ", paths.counts())

print()
top = lift_path_complex(g, 3)
gid = top.member_id(3, (1, 0, 2, 3))
print("boundary of the 3-path 1-0-2-3:")
for b in top.boundary_of(gid):
    print("   ", top.carrier_of(b))
