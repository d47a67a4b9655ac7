"""The random-weight network protocol on the hardest 16-vertex pair.

The 4x4 rook graph and the Shrikhande graph, read from the bundled corpus,
are strongly regular with identical parameters (16,6,2,2), so vertex
refinement is blind to them.  Feeding both through the same randomly
initialized message-passing network over their dimension-3 path complexes
separates the embeddings by a wide margin against the 0.01 threshold.
"""

import pathlib

from pathcomplex import (
    NetworkParams,
    embedding_distance,
    forward,
    init_features,
    lift_path_complex,
    read_graph6_file,
)
from pathcomplex.srg import srg_parameters

corpus = pathlib.Path(__file__).resolve().parents[1] / "data" / "srg"
rook, shrik = read_graph6_file(corpus / "sr16_6_2_2.g6")
print("parameters:", srg_parameters(rook), "and", srg_parameters(shrik))

c1 = lift_path_complex(rook, 3)
c2 = lift_path_complex(shrik, 3)
print("member counts:", c1.counts(), "vs", c2.counts())

f1, f2 = init_features(c1), init_features(c2)
for seed in range(5):
    params = NetworkParams.create(seed=seed, layers=4, max_dim=3)
    dist = embedding_distance(forward(c1, f1, params), forward(c2, f2, params))
    verdict = "distinguished" if dist >= 0.01 else "indistinguishable"
    print(f"seed {seed}: embedding distance {dist:10.3f}  -> {verdict}")
