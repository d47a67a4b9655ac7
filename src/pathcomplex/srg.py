"""The strongly-regular parameter check of the benchmark corpus.

``bench.load_family`` checks every graph of a manifest family against the
family's ``(n, k, lambda, mu)`` with :func:`is_strongly_regular`.
:func:`rook_graph_4x4` is a small strongly regular graph for checks and
tests.  The constructions that generate the corpus under ``data/srg/``, and
its fingerprint dedupe, live in ``scripts/generate_srg_data.py``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graphs import SimpleGraph

__all__ = ["is_strongly_regular", "srg_parameters", "rook_graph_4x4"]


def srg_parameters(g: SimpleGraph):
    """(n, k, lambda, mu) if the graph is strongly regular, else None."""
    n = g.n
    if n < 2:
        return None
    degs = {len(a) for a in g.adjacency}
    if len(degs) != 1:
        return None
    k = degs.pop()
    a = g.adjacency_matrix().astype(np.int32)
    common = a @ a
    off = ~np.eye(n, dtype=bool)
    lam = set(common[a.astype(bool)].tolist())
    mu = set(common[(a == 0) & off].tolist())
    if len(lam) != 1 or len(mu) != 1:
        return None
    return (n, k, lam.pop(), mu.pop())


def is_strongly_regular(g: SimpleGraph, n: int, k: int, lam: int, mu: int) -> bool:
    return srg_parameters(g) == (n, k, lam, mu)


def rook_graph_4x4() -> SimpleGraph:
    """Same row or same column on a 4x4 grid; SRG(16,6,2,2)."""
    edges = []
    for a, b in itertools.combinations(range(16), 2):
        if (a // 4 == b // 4) != (a % 4 == b % 4):
            edges.append((a, b))
    return SimpleGraph.from_edges(16, edges)
