"""Checks on the benchmark's answers.

Every check compares an answer of the program with a computation made apart
from it (networkx, or a plain depth-first search written here) or with a
property the method must have.  None compares against a stored copy of an
earlier output.  Each check returns a list of failure messages; an empty list
means the answer passed.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx
import numpy as np


def nx_graph(n, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------


def clique_profile(g: nx.Graph) -> tuple:
    """Clique counts by size and the multiset of per-vertex K4 counts.

    Both are isomorphism invariants, so two graphs whose profiles differ are
    certainly non-isomorphic.
    """
    sizes = Counter()
    k4_at = Counter()
    for clique in nx.enumerate_all_cliques(g):
        sizes[len(clique)] += 1
        if len(clique) == 4:
            k4_at.update(clique)
    per_vertex = Counter(k4_at[v] for v in g)
    return tuple(sorted(sizes.items())), tuple(sorted(per_vertex.items()))


def simple_path_counts(n: int, adjacency, max_dim: int) -> list:
    """Undirected simple paths on p+1 vertices for p = 0..max_dim, by DFS.

    Each path is found once from either end, so the directed counts are
    halved for p >= 1.
    """
    directed = [0] * (max_dim + 1)
    on_path = [False] * n

    def extend(v, depth):
        for w in adjacency[v]:
            if on_path[w]:
                continue
            directed[depth + 1] += 1
            if depth + 1 < max_dim:
                on_path[w] = True
                extend(w, depth + 1)
                on_path[w] = False

    for s in range(n):
        on_path[s] = True
        if max_dim >= 1:
            extend(s, 0)
        on_path[s] = False
    return [n] + [c // 2 for c in directed[1:]]


def clique_counts(g: nx.Graph, max_dim: int) -> list:
    """Cliques on p+1 vertices for p = 0..max_dim, from networkx."""
    sizes = Counter()
    for clique in nx.enumerate_all_cliques(g):
        if len(clique) > max_dim + 1:
            break  # networkx yields cliques in non-decreasing size
        sizes[len(clique)] += 1
    return [sizes[p + 1] for p in range(max_dim + 1)]


def ring_counts(g: nx.Graph, max_ring: int) -> list:
    """Vertices, edges and chordless cycles of length <= max_ring, from networkx."""
    rings = sum(1 for _ in nx.chordless_cycles(g, length_bound=max_ring))
    return [g.number_of_nodes(), g.number_of_edges(), rings]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_nonisomorphic(graphs, pairs) -> dict:
    """Failures per pair: a same-family pair must be non-isomorphic.

    Differing clique profiles settle a pair; the rest go to
    ``networkx.is_isomorphic``.  The profiles come first because VF2 alone
    needs 30-40 s per SR(28,12,6,4) or SR(35,18,9,9) family.
    """
    profiles = [clique_profile(g) for g in graphs]
    out = {}
    for i, j in pairs:
        if profiles[i] == profiles[j] and nx.is_isomorphic(graphs[i], graphs[j]):
            out[(i, j)] = [f"graphs {i} and {j} are isomorphic"]
    return out


def check_member_counts(label, got, want) -> list:
    got, want = list(got), list(want)
    if got != want:
        return [f"{label} member counts {got}, independent count {want}"]
    return []


def check_c07_report(report, graph_count, seed) -> list:
    """A PCN cell on one SRG family: one outcome for the seed, no failures."""
    want_pairs = graph_count * (graph_count - 1) // 2
    if report.skipped:
        return [f"{report.family}: skipped ({report.diagnostic})"]
    if len(report.outcomes) != 1:
        return [f"{report.family}: {len(report.outcomes)} outcomes for one seed"]
    o = report.outcomes[0]
    out = []
    if o.seed != seed:
        out.append(f"{report.family}: outcome for seed {o.seed}, wanted {seed}")
    if o.pairs != want_pairs or report.pairs != want_pairs:
        out.append(f"{report.family}: {o.pairs} pairs judged, wanted {want_pairs}")
    if o.indistinguishable != 0 or o.failure_rate != 0.0:
        out.append(
            f"{report.family} seed {seed}: {o.indistinguishable} pairs below "
            "epsilon; every non-isomorphic pair must stay at least epsilon apart"
        )
    return out


def check_relabelled_embedding(label, e, e_relabelled, rtol=1e-6) -> list:
    e = np.asarray(e, dtype=np.float64)
    e_relabelled = np.asarray(e_relabelled, dtype=np.float64)
    if e.shape != e_relabelled.shape:
        return [f"{label}: embedding shapes {e.shape} and {e_relabelled.shape}"]
    diff = float(np.linalg.norm(e - e_relabelled))
    scale = float(np.linalg.norm(e))
    if not diff <= rtol * scale:
        return [f"{label}: relabelled copy embeds {diff:.3g} away "
                f"(limit {rtol:g} x {scale:.3g})"]
    return []


def check_bitwise(label, e1, e2) -> list:
    a = np.asarray(e1, dtype=np.float64)
    b = np.asarray(e2, dtype=np.float64)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return [f"{label}: two passes with one seed differ"]
    return []


def check_srg_pair(label, wl1_sep, pwl_sep, full_sep=None) -> list:
    """Same-family SRG pair: regular graphs of one size and degree are 1-WL
    equivalent, the corpus pairs are all separated by PWL at dimension 3, and
    the two update rules must agree."""
    out = []
    if wl1_sep:
        out.append(f"{label}: wl1 separates two k-regular graphs on n vertices")
    if not pwl_sep:
        out.append(f"{label}: pwl does not separate a non-isomorphic pair")
    if full_sep is not None and full_sep != pwl_sep:
        out.append(f"{label}: full rule says {full_sep}, reduced rule {pwl_sep}")
    return out


def check_not_separated(label, separated) -> list:
    if separated:
        return [f"{label}: a relabelled copy is separated"]
    return []


def check_er_pair(label, relabelled, verdicts, pcn_distances, epsilon) -> list:
    """One random pair judged by wl1, swl, cwl, pwl and pcn.

    ``verdicts`` maps method name to "separated".  PWL at dimension 3 is at
    least as strong as wl1, as swl on 3-dimensional cliques and as cwl on
    rings of length <= 4, and PCN is at most as strong as PWL.
    """
    out = []
    if relabelled:
        for method in ("wl1", "swl", "cwl", "pwl"):
            if verdicts[method]:
                out.append(f"{label}: {method} separates a relabelled copy")
    if not verdicts["pwl"]:
        for method in ("wl1", "swl", "cwl"):
            if verdicts[method]:
                out.append(f"{label}: {method} separates a pair pwl does not")
    if relabelled or not verdicts["pwl"]:
        for seed, dist in pcn_distances:
            if not dist < epsilon:
                out.append(f"{label}: pcn seed {seed} distance {dist:.3g} >= "
                           f"{epsilon:g} on a pair that must not separate")
    return out
