"""Regenerate the bundled strongly-regular-graph corpus under data/srg/.

Run it as ``python scripts/generate_srg_data.py``; ``--help`` lists the
options.

The published families cannot be bundled, so the corpus is generated from
classical constructions: lattice and Shrikhande graphs, the triangular graph
with its Seidel-switching relatives, Paley graphs, Latin-square graphs,
Steiner-triple-system block graphs, and switching-class searches seeded by
those.  Every generated graph is validated against its ``(n, k, lambda, mu)``
parameters, and families are deduplicated with the label-invariant stable
refinement fingerprint (distinct fingerprints prove pairwise
non-isomorphism).  Each family is written as one graph6 file, plus a
manifest consumed by the benchmark harness and a README of provenance.

Families built this way are complete for (16,6,2,2) and (28,12,6,4); for the
larger parameter sets they are correct but partial samples of the published
catalogs.  The constructions live here, not in the ``pathcomplex`` package,
which keeps only the parameter check (``pathcomplex.srg``); the tests import
them from this module.
"""

import argparse
import itertools
import pathlib
import sys
import time
from dataclasses import dataclass

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pathcomplex.complexes import lift_complex  # noqa: E402
from pathcomplex.graphs import SimpleGraph, complement_graph, encode_graph6  # noqa: E402
from pathcomplex.refine import stable_fingerprint  # noqa: E402
from pathcomplex.srg import is_strongly_regular, rook_graph_4x4  # noqa: E402


# ---------------------------------------------------------------------------
# switching
# ---------------------------------------------------------------------------


def seidel_switch(g: SimpleGraph, subset) -> SimpleGraph:
    """Complement all edges between ``subset`` and the rest of the graph."""
    inside = set(subset)
    edges = set(g.edges)
    for u in inside:
        for v in range(g.n):
            if v in inside or v == u:
                continue
            e = (u, v) if u < v else (v, u)
            if e in edges:
                edges.discard(e)
            else:
                edges.add(e)
    return SimpleGraph.from_edges(g.n, edges)


def add_isolated_vertex(g: SimpleGraph) -> SimpleGraph:
    return SimpleGraph.from_edges(g.n + 1, g.edges)


def delete_vertex(g: SimpleGraph, v: int) -> SimpleGraph:
    keep = [u for u in range(g.n) if u != v]
    relabel = {u: i for i, u in enumerate(keep)}
    edges = [
        (relabel[a], relabel[b]) for a, b in g.edges if a != v and b != v
    ]
    return SimpleGraph.from_edges(g.n - 1, edges)


def two_graph_descendants(g: SimpleGraph) -> list:
    """Descendants of the two-graph of ``g`` plus an isolated point.

    For each point, switch the extended graph so the point becomes isolated
    and delete it.  When ``g`` is strongly regular with k = 2*mu every
    descendant shares its parameters.
    """
    h = add_isolated_vertex(g)
    out = []
    for p in range(h.n):
        switched = seidel_switch(h, h.adjacency[p])
        out.append(delete_vertex(switched, p))
    return out


# ---------------------------------------------------------------------------
# classical constructions
# ---------------------------------------------------------------------------


def shrikhande_graph() -> SimpleGraph:
    """Cayley graph of Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a, b in itertools.combinations(range(16), 2):
        d = ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4)
        if d in diffs:
            edges.append((a, b))
    return SimpleGraph.from_edges(16, edges)


def triangular_graph(m: int = 8) -> SimpleGraph:
    """Intersection graph of the 2-subsets of an m-set; T(8) is SRG(28,12,6,4)."""
    pairs = list(itertools.combinations(range(m), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (idx[a], idx[b])
        for a, b in itertools.combinations(pairs, 2)
        if set(a) & set(b)
    ]
    return SimpleGraph.from_edges(len(pairs), edges)


def chang_graphs() -> list:
    """The three Seidel switches of T(8) that stay 12-regular.

    Switching sets: a perfect matching of the underlying 8-set, an 8-cycle,
    and a triangle plus a pentagon.
    """
    pairs = list(itertools.combinations(range(8), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    t8 = triangular_graph(8)

    def ids(edge_list):
        return [idx[tuple(sorted(e))] for e in edge_list]

    matching = ids([(0, 1), (2, 3), (4, 5), (6, 7)])
    octagon = ids([(i, (i + 1) % 8) for i in range(8)])
    tri_pent = ids([(0, 1), (1, 2), (0, 2),
                    (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])
    return [seidel_switch(t8, s) for s in (matching, octagon, tri_pent)]


def paley_graph(q: int) -> SimpleGraph:
    """Quadratic-residue graph over GF(q); q = 25 uses GF(5)[x]/(x^2-2)."""
    if q == 25:
        els = [(a, b) for a in range(5) for b in range(5)]
        idx = {e: i for i, e in enumerate(els)}

        def mul(p, r):
            return ((p[0] * r[0] + 2 * p[1] * r[1]) % 5,
                    (p[0] * r[1] + p[1] * r[0]) % 5)

        squares = {mul(e, e) for e in els if e != (0, 0)}
        edges = []
        for e, f in itertools.combinations(els, 2):
            if ((e[0] - f[0]) % 5, (e[1] - f[1]) % 5) in squares:
                edges.append((idx[e], idx[f]))
        return SimpleGraph.from_edges(25, edges)
    if q % 4 != 1:
        raise ValueError("Paley graphs need q = 1 (mod 4)")
    residues = {(x * x) % q for x in range(1, q)}
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(q), 2)
        if (v - u) % q in residues
    ]
    return SimpleGraph.from_edges(q, edges)


def cyclic_latin_square(m: int) -> list:
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def noncyclic_latin_square_order5() -> list:
    """First reduced order-5 square (lexicographic search order) that is not
    in the cyclic main class; the 4-clique count of the Latin-square graph
    separates the two classes."""
    cyclic_k4 = _k4_count(latin_square_graph(cyclic_latin_square(5)))
    for square in _reduced_latin_squares(5):
        if _k4_count(latin_square_graph(square)) != cyclic_k4:
            return square
    raise RuntimeError("no second Latin-square class found")


def _k4_count(g: SimpleGraph) -> int:
    count = 0
    for a, b in g.sorted_edges():
        common = [w for w in g.adjacency[a] if w > b and g.has_edge(b, w)]
        for i, u in enumerate(common):
            for v in common[i + 1:]:
                count += g.has_edge(u, v)
    return count


def _reduced_latin_squares(m: int):
    """All reduced m x m Latin squares, lexicographic row order."""
    first = list(range(m))

    def fill(rows):
        if len(rows) == m:
            yield [list(r) for r in rows]
            return
        i = len(rows)

        def build(row):
            j = len(row)
            if j == m:
                yield from fill(rows + [tuple(row)])
                return
            for s in range(m):
                if s in row:
                    continue
                if any(r[j] == s for r in rows):
                    continue
                yield from build(row + [s])

        yield from build([i])

    yield from fill([tuple(first)])


def latin_square_graph(square) -> SimpleGraph:
    """Cells adjacent iff same row, same column, or same symbol."""
    m = len(square)
    cells = [(i, j) for i in range(m) for j in range(m)]
    idx = {c: t for t, c in enumerate(cells)}
    edges = []
    for a, b in itertools.combinations(cells, 2):
        if a[0] == b[0] or a[1] == b[1] or square[a[0]][a[1]] == square[b[0]][b[1]]:
            edges.append((idx[a], idx[b]))
    return SimpleGraph.from_edges(m * m, edges)


# ---------------------------------------------------------------------------
# Steiner triple systems on 15 points and their block graphs
# ---------------------------------------------------------------------------

_FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def _sts_is_valid(blocks) -> bool:
    cover = {}
    for b in blocks:
        for p in itertools.combinations(sorted(b), 2):
            cover[p] = cover.get(p, 0) + 1
    return (
        len(blocks) == 35
        and len(cover) == 105
        and all(v == 1 for v in cover.values())
    )


def _sts_projective() -> list:
    """Points are the nonzero 4-bit vectors; triples are the xor-zero sets."""
    blocks = {
        tuple(sorted((x, y, x ^ y)))
        for x, y in itertools.combinations(range(1, 16), 2)
    }
    return sorted((a - 1, b - 1, c - 1) for a, b, c in blocks)


def _sts_cyclic(long_base) -> list:
    blocks = set()
    for base in long_base:
        for t in range(15):
            blocks.add(tuple(sorted((v + t) % 15 for v in base)))
    for t in range(5):
        blocks.add(tuple(sorted((v + t) % 15 for v in (0, 5, 10))))
    return sorted(blocks)


def _round_robin_factorization() -> list:
    """The rotational one-factorization of K8 (points 0..6 plus 7)."""
    factors = []
    for i in range(7):
        f = [(i, 7)] + [((i + j) % 7, (i - j) % 7) for j in range(1, 4)]
        factors.append(sorted(tuple(sorted(p)) for p in f))
    return factors


def _factorization_swap(factors, i, j, cycle_index, rng) -> list:
    """Exchange two one-factors along one alternating cycle of their union."""
    fi, fj = set(factors[i]), set(factors[j])
    neighbors = {}
    for a, b in fi | fj:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    seen = set()
    cycles = []
    for start in sorted(neighbors):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            step = [x for x in neighbors[cur] if x != prev][0]
            if step == start:
                break
            cyc.append(step)
            seen.add(step)
            prev, cur = cur, step
        cycles.append(cyc)
    cyc = cycles[cycle_index % len(cycles)]
    cyc_edges = {
        tuple(sorted((cyc[t], cyc[(t + 1) % len(cyc)]))) for t in range(len(cyc))
    }
    out = [list(f) for f in factors]
    out[i] = sorted((fi - cyc_edges) | (cyc_edges & fj))
    out[j] = sorted((fj - cyc_edges) | (cyc_edges & fi))
    return out


def _sts_doubling(factors) -> list:
    """15-point system from the Fano plane and a one-factorization of K8."""
    blocks = [tuple(b) for b in _FANO]
    for x in range(7):
        for a, b in factors[x]:
            blocks.append(tuple(sorted((x, 7 + a, 7 + b))))
    return sorted(blocks)


def steiner_triple_system_15(variant, rng=None) -> list:
    """Named STS(15) constructions used for the 35-vertex families."""
    if variant == "projective":
        blocks = _sts_projective()
    elif variant == "cyclic":
        blocks = _sts_cyclic([(0, 1, 4), (0, 2, 9)])
    elif variant == "doubled":
        blocks = _sts_doubling(_round_robin_factorization())
    elif variant == "doubled-swapped":
        rng = rng or np.random.default_rng(0)
        factors = _round_robin_factorization()
        factors = _factorization_swap(factors, 0, 1, 0, rng)
        factors = _factorization_swap(factors, 2, 5, 0, rng)
        blocks = _sts_doubling(factors)
    else:
        raise ValueError(f"unknown STS variant {variant!r}")
    if not _sts_is_valid(blocks):
        raise RuntimeError(f"STS construction {variant!r} is invalid")
    return blocks


def steiner_block_graph(blocks) -> SimpleGraph:
    """Blocks adjacent iff they share a point; SRG(35,18,9,9) for STS(15)."""
    sets = [frozenset(b) for b in blocks]
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(sets)), 2)
        if sets[i] & sets[j]
    ]
    return SimpleGraph.from_edges(len(sets), edges)


# ---------------------------------------------------------------------------
# switching-class search for regular graphs one vertex up
# ---------------------------------------------------------------------------


def find_regular_switch_sets(
    g: SimpleGraph,
    target_degree: int,
    limit: int = 8,
    time_budget: float = 20.0,
    order=None,
):
    """Vertex sets S whose switch makes ``g`` plus an isolated vertex regular.

    The degree conditions pin |S| and the inside/outside S-degrees; the search
    walks vertices in the given order (default 0..n-1) and backtracks on the
    inside-degree bound.  Returns up to ``limit`` solutions as vertex tuples.
    """
    n, k = g.n, g.degree(0)
    s = target_degree
    inside2 = s + target_degree + k - (n + 1)
    outside2 = k + s - target_degree
    if inside2 < 0 or inside2 % 2 or outside2 % 2:
        return []
    inside_deg, outside_deg = inside2 // 2, outside2 // 2
    order = list(order) if order is not None else list(range(n))
    masks = [0] * n
    for v in range(n):
        for w in g.adjacency[v]:
            masks[v] |= 1 << w
    sols = []
    t0 = time.monotonic()

    def rec(start, smask, chosen):
        if len(sols) >= limit or time.monotonic() - t0 > time_budget:
            return
        if len(chosen) == s:
            for v in range(n):
                d = bin(masks[v] & smask).count("1")
                if d != (inside_deg if (smask >> v) & 1 else outside_deg):
                    return
            sols.append(tuple(sorted(chosen)))
            return
        for i in range(start, n - (s - len(chosen)) + 1):
            v = order[i]
            nm = smask | (1 << v)
            if all(
                bin(masks[u] & nm).count("1") <= inside_deg for u in chosen + [v]
            ):
                rec(i + 1, nm, chosen + [v])
                if len(sols) >= limit or time.monotonic() - t0 > time_budget:
                    return

    rec(0, 0, [])
    return sols


def switched_extension(g: SimpleGraph, subset) -> SimpleGraph:
    """Add an isolated vertex, then switch on ``subset`` of the original graph."""
    return seidel_switch(add_isolated_vertex(g), subset)


# ---------------------------------------------------------------------------
# family assembly
# ---------------------------------------------------------------------------


def dedupe_by_fingerprint(graphs, dim: int = 3) -> list:
    """Keep the first graph of each stable-fingerprint class, in input order.

    The fingerprint is exact for path refinement at ``dim``, so the kept
    graphs are pairwise distinguished by it (hence non-isomorphic), and each
    dropped graph is indistinguishable from an earlier keeper.
    """
    kept = []
    seen = set()
    for g in graphs:
        key = stable_fingerprint(lift_complex(g, "path", dim))
        if key not in seen:
            seen.add(key)
            kept.append(g)
    return kept


@dataclass(frozen=True)
class GeneratedFamily:
    name: str
    n: int
    k: int
    lam: int
    mu: int
    graphs: tuple
    complete: bool
    note: str


def _checked(name, graphs, n, k, lam, mu) -> list:
    out = []
    for g in graphs:
        if not is_strongly_regular(g, n, k, lam, mu):
            raise RuntimeError(f"{name}: construction failed the parameter check")
        out.append(g)
    return out


def build_families(search_time: float = 20.0, search_limit: int = 6) -> list:
    """Construct and validate every family the corpus can provide, printing
    each family's name as its construction starts."""
    out = []

    print("SR(16,6,2,2): lattice + Shrikhande", flush=True)
    g16 = dedupe_by_fingerprint(
        _checked("SR(16,6,2,2)", [rook_graph_4x4(), shrikhande_graph()], 16, 6, 2, 2),
        dim=3,
    )
    out.append(GeneratedFamily(
        "SR(16,6,2,2)", 16, 6, 2, 2, tuple(g16), True,
        "lattice graph and Shrikhande graph; the full family",
    ))

    print("SR(28,12,6,4): T(8) + Chang switches", flush=True)
    g28 = dedupe_by_fingerprint(
        _checked("SR(28,12,6,4)", [triangular_graph(8)] + chang_graphs(),
                 28, 12, 6, 4),
        dim=3,
    )
    out.append(GeneratedFamily(
        "SR(28,12,6,4)", 28, 12, 6, 4, tuple(g28), True,
        "triangular graph T(8) and the three Chang graphs; the full family",
    ))

    print("SR(25,12,5,6): Paley + Latin squares + descendants", flush=True)
    base25 = [paley_graph(25), latin_square_graph(noncyclic_latin_square_order5())]
    base25 = _checked("SR(25,12,5,6)", base25, 25, 12, 5, 6)
    expanded = list(base25)
    for g in base25:
        for d in two_graph_descendants(g):
            if is_strongly_regular(d, 25, 12, 5, 6):
                expanded.append(d)
    g25 = dedupe_by_fingerprint(expanded, dim=3)
    out.append(GeneratedFamily(
        "SR(25,12,5,6)", 25, 12, 5, 6, tuple(g25), False,
        "Paley, Latin-square, and two-graph descendant constructions; "
        "a partial sample of the published 15",
    ))

    print("SR(26,10,3,4): switching-class searches above the 25-vertex members",
          flush=True)
    candidates = []
    for seed_graph in g25:
        for seed in (0, 1, 2, 3):
            rng = np.random.default_rng(seed)
            order = [int(x) for x in rng.permutation(seed_graph.n)]
            for subset in find_regular_switch_sets(
                seed_graph, 10, limit=search_limit,
                time_budget=search_time, order=order,
            ):
                cand = switched_extension(seed_graph, subset)
                if is_strongly_regular(cand, 26, 10, 3, 4):
                    candidates.append(cand)
    g26 = dedupe_by_fingerprint(candidates, dim=3) if candidates else []
    out.append(GeneratedFamily(
        "SR(26,10,3,4)", 26, 10, 3, 4, tuple(g26), False,
        "regular switching classes above the 25-vertex members; "
        "a partial sample of the published 10",
    ))

    print("SR(29,14,6,7): Paley only", flush=True)
    g29 = _checked("SR(29,14,6,7)", [paley_graph(29)], 29, 14, 6, 7)
    out.append(GeneratedFamily(
        "SR(29,14,6,7)", 29, 14, 6, 7, tuple(g29), False,
        "Paley graph only: the conference two-graph on 30 points is "
        "point-transitive, so descendants and switches add nothing new; "
        "1 of the published 41",
    ))

    print("SR(35,18,9,9): Steiner triple system block graphs", flush=True)
    sts_variants = ["projective", "cyclic", "doubled", "doubled-swapped"]
    blocks35 = [
        steiner_block_graph(steiner_triple_system_15(v)) for v in sts_variants
    ]
    blocks35 = _checked("SR(35,18,9,9)", blocks35, 35, 18, 9, 9)
    g35 = dedupe_by_fingerprint(blocks35, dim=3)
    out.append(GeneratedFamily(
        "SR(35,18,9,9)", 35, 18, 9, 9, tuple(g35), False,
        "block graphs of four Steiner triple systems on 15 points; "
        "a partial sample of the published 227",
    ))

    print("SR(35,16,6,8): complements of the block graphs", flush=True)
    g35c = _checked(
        "SR(35,16,6,8)", [complement_graph(g) for g in g35], 35, 16, 6, 8
    )
    out.append(GeneratedFamily(
        "SR(35,16,6,8)", 35, 16, 6, 8, tuple(g35c), False,
        "complements of the SR(35,18,9,9) members; partial",
    ))

    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parents[1] / "data" / "srg"),
        help="output directory (default: data/srg next to this repo)",
    )
    parser.add_argument("--search-time", type=float, default=20.0,
                        help="seconds per switching-class search restart")
    parser.add_argument("--search-limit", type=int, default=6,
                        help="solutions per switching-class search restart")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    families = build_families(args.search_time, args.search_limit)
    manifest_lines = []
    notes = ["# Generated strongly-regular-graph corpus", ""]
    for fam in families:
        filename = f"sr{fam.n}_{fam.k}_{fam.lam}_{fam.mu}.g6"
        with open(out_dir / filename, "w", encoding="ascii") as handle:
            for g in fam.graphs:
                handle.write(encode_graph6(g) + "\n")
        manifest_lines.append(
            f"{fam.name} {filename} {fam.n} {fam.k} {fam.lam} {fam.mu}"
        )
        status = "complete" if fam.complete else "partial"
        notes.append(f"- {fam.name}: {len(fam.graphs)} graphs ({status}). {fam.note}.")
        print(f"{fam.name}: {len(fam.graphs)} graphs -> {filename}")
    with open(out_dir / "manifest.txt", "w", encoding="ascii") as handle:
        handle.write("\n".join(manifest_lines) + "\n")
    with open(out_dir / "README.md", "w", encoding="ascii") as handle:
        handle.write("\n".join(notes) + "\n")
    print(f"corpus written to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
