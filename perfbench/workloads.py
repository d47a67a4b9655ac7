"""The three workloads: set-up, one operation, and the checks on its answers.

A workload is driven by ``run.py``: ``setup`` builds what the timed phase
reuses, ``round(state, r)`` lists the operations of round ``r``, ``inputs``
makes an operation's inputs outside the timed region, ``operation`` is the
timed call into the program, and ``check`` judges every answer after the
timed phase.
Every call into the program goes through a module attribute
(``pc.bench.run_family``), so a traced run sees it.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

SRG_DIM = 3
EPSILON = 0.01
HIDDEN = 16
EMBED = 32
LAYERS = 4

SR16 = "SR(16,6,2,2)"
SR25 = "SR(25,12,5,6)"
SR26 = "SR(26,10,3,4)"
SR28 = "SR(28,12,6,4)"
SR35 = "SR(35,18,9,9)"


def manifest_path(root) -> str:
    return os.path.join(root, "data", "srg", "manifest.txt")


def relabel_edges(edges, n, rng) -> list:
    """A seeded random relabelling, made here rather than by the program."""
    perm = rng.permutation(n)
    return [(int(perm[u]), int(perm[v])) for u, v in edges]


def relabel(pc, g, rng):
    return pc.graphs.SimpleGraph.from_edges(g.n, relabel_edges(g.edges, g.n, rng))


def read_family_nx(spec):
    import networkx as nx

    graphs = nx.read_graph6(spec.path)
    return graphs if isinstance(graphs, list) else [graphs]


def checked_member(seed, r, families, graphs):
    """The (family, graph index) whose relabelled copy round r checks.

    Consecutive seeds walk through every graph of every family, while each
    run pays for one extra lift rather than one per graph.
    """
    k = seed + r
    name = families[k % len(families)]
    return name, (k // len(families)) % len(graphs[name])


def family_failures(spec, graphs) -> dict:
    """Failures per pair that come from the corpus itself: the program's
    graph6 parse must equal networkx's, and no pair may be isomorphic."""
    from checks import check_nonisomorphic, nx_graph

    pairs = list(itertools.combinations(range(len(graphs)), 2))
    out = {pair: [] for pair in pairs}
    reference = read_family_nx(spec)
    parsed = [nx_graph(g.n, g.edges) for g in graphs]
    same = len(reference) == len(parsed) and all(
        a.number_of_nodes() == b.number_of_nodes()
        and {frozenset(e) for e in a.edges} == {frozenset(e) for e in b.edges}
        for a, b in zip(reference, parsed)
    )
    if not same:
        for pair in pairs:
            out[pair].append(f"{spec.name}: graph6 parse differs from networkx")
    for pair, msgs in check_nonisomorphic(reference, pairs).items():
        out[pair].extend(f"{spec.name}: {m}" for m in msgs)
    return out


# ---------------------------------------------------------------------------
# srg-pcn
# ---------------------------------------------------------------------------


class SrgPcn:
    """One operation is one seed of the c07 protocol on SR(28,12,6,4) and
    SR(35,18,9,9) through ``bench.run_family`` with one shared lift cache."""

    name = "srg-pcn"
    families = (SR28, SR35)
    weight_seeds = 10  # test_c07 establishes the zero-failure result for seeds 0..9

    def __init__(self, pc, root, seed):
        self.pc = pc
        self.root = root
        self.seed = seed

    def _cfg(self, layers, seed):
        return self.pc.bench.RunConfig(
            method="pcn", max_dim=SRG_DIM, layers=layers, seeds=(seed,),
            epsilon=EPSILON, hidden_dim=HIDDEN, embed_dim=EMBED, threads=1,
        )

    def setup(self):
        bench = self.pc.bench
        specs = {s.name: s for s in bench.parse_manifest(manifest_path(self.root))}
        cache = bench._LiftCache()
        # A 0-layer cell fills the shared cache the way the first cell of a
        # sweep does: read, validate, lift, and build the boundary CSR and
        # upper triples.  Its verdicts are not used.
        for name in self.families:
            bench.run_family(specs[name], self._cfg(0, 0), cache=cache)
        return {"specs": specs, "cache": cache}

    def round(self, state, r):
        return [(self.seed + r) % self.weight_seeds]

    def inputs(self, state, desc):
        return desc

    def operation(self, state, weight_seed):
        cfg = self._cfg(LAYERS, weight_seed)
        return [
            self.pc.bench.run_family(state["specs"][name], cfg, cache=state["cache"])
            for name in self.families
        ]

    def check(self, state, records) -> list:
        from checks import check_c07_report

        pc = self.pc
        family_msgs = []
        graphs = {}
        for name in self.families:
            spec = state["specs"][name]
            graphs[name] = pc.bench.load_family(spec)
            for msgs in family_failures(spec, graphs[name]).values():
                family_msgs.extend(msgs)
        out = []
        for rec in records:
            msgs = list(family_msgs)
            if rec.error is None:
                for name, report in zip(self.families, rec.result):
                    msgs += check_c07_report(report, len(graphs[name]), rec.inputs)
                msgs += self._embedding_checks(graphs, rec.inputs, rec.round)
            out.append(msgs)
        return out

    def _embedding_checks(self, graphs, weight_seed, r) -> list:
        """For one graph: two passes agree bitwise, and a seeded relabelling
        embeds within 1e-6 relative."""
        from checks import check_bitwise, check_relabelled_embedding

        pc = self.pc
        params = pc.network.NetworkParams.create(
            seed=weight_seed, layers=LAYERS, max_dim=SRG_DIM,
            hidden_dim=HIDDEN, embed_dim=EMBED,
        )

        def embed(g):
            c = pc.complexes.lift_path_complex(g, SRG_DIM)
            feats = pc.network.init_features(c, HIDDEN)
            return c, feats

        name, i = checked_member(self.seed, r, self.families, graphs)
        label = f"{name} graph {i} seed {weight_seed}"
        c, feats = embed(graphs[name][i])
        e1 = pc.network.forward(c, feats, params)
        e2 = pc.network.forward(c, feats, params)
        msgs = check_bitwise(label, e1, e2)
        del c, feats
        rng = np.random.default_rng([self.seed, r])
        c, feats = embed(relabel(pc, graphs[name][i], rng))
        e3 = pc.network.forward(c, feats, params)
        return msgs + check_relabelled_embedding(label, e1, e3)


# ---------------------------------------------------------------------------
# srg-pwl
# ---------------------------------------------------------------------------


class SrgPwl:
    """One operation is one same-family pair judged by ``refine_pair``
    (reduced rule) and ``wl1_refine_pair``; SR(16,6,2,2) and SR(26,10,3,4)
    pairs also run under the full rule."""

    name = "srg-pwl"
    families = (SR16, SR25, SR26, SR28, SR35)
    full_rule = (SR16, SR26)

    def __init__(self, pc, root, seed):
        self.pc = pc
        self.root = root
        self.seed = seed

    def setup(self):
        pc = self.pc
        specs = {s.name: s for s in pc.bench.parse_manifest(manifest_path(self.root))}
        graphs, complexes = {}, {}
        for name in self.families:
            graphs[name] = pc.bench.load_family(specs[name])
            complexes[name] = []
            for g in graphs[name]:
                c = pc.complexes.lift_path_complex(g, SRG_DIM)
                c.boundary_csr()
                c.upper_adjacency()
                complexes[name].append(c)
        # Families take turns, so the ops near the median latency are spread
        # over the whole timed phase rather than bunched in one stretch of it.
        per_family = [
            [(name, i, j) for i, j in itertools.combinations(range(len(graphs[name])), 2)]
            for name in self.families
        ]
        pairs = [
            desc
            for turn in itertools.zip_longest(*per_family)
            for desc in turn
            if desc is not None
        ]
        return {"specs": specs, "graphs": graphs, "complexes": complexes,
                "pairs": pairs}

    def round(self, state, r):
        return list(state["pairs"])

    def inputs(self, state, desc):
        return desc

    def operation(self, state, desc):
        pc = self.pc
        name, i, j = desc
        ci, cj = state["complexes"][name][i], state["complexes"][name][j]
        gi, gj = state["graphs"][name][i], state["graphs"][name][j]
        h1, h2, _ = pc.refine.refine_pair(ci, cj)
        w1, w2, _ = pc.refine.wl1_refine_pair(gi, gj)
        out = {
            "pwl": pc.refine.distinguishes(h1, h2),
            "wl1": pc.refine.distinguishes(w1, w2),
            "full": None,
        }
        if name in self.full_rule:
            for c in (ci, cj):
                c.coboundary_csr()
                c.lower_adjacency()
            f1, f2, _ = pc.refine.refine_pair(ci, cj, rule="full")
            out["full"] = pc.refine.distinguishes(f1, f2)
        return out

    def check(self, state, records) -> list:
        from checks import check_srg_pair

        pair_msgs = {}
        for name in self.families:
            spec = state["specs"][name]
            for (i, j), msgs in family_failures(spec, state["graphs"][name]).items():
                pair_msgs[(name, i, j)] = msgs
        out = []
        checked_rounds = set()
        for rec in records:
            name, i, j = rec.inputs
            msgs = list(pair_msgs[rec.inputs])
            if rec.error is None:
                r = rec.result
                msgs += check_srg_pair(f"{name} pair {i},{j}", r["wl1"], r["pwl"], r["full"])
            # the first pair of the checked family also carries the round's
            # relabelling check
            member = checked_member(self.seed, rec.round, self.families, state["graphs"])
            if name == member[0] and rec.round not in checked_rounds:
                checked_rounds.add(rec.round)
                msgs += self._relabel_check(state, *member, rec.round)
            out.append(msgs)
        return out

    def _relabel_check(self, state, name, i, r) -> list:
        from checks import check_not_separated

        pc = self.pc
        rng = np.random.default_rng([self.seed, r])
        g = relabel(pc, state["graphs"][name][i], rng)
        copy = pc.complexes.lift_path_complex(g, SRG_DIM)
        h1, h2, _ = pc.refine.refine_pair(state["complexes"][name][i], copy)
        return check_not_separated(f"{name} graph {i}", pc.refine.distinguishes(h1, h2))


# ---------------------------------------------------------------------------
# er-pairs
# ---------------------------------------------------------------------------


ER_N = 20
ER_P = 0.3
ER_STRATA = 8
ER_CLIQUE_DIM = 3
ER_RING = 4
ER_PATH_DIM = 3
ER_PCN_SEEDS = 2


def edge_count_strata(n=ER_N, p=ER_P, strata=ER_STRATA) -> list:
    """Edge counts at the midpoints of ``strata`` equal slices of Binomial(N, p).

    G(n, p) conditioned on m edges is uniform over m-edge graphs, so drawing
    one uniform m-edge graph per stratum samples G(n, p) with the edge count
    stratified.  The edge count sets most of an operation's cost, so this
    keeps it from moving the figures of one run against another.
    """
    pairs = n * (n - 1) // 2
    cdf, acc = [], 0.0
    for m in range(pairs + 1):
        acc += math.comb(pairs, m) * p**m * (1 - p) ** (pairs - m)
        cdf.append(acc)
    out = []
    for j in range(strata):
        target = (j + 0.5) / strata
        out.append(next(m for m, c in enumerate(cdf) if c >= target))
    return out


def uniform_edges(rng, m, n=ER_N) -> list:
    """A uniform graph on n vertices with exactly m edges."""
    iu, ju = np.triu_indices(n, k=1)
    chosen = np.sort(rng.choice(iu.size, size=m, replace=False))
    return [(int(iu[k]), int(ju[k])) for k in chosen]


def rewire_edges(edges, rng) -> list:
    """As many degree-preserving double-edge swaps (a,b),(c,d) -> (a,d),(c,b)
    as there are edges, giving up after 100 tries per swap."""
    edge_list = [tuple(e) for e in edges]
    present = {frozenset(e) for e in edge_list}
    swaps = len(edge_list)
    done = tries = 0
    while done < swaps and tries < 100 * max(swaps, 1) and len(edge_list) >= 2:
        tries += 1
        x, y = rng.choice(len(edge_list), size=2, replace=False)
        a, b = edge_list[x]
        c, d = edge_list[y]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        new1, new2 = frozenset((a, d)), frozenset((c, b))
        if new1 in present or new2 in present:
            continue
        present -= {frozenset((a, b)), frozenset((c, d))}
        present |= {new1, new2}
        edge_list[x], edge_list[y] = (a, d), (c, b)
        done += 1
    return edge_list


class ErPairs:
    """One operation is one ``pathcomplex test``-style pair judged by wl1,
    swl, cwl, pwl and pcn, with every graph lifted cold."""

    name = "er-pairs"

    def __init__(self, pc, root, seed):
        self.pc = pc
        self.root = root
        self.seed = seed
        self.strata = edge_count_strata()

    def setup(self):
        return None  # every operation lifts its own inputs

    def round(self, state, r):
        # every edge-count stratum once with a relabelled partner and once
        # with a rewired one
        per = 2 * len(self.strata)
        return [(per * r + k, k % 2 == 0, self.strata[k // 2]) for k in range(per)]

    def inputs(self, state, desc):
        index, relabelled, m = desc
        rng = np.random.default_rng([self.seed, index])
        edges1 = uniform_edges(rng, m)
        if relabelled:
            edges2 = relabel_edges(edges1, ER_N, rng)
        else:
            edges2 = rewire_edges(edges1, rng)
        weight_seeds = tuple(int(s) for s in rng.integers(0, 2**31, size=ER_PCN_SEEDS))
        make = self.pc.graphs.SimpleGraph.from_edges
        return {"index": index, "relabelled": relabelled,
                "edges": (edges1, edges2),
                "g1": make(ER_N, edges1), "g2": make(ER_N, edges2),
                "weight_seeds": weight_seeds}

    def operation(self, state, inp):
        pc = self.pc
        cx, rf, nw = pc.complexes, pc.refine, pc.network
        g1, g2 = inp["g1"], inp["g2"]
        verdicts, counts = {}, {}
        w1, w2, _ = rf.wl1_refine_pair(g1, g2)
        verdicts["wl1"] = rf.distinguishes(w1, w2)
        lifts = (
            ("swl", lambda g: cx.lift_clique_complex(g, ER_CLIQUE_DIM)),
            ("cwl", lambda g: cx.lift_ring_complex(g, ER_RING)),
            ("pwl", lambda g: cx.lift_path_complex(g, ER_PATH_DIM)),
        )
        for method, lift in lifts:
            a, b = lift(g1), lift(g2)
            for c in (a, b):
                c.boundary_csr()
                c.upper_adjacency()
            h1, h2, _ = rf.refine_pair(a, b)
            verdicts[method] = rf.distinguishes(h1, h2)
            counts[method] = (a.counts(), b.counts())
        fa = nw.init_features(a, HIDDEN)
        fb = nw.init_features(b, HIDDEN)
        distances = []
        for s in inp["weight_seeds"]:
            params = nw.NetworkParams.create(
                seed=s, layers=LAYERS, max_dim=ER_PATH_DIM,
                hidden_dim=HIDDEN, embed_dim=EMBED,
            )
            distances.append(
                (s, nw.embedding_distance(nw.forward(a, fa, params),
                                          nw.forward(b, fb, params)))
            )
        return {"verdicts": verdicts, "counts": counts, "distances": distances}

    def check(self, state, records) -> list:
        from checks import (
            check_er_pair, check_member_counts, clique_counts, nx_graph,
            ring_counts, simple_path_counts,
        )

        out = []
        for rec in records:
            msgs = []
            if rec.error is None:
                inp, res = rec.inputs, rec.result
                label = f"pair {inp['index']}"
                for side, edges in enumerate(inp["edges"]):
                    ng = nx_graph(ER_N, edges)
                    adjacency = [list(ng[v]) for v in range(ER_N)]
                    want = {
                        "pwl": simple_path_counts(ER_N, adjacency, ER_PATH_DIM),
                        "swl": clique_counts(ng, ER_CLIQUE_DIM),
                        "cwl": ring_counts(ng, ER_RING),
                    }
                    for method, expected in want.items():
                        msgs += check_member_counts(
                            f"{label} side {side} {method}",
                            res["counts"][method][side], expected,
                        )
                msgs += check_er_pair(label, inp["relabelled"], res["verdicts"],
                                      res["distances"], EPSILON)
            out.append(msgs)
        return out


WORKLOADS = {w.name: w for w in (SrgPcn, SrgPwl, ErPairs)}
