"""Color refinement: the engine, its invariants, and expressivity ordering."""

import hashlib
import itertools
import tracemalloc
import warnings

import networkx as nx
import numpy as np
import pytest

from pathcomplex import network, refine
from pathcomplex.complexes import (
    HigherOrderComplex,
    SerializationError,
    cyclic_families,
    lift_clique_complex,
    lift_path_complex,
    lift_ring_complex,
)
from pathcomplex.graphs import (
    SimpleGraph,
    apply_permutation,
    complete_graph,
    cycle_graph,
    disjoint_union,
    random_graph,
    random_permutation,
)
from pathcomplex.refine import (
    _JointRefinement,
    _codes_fit,
    _key_dtype,
    _pair_values,
    _rank_rows,
    _record,
    distinguishes,
    power_order_check,
    refine_pair,
    refinement_trace,
    stable_colors,
    stable_fingerprint,
    wl1_refine_pair,
)

C6 = cycle_graph(6)
TWO_K3 = disjoint_union(complete_graph(3), complete_graph(3))


def reference_trace(x, y, rounds, rule):
    """Colors of rounds 0..rounds from signature tuples relabelled by a dict.

    The pure-Python round the engine's dense ranks replace: boundary,
    co-boundary and adjacency pairs are derived from ``boundary_of`` alone.
    """
    boundary = [
        [off + int(b) for b in c.boundary_of(g)]
        for off, c in ((0, x), (x.total, y))
        for g in range(c.total)
    ]
    coboundary = [[] for _ in boundary]
    for d, row in enumerate(boundary):
        for b in row:
            coboundary[b].append(d)
    upper = [[(t, d) for d in coboundary[s] for t in boundary[d] if t != s]
             for s in range(len(boundary))]
    lower = [[(t, b) for b in boundary[s] for t in coboundary[b] if t != s]
             for s in range(len(boundary))]
    colors = [0] * len(boundary)
    out = [colors]
    for _ in range(rounds):
        def signature(i):
            sig = (
                colors[i],
                tuple(sorted(colors[b] for b in boundary[i])),
                tuple(sorted((colors[t], colors[d]) for t, d in upper[i])),
            )
            if rule == "full":
                sig += (
                    tuple(sorted(colors[d] for d in coboundary[i])),
                    tuple(sorted((colors[t], colors[b]) for t, b in lower[i])),
                )
            return sig

        table = {}
        colors = [table.setdefault(signature(i), len(table))
                  for i in range(len(boundary))]
        out.append(colors)
    return out


def same_partition(a, b):
    """True iff the color arrays ``a`` and ``b`` agree up to renaming."""
    pairs = set(zip(map(int, a), map(int, b)))
    return len(pairs) == len(set(map(int, a))) == len(set(map(int, b)))


def multiset(values):
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return tuple(sorted(out.items()))


class ReferenceRefinement(_JointRefinement):
    """The engine with the pair ranking that pair codes replaced.

    Every round ranks each witnessed relation's (color, witness color)
    entries among their distinct codes with ``np.unique`` and records that
    table in the digest.
    """

    def step(self):
        colors, flat = self.colors, self.flat
        flat[self.own_pos] = colors
        for parts in self.relations:  # one per complex
            values = [colors[e.lo:e.hi][e.ids] for e in parts]
            width = self.k
            if parts[0].witness is not None:
                codes = np.concatenate([v * self.k + colors[e.lo:e.hi][e.witness]
                                        for v, e in zip(values, parts)])
                pairs, ranks = np.unique(codes, return_inverse=True)
                width = pairs.size
                _record(self.digest, pairs)
                values = np.split(ranks, np.cumsum([v.size for v in values[:-1]]))
            for e, v in zip(parts, values):
                base = np.repeat(np.arange(e.hi - e.lo), e.lens) * width
                flat[e.positions] = np.sort(base + v) - base
        new_colors = np.empty(self.total, dtype=np.int64)
        k = 0
        for members, lo, hi, width in self.groups:
            rows = flat[lo:hi].view(np.dtype((np.void, 8 * width)))
            distinct, inverse = np.unique(rows, return_inverse=True)
            new_colors[members] = k + inverse
            k += distinct.size
            _record(self.digest, distinct)
        self.colors, self.k = new_colors, k
        self.rounds += 1
        return k


def same_partition_arrays(a, b):
    """:func:`same_partition` for large integer arrays."""
    joint = np.unique(a * (int(b.max(initial=0)) + 1) + b).size
    return joint == np.unique(a).size == np.unique(b).size


def lockstep(complexes, rule):
    """The engine and the reference refining ``complexes`` jointly, side by
    side, until the engine's coloring is stable; returns both engines and
    their colors of every round."""
    engines = (_JointRefinement(complexes, rule),
               ReferenceRefinement(complexes, rule))
    traces = tuple([engine.colors] for engine in engines)
    while True:
        k = engines[0].k
        for engine, trace in zip(engines, traces):
            engine.step()
            trace.append(engine.colors)
        if engines[0].k == k:
            return engines, traces


def pair_outcome(engine, trace, i, j):
    """Rounds, verdict and sorted histogram counts of complexes ``i`` and
    ``j`` of a joint run, whose coloring restricted to the two is the pair's
    own: the rounds are those until that restriction stops splitting."""
    off = engine.offsets
    members = np.r_[off[i]:off[i + 1], off[j]:off[j + 1]]
    sizes = [np.count_nonzero(np.bincount(colors[members])) for colors in trace]
    rounds = next(t for t in range(1, len(sizes)) if sizes[t] == sizes[t - 1])
    hx, hy = engine.histogram(i), engine.histogram(j)
    return (rounds, distinguishes(hx, hy),
            sorted(hx.counts.values()), sorted(hy.counts.values()))


def assert_matches_reference(complexes, rule):
    """Pair codes against the ``np.unique`` pair ranking: equal partitions
    in every round up to renaming, and equal rounds, verdicts and sorted
    histogram counts for every pair of ``complexes``."""
    (new, ref), (got, want) = lockstep(complexes, rule)
    assert new.rounds == ref.rounds and new.k == ref.k
    for t, (g, w) in enumerate(zip(got, want)):
        assert same_partition_arrays(g, w), (rule, t)
    for i, j in itertools.combinations(range(len(complexes)), 2):
        assert pair_outcome(new, got, i, j) == pair_outcome(ref, want, i, j)


RANDOM_LIFTS = (
    lambda g: lift_path_complex(g, 3),
    lambda g: lift_path_complex(g, 3, boundary_mode="truncation"),
    lambda g: lift_clique_complex(g, 3),
    lambda g: lift_ring_complex(g, 5),
)


def random_pairs(seed, trials):
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n = int(rng.integers(2, 10))
        g = random_graph(n, float(rng.uniform(0.3, 0.8)), rng)
        if trial % 3 == 0:
            h = apply_permutation(g, random_permutation(n, rng))
        else:
            h = random_graph(n, float(rng.uniform(0.3, 0.8)), rng)
        yield g, h


class TestPairCodeOracle:
    """Each round's pair codes against the ``np.unique`` ranking they
    replaced, kept as :class:`ReferenceRefinement`."""

    def test_srg_families(self, srg_specs):
        # a family refined jointly is every one of its pairs refined at once
        from pathcomplex.bench import load_family

        for name, spec in srg_specs.items():
            lifted = [lift_path_complex(g, 3) for g in load_family(spec)]
            if len(lifted) < 2:
                continue
            assert_matches_reference(lifted, "reduced")
            if name in ("SR(16,6,2,2)", "SR(26,10,3,4)"):
                assert_matches_reference(lifted, "full")

    def test_random_pairs_of_every_kind(self):
        for g, h in random_pairs(43, 18):
            for lift in RANDOM_LIFTS:
                for rule in ("reduced", "full"):
                    assert_matches_reference([lift(g), lift(h)], rule)

    def test_fallback_is_the_reference(self, monkeypatch):
        # past the key bound the engine ranks pairs as the reference does,
        # colors and digest alike
        monkeypatch.setattr(refine, "_KEY_BOUND", 0)
        for g, h in random_pairs(47, 6):
            for lift in RANDOM_LIFTS:
                for rule in ("reduced", "full"):
                    pair = [lift(g), lift(h)]
                    new, ref = _JointRefinement(pair, rule), ReferenceRefinement(pair, rule)
                    for _ in range(4):
                        new.step()
                        ref.step()
                        assert np.array_equal(new.colors, ref.colors)
                    assert new.digest.digest() == ref.digest.digest()


class FullRebuildRefinement(_JointRefinement):
    """The engine's round without its two savings: every round, the one
    from one color too, sorts every relation's entries as int64 keys, takes
    the values back with ``%=``, and ranks every row."""

    def step(self):
        colors, flat, k = self.colors, self.flat, self.k
        flat[self.own_pos] = colors
        for parts in self.relations:
            width, ranked = k, None
            if parts[0].witness is not None:
                width = k * k
                if not _codes_fit(k, self.total):
                    width, ranked = self._rank_pairs(parts)
            for i, e in enumerate(parts):
                key = np.repeat(np.arange(e.lens.size, dtype=np.int64) * width, e.lens)
                if ranked is not None:
                    key += ranked[i]
                else:
                    own = colors[e.lo:e.hi]
                    if e.witness is not None:  # the pair code
                        key += own[e.witness]
                        own = own * k
                    key += own[e.ids]
                key.sort()
                key %= width
                flat[e.positions] = key
        new_colors = np.empty(self.total, dtype=np.int64)
        k = 0
        for members, lo, hi, width in self.groups:
            distinct, inverse = _rank_rows(flat[lo:hi], width)
            new_colors[members] = k + inverse
            k += distinct.size
            _record(self.digest, distinct)
        self.colors, self.k = new_colors, k
        self.rounds += 1
        return k


def assert_rounds_like_full_rebuild(complexes, rule, rounds=6):
    """The engine and :class:`FullRebuildRefinement` side by side: equal
    colors and digests after every round, past stability too.  The engine
    rebuilds no entry in a round from at most one color while the pair
    codes fit the key bound, and every entry in any other round."""
    new = _JointRefinement(complexes, rule)
    ref = FullRebuildRefinement(complexes, rule)
    entries = sum(e.ids.size for parts in new.relations for e in parts)
    for t in range(rounds):
        skips = new.k <= 1 and _codes_fit(new.k, new.members)
        new.step()
        ref.step()
        assert new.k == ref.k, (rule, t)
        assert np.array_equal(new.colors, ref.colors), (rule, t)
        assert new.digest.digest() == ref.digest.digest(), (rule, t)
        assert type(new.rebuilt[t]) is int, (rule, t)
        assert new.rebuilt[t] == (0 if skips else entries), (rule, t)
    return new


class TestFullRebuildOracle:
    """Rounds with int32 keys and no entry work from one color against
    :class:`FullRebuildRefinement`."""

    def test_srg_families(self, srg_specs):
        from pathcomplex.bench import load_family

        for name, spec in srg_specs.items():
            lifted = [lift_path_complex(g, 3) for g in load_family(spec)]
            assert_rounds_like_full_rebuild(lifted, "reduced")
            if name in ("SR(16,6,2,2)", "SR(26,10,3,4)"):
                assert_rounds_like_full_rebuild(lifted, "full")

    def test_random_pairs_of_every_kind(self):
        for g, h in random_pairs(79, 12):
            for lift in RANDOM_LIFTS:
                for rule in ("reduced", "full"):
                    assert_rounds_like_full_rebuild([lift(g), lift(h)], rule)

    def test_empty_edgeless_and_complete_graphs(self):
        empty, edgeless = SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(5, [])
        for pair in ((empty, empty), (empty, complete_graph(4)), (edgeless, edgeless),
                     (complete_graph(6), complete_graph(6))):
            for rule in ("reduced", "full"):
                engine = assert_rounds_like_full_rebuild(
                    [lift_path_complex(g, 3) for g in pair], rule)
                if pair[0] is edgeless:  # one color throughout: no entry work
                    assert engine.k == 1 and engine.rebuilt == [0] * 6

    def test_single_complex_and_its_fingerprint(self, srg_specs, monkeypatch):
        from pathcomplex.bench import load_family

        lifted = [lift_path_complex(g, 3)
                  for g in load_family(srg_specs["SR(25,12,5,6)"])[:2]]
        rng = np.random.default_rng(83)
        lifted += [lift(random_graph(8, 0.5, rng)) for lift in RANDOM_LIFTS]
        for rule in ("reduced", "full"):
            for c in lifted:
                assert_rounds_like_full_rebuild([c], rule)
            prints = [stable_fingerprint(c, rule) for c in lifted]
            with monkeypatch.context() as m:
                m.setattr(refine, "_JointRefinement", FullRebuildRefinement)
                assert prints == [stable_fingerprint(c, rule) for c in lifted]

    def test_ranked_pairs_rebuild_every_entry(self):
        # past the key bound every round records every entry's pair table,
        # so no round skips entry work
        for g, h in random_pairs(89, 4):
            for lift in RANDOM_LIFTS:
                for rule in ("reduced", "full"):
                    with pytest.MonkeyPatch.context() as m:
                        m.setattr(refine, "_KEY_BOUND", 0)
                        engine = assert_rounds_like_full_rebuild([lift(g), lift(h)], rule)
                    entries = sum(e.ids.size for parts in engine.relations for e in parts)
                    assert engine.rebuilt == [entries] * 6


class TestKeyDtype:
    """Sort keys are int32 while a complex's ``members * width`` stays below
    ``_INT32_KEYS``."""

    def test_limit_is_exclusive(self):
        assert refine._INT32_KEYS == 2**31
        assert _key_dtype(1, 2**31 - 1) == np.int32
        assert _key_dtype(2**31 - 1, 1) == np.int32
        assert _key_dtype(1, 2**31) == np.int64
        assert _key_dtype(2**16, 2**15) == np.int64

    def test_int64_keys_give_the_same_rounds(self, srg_specs, monkeypatch):
        from pathcomplex.bench import load_family

        monkeypatch.setattr(refine, "_INT32_KEYS", 0)
        assert _key_dtype(1, 1) == np.int64
        pair = [lift_path_complex(g, 3)
                for g in load_family(srg_specs["SR(16,6,2,2)"])[:2]]
        for rule in ("reduced", "full"):
            assert_rounds_like_full_rebuild(pair, rule)
        for g, h in random_pairs(97, 4):
            for lift in RANDOM_LIFTS:
                assert_rounds_like_full_rebuild([lift(g), lift(h)], "reduced")


class TestRankRows:
    """``_rank_rows`` against the ``np.unique`` of the rows' void view, which
    it replaces: the same distinct rows in the same byte order, the same
    ranks.  ``hashed`` puts the hash cut at one row, so every group is hashed."""

    @pytest.fixture(params=["hashed", "default"])
    def cut(self, request, monkeypatch):
        if request.param == "hashed":
            monkeypatch.setattr(refine, "_HASHED_ROWS", 1)

    @staticmethod
    def assert_ranks_like_unique(rows):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        width = rows.shape[1]
        distinct, ranks = _rank_rows(rows.ravel(), width)
        want, want_ranks = np.unique(
            rows.ravel().view(np.dtype((np.void, 8 * width))), return_inverse=True)
        assert distinct.dtype == want.dtype
        assert distinct.tobytes() == want.tobytes()
        assert np.array_equal(ranks, want_ranks)
        return ranks

    @staticmethod
    def drawn(rows, width, distinct, seed=67):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 2**40, (distinct, width))
        return table[rng.integers(0, distinct, rows)]

    def test_high_byte_orders_first(self, cut):
        # little-endian bytes put 256 (00 01 ...) before 1 (01 00 ...)
        ranks = self.assert_ranks_like_unique([[1], [256], [1]])
        assert ranks.tolist() == [1, 0, 1]
        self.assert_ranks_like_unique([[3, 1], [3, 256], [2, 256]])

    def test_all_equal_rows(self, cut):
        ranks = self.assert_ranks_like_unique(np.full((40, 3), 7))
        assert not ranks.any()

    def test_all_distinct_rows(self, cut):
        rows = np.random.default_rng(71).permutation(120).reshape(40, 3)
        ranks = self.assert_ranks_like_unique(rows)
        assert np.unique(ranks).size == 40

    def test_single_row(self, cut):
        self.assert_ranks_like_unique([[5, 0, 2]])

    def test_width_one(self, cut):
        self.assert_ranks_like_unique(self.drawn(300, 1, 20))

    def test_wide_group(self, cut):
        self.assert_ranks_like_unique(self.drawn(200, 300, 9))
        # wider than the multiplier table: ranked by the void sort alone
        self.assert_ranks_like_unique(self.drawn(3, refine._MULTIPLIERS.size + 1, 2))

    def test_groups_past_the_default_cut(self):
        for distinct in (1, 37, 3000):
            self.assert_ranks_like_unique(self.drawn(3000, 6, distinct))

    def test_colliding_hashes_fall_back(self, cut, monkeypatch):
        monkeypatch.setattr(refine, "_MULTIPLIERS", np.zeros(64, dtype=np.uint64))
        self.assert_ranks_like_unique(self.drawn(2000, 4, 30))
        self.assert_ranks_like_unique(np.full((2000, 4), 3))

    @pytest.mark.parametrize("multipliers", ["odd", "colliding"])
    def test_engine_is_the_reference(self, monkeypatch, multipliers):
        # every group hashed, with pairs ranked as the reference ranks them:
        # colors and digest equal the reference's round by round, also when
        # every hash collides and every group falls back to the void sort
        monkeypatch.setattr(refine, "_HASHED_ROWS", 1)
        monkeypatch.setattr(refine, "_KEY_BOUND", 0)
        if multipliers == "colliding":
            monkeypatch.setattr(refine, "_MULTIPLIERS", np.zeros(4096, dtype=np.uint64))
        for g, h in random_pairs(73, 6):
            for lift in RANDOM_LIFTS:
                for rule in ("reduced", "full"):
                    pair = [lift(g), lift(h)]
                    new, ref = _JointRefinement(pair, rule), ReferenceRefinement(pair, rule)
                    for _ in range(4):
                        new.step()
                        ref.step()
                        assert np.array_equal(new.colors, ref.colors)
                        assert new.digest.digest() == ref.digest.digest()


class TestPairValues:
    """``_codes_fit`` bounds the pair codes; past it ``_pair_values`` ranks
    them."""

    @staticmethod
    def entries(k, size=500, seed=59):
        rng = np.random.default_rng(seed)
        return rng.integers(0, k, size), rng.integers(0, k, size)

    def test_ranks_give_the_codes_partition(self):
        for k in (1, 3, 40):
            colors, witness_colors = self.entries(k)
            codes = colors * k + witness_colors
            ranks, width, pairs = _pair_values(colors, witness_colors, k)
            assert width == pairs.size
            assert np.array_equal(pairs[ranks], codes)
            assert same_partition_arrays(ranks, codes)

    def test_bound_is_exclusive(self):
        assert _codes_fit(1, 2**62 - 1)
        assert not _codes_fit(1, 2**62)
        assert _codes_fit(2, 2**60 - 1)
        assert not _codes_fit(2, 2**60)


class TestRefinePair:
    def test_identical_inputs_stable_quickly(self):
        x = lift_path_complex(complete_graph(3), 2)
        y = lift_path_complex(complete_graph(3), 2)
        ha, hb, rounds = refine_pair(x, y)
        assert ha == hb
        assert rounds <= 2
        assert ha.total == x.total

    def test_hexagon_vs_two_triangles_split_by_boundary_size(self):
        a = lift_path_complex(C6, 2)
        b = lift_path_complex(TWO_K3, 2)
        ha, hb, _ = refine_pair(a, b)
        assert distinguishes(ha, hb)
        # the split already happens in round 1: triangle 2-paths have three
        # boundaries, hexagon 2-paths two
        trace = refinement_trace(a, b, rounds=1)
        colors = trace[1]
        tri = colors[a.total + b.dim_offsets[2]]
        hexa = colors[a.dim_offsets[2]]
        assert tri != hexa

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="kind"):
            refine_pair(
                lift_path_complex(C6, 2), lift_clique_complex(C6, 2)
            )

    @pytest.mark.parametrize("run", [
        refine_pair, lambda x, y: refinement_trace(x, y, rounds=1),
    ])
    def test_kind_mismatch_message(self, run):
        with pytest.raises(ValueError) as info:
            run(lift_path_complex(C6, 2), lift_clique_complex(C6, 2))
        assert str(info.value) == "complex kinds differ: 'path' vs 'simplex'"

    def test_histogram_totals(self):
        a = lift_path_complex(C6, 2)
        b = lift_path_complex(TWO_K3, 2)
        ha, hb, _ = refine_pair(a, b)
        assert ha.total == a.total
        assert hb.total == b.total

    def test_max_rounds_cap(self):
        a = lift_path_complex(cycle_graph(8), 2)
        b = lift_path_complex(cycle_graph(8), 2)
        _, _, rounds = refine_pair(a, b, max_rounds=1)
        assert rounds == 1

    def test_negative_max_rounds(self):
        a, b = lift_path_complex(C6, 2), lift_path_complex(TWO_K3, 2)
        with pytest.raises(ValueError, match="max_rounds must be non-negative, got -1"):
            refine_pair(a, b, max_rounds=-1)

    def test_negative_trace_rounds(self):
        a, b = lift_path_complex(C6, 2), lift_path_complex(TWO_K3, 2)
        with pytest.raises(ValueError, match="rounds must be non-negative, got -2"):
            refinement_trace(a, b, -2)
        assert len(refinement_trace(a, b, 0)) == 1

    NOT_INTEGERS = [1.5, 2.0, np.float64(1.0), True, False, np.bool_(True), "2"]

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("rounds", NOT_INTEGERS, ids=repr)
    def test_non_integer_max_rounds(self, rounds, warm):
        a, b = lift_path_complex(C6, 2), lift_path_complex(TWO_K3, 2)
        if warm:
            stable_colors(a)
            stable_colors(b)
        for rule in ("reduced", "full"):
            with pytest.raises(TypeError, match="^max_rounds must be an integer, got "):
                refine_pair(a, b, rule, max_rounds=rounds)

    @pytest.mark.parametrize("rounds", NOT_INTEGERS + [None], ids=repr)
    def test_non_integer_trace_rounds(self, rounds):
        a, b = lift_path_complex(C6, 2), lift_path_complex(TWO_K3, 2)
        with pytest.raises(TypeError, match="^rounds must be an integer, got "):
            refinement_trace(a, b, rounds)

    def test_numpy_integer_rounds(self):
        a, b = lift_path_complex(C6, 2), lift_path_complex(TWO_K3, 2)
        assert refine_pair(a, b, max_rounds=np.int64(1))[2] == 1
        assert len(refinement_trace(a, b, np.int32(2))) == 3

    def test_determinism(self):
        a = lift_path_complex(C6, 3)
        b = lift_path_complex(TWO_K3, 3)
        first = refine_pair(a, b)
        second = refine_pair(a, b)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]


class TestInvariants:
    def test_monotone_refinement(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = lift_path_complex(random_graph(7, 0.5, rng), 3)
            b = lift_path_complex(random_graph(7, 0.5, rng), 3)
            trace = refinement_trace(a, b, rounds=6)
            counts = [len(np.unique(t)) for t in trace]
            assert counts == sorted(counts)
            # refinement: equal new colors imply equal old colors
            for old, new in zip(trace, trace[1:]):
                seen = {}
                for o, nw in zip(old, new):
                    assert seen.setdefault(nw, o) == o

    def test_isomorphism_soundness_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(int(rng.integers(2, 10)), float(rng.uniform(0.2, 0.8)), rng)
            pi = random_permutation(g.n, rng)
            h = apply_permutation(g, pi)
            for lift in (
                lambda x: lift_path_complex(x, 3),
                lambda x: lift_clique_complex(x, 3),
                lambda x: lift_ring_complex(x, 5),
            ):
                for rule in ("reduced", "full"):
                    ha, hb, _ = refine_pair(lift(g), lift(h), rule=rule)
                    assert ha == hb

    def test_trace_matches_dictionary_reference(self):
        rng = np.random.default_rng(29)
        lifts = (
            lambda g: lift_path_complex(g, 3),
            lambda g: lift_clique_complex(g, 3),
            lambda g: lift_ring_complex(g, 5),
        )
        for trial in range(24):
            n = int(rng.integers(3, 10))
            g = random_graph(n, float(rng.uniform(0.3, 0.8)), rng)
            if trial % 3 == 0:
                h = apply_permutation(g, random_permutation(n, rng))
            else:
                h = random_graph(n, float(rng.uniform(0.3, 0.8)), rng)
            for lift in lifts:
                a, b = lift(g), lift(h)
                for rule in ("reduced", "full"):
                    # past the stable round too: a wrong round can stall early
                    rounds = refine_pair(a, b, rule=rule)[2] + 4
                    got = refinement_trace(a, b, rounds, rule=rule)
                    want = reference_trace(a, b, rounds, rule)
                    for t, (cg, cw) in enumerate(zip(got, want)):
                        assert same_partition(cg, cw), (trial, rule, t)

    def test_boundary_size_proposition_after_round_one(self):
        rng = np.random.default_rng(11)
        a = lift_path_complex(random_graph(8, 0.5, rng), 3)
        b = lift_path_complex(random_graph(8, 0.6, rng), 3)
        colors = refinement_trace(a, b, rounds=1)[1]
        sizes = [*np.diff(a.boundary_csr()[0]), *np.diff(b.boundary_csr()[0])]
        by_color = {}
        for c, s in zip(colors, sizes):
            by_color.setdefault(c, set()).add(s)
        assert all(len(s) == 1 for s in by_color.values())

    def test_reduced_equals_full_decision(self):
        rng = np.random.default_rng(17)
        pairs = [(C6, TWO_K3), (complete_graph(3), complete_graph(3))]
        for _ in range(10):
            pairs.append(
                (random_graph(7, 0.5, rng), random_graph(7, 0.5, rng))
            )
        for g1, g2 in pairs:
            a, b = lift_path_complex(g1, 3), lift_path_complex(g2, 3)
            red = distinguishes(*refine_pair(a, b, rule="reduced")[:2])
            full = distinguishes(*refine_pair(a, b, rule="full")[:2])
            assert red == full

    def test_reduced_and_full_reach_one_stable_partition(self):
        # every member of dimension >= 1 here has at least two faces, so the
        # reduced rule's stable partition is the full rule's, not only its
        # verdicts
        rng = np.random.default_rng(31)
        for _ in range(60):
            g = random_graph(int(rng.integers(3, 11)), float(rng.uniform(0.3, 0.8)), rng)
            for lift in RANDOM_LIFTS:
                c = lift(g)
                assert (np.diff(c.boundary_csr()[0])[c.dim_offsets[1]:] >= 2).all()
                colors = []
                for rule in ("reduced", "full"):
                    engine = _JointRefinement([c], rule)
                    engine.run(None)
                    colors.append(engine.colors)
                assert same_partition_arrays(*colors)

    def test_family_color_propagation(self):
        # matching top-family color multisets at the offset round force the
        # lower families to match at their offsets, for every start round
        pairs = [
            (FIG3B := SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
             cycle_graph(4)),
            (cycle_graph(5), cycle_graph(5)),
        ]
        for g1, g2 in pairs:
            x = lift_path_complex(g1, 4)
            y = lift_path_complex(g2, 4)
            rx = lift_ring_complex(g1, 5)
            ry = lift_ring_complex(g2, 5)
            fams_x = [cyclic_families(rx.member(g)) for g in rx.dim_range(2)]
            fams_y = [cyclic_families(ry.member(g)) for g in ry.dim_range(2)]
            if not fams_x or not fams_y:
                continue
            top = fams_x[0].top_dim
            trace = refinement_trace(x, y, rounds=top + 4)
            for fx in fams_x:
                for fy in fams_y:
                    if fx.top_dim != fy.top_dim:
                        continue
                    n = fx.top_dim
                    for t in range(len(trace) - n):
                        cx = multiset(
                            trace[t + n][x.member_id(n, s)] for s in fx.families[n]
                        )
                        cy = multiset(
                            trace[t + n][x.total + y.member_id(n, s)]
                            for s in fy.families[n]
                        )
                        if cx != cy:
                            continue
                        for k in range(n + 1):
                            ck_x = multiset(
                                trace[t + k][x.member_id(k, s)]
                                for s in fx.families[k]
                            )
                            ck_y = multiset(
                                trace[t + k][x.total + y.member_id(k, s)]
                                for s in fy.families[k]
                            )
                            assert ck_x == ck_y


class TestWl1:
    def test_identical(self):
        h1, h2, _ = wl1_refine_pair(complete_graph(3), complete_graph(3))
        assert not distinguishes(h1, h2)

    def test_classic_failure(self):
        h1, h2, _ = wl1_refine_pair(C6, TWO_K3)
        assert not distinguishes(h1, h2)

    def test_different_degree_sequences(self):
        h1, h2, _ = wl1_refine_pair(cycle_graph(4), complete_graph(4))
        assert distinguishes(h1, h2)

    def test_matches_networkx_weisfeiler_lehman(self, srg_specs):
        from pathcomplex.bench import load_family

        pairs = []
        for spec in srg_specs.values():
            pairs.extend(itertools.combinations(load_family(spec), 2))
        rng = np.random.default_rng(2024)
        for trial in range(240):
            n = int(rng.integers(1, 12))
            g = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
            if trial % 3 == 0:
                h = apply_permutation(g, random_permutation(n, rng))
            else:
                h = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
            pairs.append((g, h))

        def wl_hash(g, iterations):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            return nx.weisfeiler_lehman_graph_hash(h, iterations=iterations)

        with warnings.catch_warnings():
            # networkx warns that its unlabelled hashes changed in v3.5
            warnings.simplefilter("ignore", UserWarning)
            for g1, g2 in pairs:
                iterations = max(g1.n, g2.n)
                expected = wl_hash(g1, iterations) != wl_hash(g2, iterations)
                assert distinguishes(*wl1_refine_pair(g1, g2)[:2]) == expected


class TestFingerprint:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            g = random_graph(8, 0.5, rng)
            h = apply_permutation(g, random_permutation(8, rng))
            assert stable_fingerprint(lift_path_complex(g, 3)) == stable_fingerprint(
                lift_path_complex(h, 3)
            )

    def test_separates_non_isomorphic(self):
        assert stable_fingerprint(lift_path_complex(C6, 2)) != stable_fingerprint(
            lift_path_complex(TWO_K3, 2)
        )

    def test_exact_against_refine_pair(self, srg_specs):
        from pathcomplex.bench import load_family

        def check(a, b, rule, prints):
            separated = distinguishes(*refine_pair(a, b, rule=rule)[:2])
            assert (prints[id(a)] != prints[id(b)]) == separated
            return separated

        outcomes = set()
        for name in ("SR(16,6,2,2)", "SR(25,12,5,6)", "SR(26,10,3,4)",
                     "SR(28,12,6,4)"):
            graphs = load_family(srg_specs[name])
            for dim in (1, 2, 3):
                lifted = [lift_path_complex(g, dim) for g in graphs]
                prints = {id(c): stable_fingerprint(c) for c in lifted}
                for a, b in itertools.combinations(lifted, 2):
                    outcomes.add(check(a, b, "reduced", prints))
        rng = np.random.default_rng(37)
        for trial in range(60):
            n = int(rng.integers(1, 9))
            g = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
            if trial % 3 == 0:
                h = apply_permutation(g, random_permutation(n, rng))
            else:
                h = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
            for lift, param in ((lift_path_complex, 3), (lift_clique_complex, 3),
                                (lift_ring_complex, 5)):
                pair = (lift(g, param), lift(h, param))
                for rule in ("reduced", "full"):
                    prints = {id(c): stable_fingerprint(c, rule) for c in pair}
                    outcomes.add(check(*pair, rule, prints))
        assert outcomes == {True, False}


class TestIndexesReadInPlace:
    """The engine reads each complex's four cached relations in place."""

    RELATIONS = ("boundary_csr", "upper_adjacency", "coboundary_csr",
                 "lower_adjacency")

    @staticmethod
    def pair(srg_specs):
        from pathcomplex.bench import load_family

        return [lift_path_complex(g, 3)
                for g in load_family(srg_specs["SR(16,6,2,2)"])[:2]]

    def indexes(self, pair):
        return [a for c in pair for name in self.RELATIONS
                for a in getattr(c, name)()]

    def test_indexes_are_read_only_and_kept(self, srg_specs):
        pair = self.pair(srg_specs)
        arrays = self.indexes(pair)
        before = [a.copy() for a in arrays]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = -1
        for rule in ("reduced", "full"):
            refine_pair(*pair, rule=rule)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))

    def test_full_rule_peak_memory_near_the_indexes(self, srg_specs):
        # the engine owns the signature rows and one slot per entry; it
        # copies no relation (numpy reports its buffers to tracemalloc)
        pair = self.pair(srg_specs)
        index_bytes = sum(a.nbytes for a in self.indexes(pair))
        tracemalloc.start()
        try:
            refine_pair(*pair, rule="full")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * index_bytes, peak / index_bytes


class TestGoldenOutputs:
    """Fingerprint digests and per-round joint colors, pinned byte for byte."""

    SHA256 = "683d858b4d5f78a91ab1000f36c00b718dd3262c35ad42a44dc8c65e2ec19d54"

    def test_digests_and_traces_are_pinned(self, srg_specs):
        from pathcomplex.bench import load_family

        out = hashlib.sha256()

        def absorb(a, b):
            for rule in ("reduced", "full"):
                for c in (a, b):
                    out.update(stable_fingerprint(c, rule).encode())
                for colors in refinement_trace(a, b, 4, rule):
                    out.update(colors.tobytes())

        for name in ("SR(16,6,2,2)", "SR(25,12,5,6)", "SR(26,10,3,4)"):
            absorb(*(lift_path_complex(g, 3)
                     for g in load_family(srg_specs[name])[:2]))
        rng = np.random.default_rng(61)
        for _ in range(6):
            n = int(rng.integers(4, 9))
            g, h = (random_graph(n, float(rng.uniform(0.3, 0.8)), rng)
                    for _ in range(2))
            for lift in (lambda x: lift_clique_complex(x, 3),
                         lambda x: lift_ring_complex(x, 5),
                         lambda x: lift_path_complex(x, 3, boundary_mode="truncation")):
                absorb(lift(g), lift(h))
        assert out.hexdigest() == self.SHA256


class TestStableColorCache:
    """``refine_pair`` run to stability under the reduced rule caches each
    side's slice of the joint coloring as that complex's stable colors."""

    LIFTS = (
        lambda g: lift_path_complex(g, 3),
        lambda g: lift_path_complex(g, 3, boundary_mode="truncation"),
        lambda g: lift_path_complex(g, 1),
        lambda g: lift_clique_complex(g, 3),
        lambda g: lift_ring_complex(g, 5),
    )

    @staticmethod
    def assert_fills_own_colors(lift, g, h, own=None):
        """``own`` maps a graph to the colors of a fresh lift of it alone."""
        own = own or (lambda source: stable_colors(lift(source)))
        a, b = lift(g), lift(h)
        refine_pair(a, b)
        for c, source in ((a, g), (b, h)):
            assert c._stable_colors is not None
            assert np.array_equal(c._stable_colors, own(source))

    def test_refine_pair_fill_equals_own_partition(self, srg_specs):
        from pathcomplex.bench import load_family

        rng = np.random.default_rng(53)
        for trial in range(30):
            n = int(rng.integers(1, 10))
            g = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
            if trial % 3 == 0:
                h = apply_permutation(g, random_permutation(n, rng))
            else:
                h = random_graph(int(rng.integers(1, 10)),
                                 float(rng.uniform(0.2, 0.8)), rng)
            for lift in self.LIFTS:
                self.assert_fills_own_colors(lift, g, h)
        self.assert_fills_own_colors(self.LIFTS[0], C6, TWO_K3)
        for name in ("SR(16,6,2,2)", "SR(25,12,5,6)", "SR(26,10,3,4)"):
            graphs = load_family(srg_specs[name])[:3]
            own = {id(g): stable_colors(self.LIFTS[0](g)) for g in graphs}
            for g, h in itertools.combinations(graphs, 2):
                self.assert_fills_own_colors(self.LIFTS[0], g, h,
                                             lambda source: own[id(source)])

    def test_classes_numbered_by_lowest_member(self):
        c = lift_path_complex(random_graph(9, 0.5, np.random.default_rng(5)), 3)
        colors = stable_colors(c)
        _, first = np.unique(colors, return_index=True)
        assert np.array_equal(np.sort(first), first)
        assert colors[0] == 0 and colors.max() + 1 == first.size
        for p in range(c.max_dim + 1):  # no class spans two dimensions
            inside = set(colors[c.dim_range(p)].tolist())
            outside = set(np.delete(colors, c.dim_range(p)).tolist())
            assert not inside & outside

    def test_full_rule_and_cut_short_runs_leave_cache_empty(self):
        a, b = lift_path_complex(C6, 3), lift_path_complex(TWO_K3, 3)
        refine_pair(a, b, rule="full")
        stable_fingerprint(a, "full")
        _, _, rounds = refine_pair(a, b, max_rounds=1)
        assert rounds == 1
        assert a._stable_colors is None and b._stable_colors is None
        _, _, needed = refine_pair(a, b)
        a2, b2 = lift_path_complex(C6, 3), lift_path_complex(TWO_K3, 3)
        refine_pair(a2, b2, max_rounds=needed - 1)
        assert a2._stable_colors is None
        refine_pair(a2, b2, max_rounds=needed)
        assert np.array_equal(a2._stable_colors, stable_colors(a))

    def test_fingerprint_fills_the_cache(self):
        c = lift_path_complex(C6, 3)
        stable_fingerprint(c)
        assert np.array_equal(c._stable_colors, stable_colors(lift_path_complex(C6, 3)))


class TestQuotientOracle:
    """A warm ``refine_pair``, with both stable colorings cached, refines
    the class quotients; its histograms (color ids and counts) and rounds
    equal those of the member-level engine on uncached copies."""

    @staticmethod
    def member_level(x, y, max_rounds=None, rule="reduced"):
        engine = _JointRefinement([x, y], rule)
        rounds = engine.run(max_rounds)
        return engine.histogram(0).counts, engine.histogram(1).counts, rounds

    @staticmethod
    def warm(x, y, max_rounds=None, rule="reduced"):
        ha, hb, rounds = refine_pair(x, y, rule, max_rounds=max_rounds)
        assert x._quotient is not None and y._quotient is not None
        if rule == "full":  # generated from the CSR rows, not the lower triples
            assert x._quotient.lower is not None and y._quotient.lower is not None
            assert x._lower_flat is None and y._lower_flat is None
        return ha.counts, hb.counts, rounds

    @staticmethod
    def cached_bytes(cs):
        return [a.tobytes() for c in cs
                for a in (*c.boundary_csr(), *c.upper_adjacency(), c._stable_colors)]

    def assert_pairs(self, lift, graphs, **kw):
        """Every pair of ``graphs`` warm against the member-level engine."""
        warm = [lift(g) for g in graphs]
        for c in warm:
            stable_colors(c)
        before = self.cached_bytes(warm)
        cold = [lift(g) for g in graphs]
        for i, j in itertools.combinations(range(len(graphs)), 2):
            assert self.warm(warm[i], warm[j], **kw) == \
                self.member_level(cold[i], cold[j], **kw), (i, j)
        assert self.cached_bytes(warm) == before

    @pytest.mark.parametrize("dim", [2, 3])
    def test_srg_families(self, srg_specs, dim):
        from pathcomplex.bench import load_family

        for spec in srg_specs.values():
            self.assert_pairs(lambda g: lift_path_complex(g, dim), load_family(spec))

    def test_random_pairs_of_every_kind(self):
        for g, h in random_pairs(97, 24):
            for lift in RANDOM_LIFTS:
                self.assert_pairs(lift, [g, h])

    def test_every_round_limit(self, srg_specs):
        from pathcomplex.bench import load_family

        cases = [(RANDOM_LIFTS[0], load_family(srg_specs["SR(25,12,5,6)"])[:2])]
        cases += [(lift, pair) for pair in random_pairs(101, 6) for lift in RANDOM_LIFTS]
        for lift, (g, h) in cases:
            needed = self.member_level(lift(g), lift(h))[2]
            for max_rounds in range(needed + 2):
                self.assert_pairs(lift, [g, h], max_rounds=max_rounds)

    def test_key_bound_reads_the_member_total(self, srg_specs, monkeypatch):
        # a bound between the class and the member keys of round 2 on: a
        # stable round's ids follow from its own colors alone, so a bound
        # met only there would show no branch; branching on the class total
        # changes the color ids
        from pathcomplex.bench import load_family

        cases = [(RANDOM_LIFTS[0], load_family(srg_specs["SR(25,12,5,6)"])[:2])]
        cases += [(lift, pair) for pair in random_pairs(103, 6) for lift in RANDOM_LIFTS]
        straddled = 0
        for lift, (g, h) in cases:
            x, y = lift(g), lift(h)
            engine = _JointRefinement([x, y], "reduced")
            k = engine.step()
            engine.run(None)
            classes = refine._quotient(x).total + refine._quotient(y).total
            if classes == engine.total:
                continue
            bound = (classes + engine.total) * k * k // 2
            assert classes * k * k < bound <= engine.total * k * k
            straddled += 1
            with monkeypatch.context() as m:
                m.setattr(refine, "_KEY_BOUND", bound)
                self.assert_pairs(lift, [g, h])
        assert straddled > 1

    @pytest.mark.parametrize("fill", [
        stable_colors,
        stable_fingerprint,
        lambda c: refine_pair(c, c),
        lambda c: network.embed(c, network.NetworkParams.create(0, 2, c.max_dim)),
    ], ids=["stable_colors", "stable_fingerprint", "refine_pair", "embed"])
    def test_every_cache_filler(self, fill):
        for g, h in random_pairs(107, 6):
            for lift in RANDOM_LIFTS:
                x, y = lift(g), lift(h)
                fill(x)
                fill(y)
                assert self.warm(x, y) == self.member_level(lift(g), lift(h))

    def test_one_side_cached_runs_on_members_and_fills_the_other(self):
        for g, h in random_pairs(109, 6):
            for lift in RANDOM_LIFTS:
                x, y = lift(g), lift(h)
                stable_colors(x)
                ha, hb, rounds = refine_pair(x, y)
                assert x._quotient is None and y._quotient is None
                assert (ha.counts, hb.counts, rounds) == \
                    self.member_level(lift(g), lift(h))
                assert np.array_equal(y._stable_colors, stable_colors(lift(h)))

    def test_empty_and_edgeless_lifts(self):
        empty, edgeless = SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(5, [])
        for pair in ((empty, empty), (empty, complete_graph(4)),
                     (edgeless, edgeless), (edgeless, complete_graph(5))):
            for lift in RANDOM_LIFTS:
                self.assert_pairs(lift, list(pair))

    def test_kind_mismatch_message(self):
        x, y = lift_path_complex(C6, 2), lift_clique_complex(C6, 2)
        stable_colors(x)
        stable_colors(y)
        with pytest.raises(ValueError) as info:
            refine_pair(x, y)
        assert str(info.value) == "complex kinds differ: 'path' vs 'simplex'"

    def test_one_complex_on_both_sides(self, srg_specs):
        from pathcomplex.bench import load_family

        graphs = load_family(srg_specs["SR(25,12,5,6)"])[:1] + [C6, TWO_K3]
        for g in graphs:
            x = lift_path_complex(g, 3)
            stable_colors(x)
            assert self.warm(x, x) == self.member_level(
                lift_path_complex(g, 3), lift_path_complex(g, 3))

    # The SR(35, ...) families are left out: a member-level full-rule pair
    # of theirs at path dimension 3 takes seconds and over a gigabyte.
    FULL_RULE_FAMILIES = ("SR(16,6,2,2)", "SR(25,12,5,6)", "SR(26,10,3,4)",
                          "SR(28,12,6,4)")

    @pytest.mark.parametrize("dim", [2, 3])
    def test_full_rule_srg_families(self, srg_specs, dim):
        from pathcomplex.bench import load_family

        for name in self.FULL_RULE_FAMILIES:
            self.assert_pairs(lambda g: lift_path_complex(g, dim),
                              load_family(srg_specs[name]), rule="full")

    def test_full_rule_random_pairs_at_every_round_limit(self, srg_specs):
        from pathcomplex.bench import load_family

        cases = [(RANDOM_LIFTS[0], load_family(srg_specs["SR(26,10,3,4)"])[:2])]
        cases += [(lift, pair) for pair in random_pairs(113, 24) for lift in RANDOM_LIFTS]
        for lift, (g, h) in cases:
            for max_rounds in (None, 0, 1, 2, 3):
                self.assert_pairs(lift, [g, h], max_rounds=max_rounds, rule="full")

    def test_full_rule_after_a_reduced_pair_and_after_embed(self):
        # the full quotient replaces the cached one, and the network's class
        # plan gives the same embeddings whether it was built before that or
        # after
        for g, h in random_pairs(127, 6):
            for lift in RANDOM_LIFTS:
                x, y = lift(g), lift(h)
                refine_pair(x, y)
                params = network.NetworkParams.create(0, 2, x.max_dim)
                before = network.embed(x, params)
                assert self.warm(x, y, rule="full") == \
                    self.member_level(lift(g), lift(h), rule="full")
                assert self.warm(x, y) == self.member_level(lift(g), lift(h))
                assert np.array_equal(network.embed(x, params), before)
                x._class_plan = None
                assert np.array_equal(network.embed(x, params), before)

    @staticmethod
    def one_faced_edge():
        """The path 0-1-2 whose edge (1, 2) has the face 1 only.

        The reduced rule never reads that edge's co-faces or pairs, so its
        stable classes join vertices 0 and 1, whose co-boundaries differ:
        the full rule splits them.
        """
        carriers = [np.arange(3, dtype=np.int64)[:, None],
                    np.array([[0, 1], [1, 2]], dtype=np.int64)]
        indptr = np.array([0, 0, 0, 0, 2, 3], dtype=np.int64)
        return HigherOrderComplex("path", 3, 1, carriers, indptr,
                                  np.array([0, 1, 1], dtype=np.int64))

    def test_full_rule_guard_falls_back_to_members(self, monkeypatch):
        builds = [(self.one_faced_edge, self.one_faced_edge),
                  (self.one_faced_edge, lambda: lift_path_complex(complete_graph(3), 1))]
        for build_x, build_y in builds:
            x, y = build_x(), build_y()
            stable_colors(x)
            stable_colors(y)
            assert stable_colors(x)[0] == stable_colors(x)[1]
            ha, hb, rounds = refine_pair(x, y, "full")
            assert x._quotient is None or x._quotient.lower is None
            want = self.member_level(build_x(), build_y(), rule="full")
            assert (ha.counts, hb.counts, rounds) == want
            # the quotient would be wrong here: the guard is what keeps it off
            with monkeypatch.context() as m:
                m.setattr(refine, "_two_faces", lambda c: True)
                ha, hb, rounds = refine_pair(x, y, "full")
            assert (ha.counts, hb.counts, rounds) != want

    def test_two_faces_holds_for_every_lift(self):
        empty, edgeless = SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(5, [])
        for g, h in list(random_pairs(131, 6)) + [(empty, edgeless)]:
            for c in [lift(g) for lift in RANDOM_LIFTS] + [lift_path_complex(h, 0)]:
                assert refine._two_faces(c)
        assert not refine._two_faces(self.one_faced_edge())

    def test_check_rejects_the_one_faced_edge(self):
        # a checked path holds both end faces of each member, so every
        # complex that passes check() meets _two_faces
        with pytest.raises(SerializationError,
                           match=r"boundary of member 4 lacks its face \(2,\)"):
            self.one_faced_edge().check()


class TestQuotientForm:
    """Each ``_Quotient`` relation is held as the engine reads it: read-only
    (entries per class, ids, witness ids or None), class ``i``'s rows its
    representative's member rows remapped by ``stable_colors``."""

    NAMES = {"reduced": ("boundary", "upper"),
             "full": ("boundary", "upper", "coboundary", "lower")}

    @staticmethod
    def member_rows(c):
        """Every member's rows of the four relations from ``boundary_of``
        alone: pair rows ordered by member ids, as the triples hold them."""
        boundary = [c.boundary_of(g).tolist() for g in range(c.total)]
        coboundary = [[] for _ in boundary]
        for d, row in enumerate(boundary):
            for b in row:
                coboundary[b].append(d)
        upper = [sorted((t, d) for d in coboundary[s] for t in boundary[d] if t != s)
                 for s in range(c.total)]
        lower = [sorted((t, b) for b in boundary[s] for t in coboundary[b] if t != s)
                 for s in range(c.total)]
        return {"boundary": boundary, "upper": upper, "coboundary": coboundary,
                "lower": lower}

    def check(self, c):
        rows, colors = self.member_rows(c), stable_colors(c).tolist()
        q = refine._quotient(c)
        assert q.coboundary is None and q.lower is None
        reduced = q
        for rule, names in self.NAMES.items():
            q = refine._quotient(c, rule)
            assert q is c._quotient and q.upper is reduced.upper
            assert q.sizes.sum() == c.total
            for name in names:
                lens, ids, witness = getattr(q, name)
                assert (witness is None) == name.endswith("boundary")
                for a in (lens, ids) if witness is None else (lens, ids, witness):
                    assert not a.flags.writeable
                assert lens.size == q.total and lens.sum() == ids.size
                member = [rows[name][r] for r in q.rep.tolist()]
                assert lens.tolist() == [len(r) for r in member]
                if witness is None:
                    assert ids.tolist() == [colors[v] for r in member for v in r]
                else:
                    assert list(zip(ids.tolist(), witness.tolist())) == \
                        [(colors[t], colors[d]) for r in member for t, d in r]
        assert c._lower_flat is None

    def test_srg_lifts(self, srg_specs):
        from pathcomplex.bench import load_family

        for name in ("SR(16,6,2,2)", "SR(25,12,5,6)"):
            for g in load_family(srg_specs[name])[:2]:
                self.check(lift_path_complex(g, 2))
        self.check(lift_path_complex(load_family(srg_specs["SR(16,6,2,2)"])[0], 3))

    def test_random_lifts(self):
        empty, edgeless = SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(5, [])
        for g, h in list(random_pairs(139, 6)) + [(empty, edgeless)]:
            for lift in RANDOM_LIFTS:
                self.check(lift(g))
                self.check(lift(h))


def upper_rows_from_triples(c):
    """The quotient upper rows as they were built before lifts stopped
    caching triples: each representative's run of ``upper_adjacency``,
    found by ``searchsorted`` on its sources and remapped by class."""
    colors, rep = stable_colors(c), refine._quotient(c).rep
    src, tau, delta = c.upper_adjacency()
    return refine._class_rows(colors, np.searchsorted(src, rep, "left"),
                              np.searchsorted(src, rep, "right"), tau, delta)


class TestUpperRowsOracle:
    """The quotient's upper rows, generated from the boundary CSR, equal
    the rows read from the member-level upper triples byte for byte."""

    @staticmethod
    def check(c):
        got = refine._quotient(c).upper
        assert c._upper_flat is None  # generated without the triples
        want = upper_rows_from_triples(c)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    def test_srg_lifts(self, srg_specs):
        from pathcomplex.bench import load_family

        for name in ("SR(16,6,2,2)", "SR(25,12,5,6)", "SR(26,10,3,4)",
                     "SR(28,12,6,4)"):
            for g in load_family(srg_specs[name]):
                self.check(lift_path_complex(g, 3))
        # the least symmetric complex of the corpus: 31,253 classes
        self.check(lift_path_complex(load_family(srg_specs["SR(35,18,9,9)"])[2], 3))

    def test_random_lifts(self):
        for g, h in random_pairs(149, 24):
            for lift in RANDOM_LIFTS:
                self.check(lift(g))
                self.check(lift(h))

    def test_empty_and_edgeless_lifts(self):
        for g in (SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(5, [])):
            for lift in RANDOM_LIFTS + (lambda x: lift_path_complex(x, 0),):
                self.check(lift(g))

    def test_one_faced_edge(self):
        self.check(TestQuotientOracle.one_faced_edge())


def lower_rows_from_triples(c):
    """The quotient lower rows read from the member-level triples: each
    representative's run of ``lower_adjacency``, remapped by class."""
    colors, rep = stable_colors(c), refine._quotient(c).rep
    src, tau, delta = c.lower_adjacency()
    return refine._class_rows(colors, np.searchsorted(src, rep, "left"),
                              np.searchsorted(src, rep, "right"), tau, delta)


class TestLowerRowsOracle(TestUpperRowsOracle):
    """The quotient's lower rows, generated from the co-boundary CSR for
    the representatives alone, equal the rows read from the member-level
    lower triples byte for byte, on the inputs of the upper oracle."""

    @staticmethod
    def check(c):
        got = refine._quotient(c, "full").lower
        assert c._lower_flat is None  # generated without the triples
        want = lower_rows_from_triples(c)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    def test_srg_lifts(self, srg_specs):
        # SR(35,18,9,9) is left out: its member-level lower triples at path
        # dimension 3 take 1.2 s and about 730 MB to build
        from pathcomplex.bench import load_family

        for name in ("SR(16,6,2,2)", "SR(25,12,5,6)", "SR(26,10,3,4)",
                     "SR(28,12,6,4)"):
            for g in load_family(srg_specs[name]):
                self.check(lift_path_complex(g, 3))


class TestMemberRunsKeepNoTriples:
    """Cold full-rule runs over members generate their upper and lower
    triples for themselves and leave neither on the complexes."""

    @pytest.mark.parametrize("run", [
        lambda x, y: refine_pair(x, y, "full"),
        lambda x, y: refinement_trace(x, y, 3, "full"),
        lambda x, y: (stable_fingerprint(x, "full"), stable_fingerprint(y, "full")),
    ], ids=["refine_pair", "refinement_trace", "stable_fingerprint"])
    def test_full_rule_runs(self, srg_specs, run):
        from pathcomplex.bench import load_family

        pairs = [(lift(C6), lift(TWO_K3)) for lift in RANDOM_LIFTS]
        pairs.append([lift_path_complex(g, 3)
                      for g in load_family(srg_specs["SR(16,6,2,2)"])[:2]])
        for x, y in pairs:
            run(x, y)
            for c in (x, y):
                assert c._upper_flat is None and c._lower_flat is None


class TestNoCachedUpperTriples:
    """Runs over members build upper triples only for themselves, unless a
    caller cached them through ``upper_adjacency``."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from pathcomplex import complexes

        calls = []
        pair_triples = complexes._pair_triples

        def counted(indptr, indices, sources=None):
            if sources is None:  # a member-level build
                calls.append(1)
            return pair_triples(indptr, indices, sources)

        monkeypatch.setattr(complexes, "_pair_triples", counted)
        monkeypatch.setattr(refine, "_pair_triples", counted)
        return calls

    def test_stable_colors_keeps_no_triples(self, builds):
        for lift in RANDOM_LIFTS:
            c = lift(C6)
            stable_colors(c)
            assert c._upper_flat is None and builds == [1]
            refine._quotient(c, "full")
            assert c._upper_flat is None and builds == [1]
            builds.clear()

    def test_cached_triples_are_not_rebuilt(self, builds):
        for lift in RANDOM_LIFTS:
            refine_pair(lift(C6), lift(TWO_K3))  # uncached: one build a side
            assert builds == [1, 1]
            x, y = lift(C6), lift(TWO_K3)
            cached = [c.upper_adjacency() for c in (x, y)]
            for c in (x, y):  # the full rule's member runs read these too
                c.lower_adjacency()
            builds.clear()
            for rule in ("reduced", "full"):
                refine_pair(x, y, rule)
                refinement_trace(x, y, 2, rule)
                stable_fingerprint(x, rule)
                assert builds == []
            assert all(c._upper_flat is t for c, t in zip((x, y), cached))


class TestDigestOnlyForFingerprints:
    """Only ``stable_fingerprint`` reads a digest, so no other run hashes."""

    @pytest.fixture
    def hashing(self, monkeypatch):
        calls = []
        record, blake2b = refine._record, hashlib.blake2b

        def counted_record(*args):
            calls.append("_record")
            return record(*args)

        def counted_blake2b(*args, **kwargs):
            calls.append("blake2b")
            return blake2b(*args, **kwargs)

        monkeypatch.setattr(refine, "_record", counted_record)
        monkeypatch.setattr(refine.hashlib, "blake2b", counted_blake2b)
        return calls

    @pytest.mark.parametrize("key_bound", [refine._KEY_BOUND, 1],
                             ids=["pair-codes", "ranked-pairs"])
    def test_no_hashing_outside_the_fingerprint(self, srg_specs, hashing,
                                                monkeypatch, key_bound):
        from pathcomplex.bench import load_family

        monkeypatch.setattr(refine, "_KEY_BOUND", key_bound)
        cases = [(RANDOM_LIFTS[0], load_family(srg_specs["SR(16,6,2,2)"])[:2])]
        cases += [(lift, pair) for pair in random_pairs(137, 3) for lift in RANDOM_LIFTS]
        for lift, (g, h) in cases:
            for rule in ("reduced", "full"):
                x, y = lift(g), lift(h)
                refine_pair(x, y, rule)  # cold
                refinement_trace(x, y, 2, rule)
                stable_colors(x)
                stable_colors(y)
                refine_pair(x, y, rule)  # warm
                assert x._quotient is not None
            assert hashing == []
            stable_fingerprint(lift(g))
            assert "blake2b" in hashing and "_record" in hashing
            hashing.clear()


class TestPowerOrder:
    def test_hexagon_witness(self):
        report = power_order_check([(C6, TWO_K3)], pwl_dim=2, clique_dim=2,
                                   max_ring=3)
        r = report.results[0]
        assert not r.wl1
        assert r.swl and r.cwl and r.pwl
        assert not report.violations

    def test_isomorphic_pair_all_negative(self):
        report = power_order_check([(complete_graph(3), complete_graph(3))])
        r = report.results[0]
        assert not (r.wl1 or r.swl or r.cwl or r.pwl)
        assert not report.violations

    def test_random_corpus_no_violations(self):
        rng = np.random.default_rng(23)
        corpus = [
            (random_graph(8, 0.5, rng), random_graph(8, 0.5, rng))
            for _ in range(10)
        ]
        report = power_order_check(corpus, pwl_dim=3, clique_dim=3, max_ring=4)
        assert not report.violations
