"""Random-weight forward pass: determinism, invariance, protocol wiring."""

import tracemalloc

import numpy as np
import pytest

from pathcomplex import network
from pathcomplex.bench import load_family
from pathcomplex.complexes import (
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
    path_graph,
    random_graph,
    random_permutation,
)
from pathcomplex.network import (
    FeatureState,
    NetworkParams,
    embedding_distance,
    forward,
    init_features,
)
from pathcomplex.refine import (
    distinguishes,
    refine_pair,
    stable_colors,
    stable_fingerprint,
)


def reference_forward(c, feats, params):
    """The member-level forward: every layer runs on every member.

    The oracle for :func:`forward`, which runs the same layers on one
    representative per stable color class.
    """

    def elu(x):
        return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))

    def dense(x, wb):
        return x @ wb[0] + wb[1]

    def segment_sum(values, src, n_out):
        out = np.zeros((n_out, values.shape[1]))
        for j in range(values.shape[1]):
            out[:, j] = np.bincount(src, weights=values[:, j], minlength=n_out)
        return out

    d, offs, counts = params.hidden_dim, c.dim_offsets, c.counts()
    indptr, indices = c.boundary_csr()
    up_src, up_tau, up_delta = c.upper_adjacency()
    bnd, upp = {}, {}
    for p in range(c.max_dim + 1):
        lo, hi = offs[p], offs[p + 1]
        if p >= 1:
            src = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
            bnd[p] = (src, indices[indptr[lo]:indptr[hi]] - offs[p - 1])
        i0, i1 = np.searchsorted(up_src, (lo, hi))
        upp[p] = (up_src[i0:i1] - lo, up_tau[i0:i1] - lo,
                  up_delta[i0:i1] - offs[p + 1])
    h = [np.asarray(v, dtype=np.float64) for v in feats.values]
    for t in range(params.layers):
        new_h = []
        for p in range(c.max_dim + 1):
            if counts[p] == 0:
                new_h.append(h[p])
                continue
            blocks = params.layer_weights[t][p]
            agg_b = np.zeros((counts[p], d))
            if p >= 1:
                src, dst = bnd[p]
                agg_b = segment_sum(h[p - 1][dst], src, counts[p])
            m_b = elu(dense(h[p] + agg_b, blocks["boundary"]))
            src, tau, delta = upp[p]
            agg_u = np.zeros((counts[p], d))
            if src.size:
                w, b = blocks["message"]
                msgs = elu((h[p] @ w[:d])[tau] + (h[p + 1] @ w[d:])[delta] + b)
                agg_u = segment_sum(msgs, src, counts[p])
            m_u = elu(dense(h[p] + agg_u, blocks["upper"]))
            new_h.append(elu(dense(np.concatenate([m_b, m_u], axis=1),
                                   blocks["update"])))
        h = new_h
    pooled = np.zeros(d)
    for p in range(c.max_dim + 1):
        if counts[p]:
            pooled = pooled + elu(dense(h[p].sum(axis=0), params.pool_dense[p]))
    return dense(elu(dense(pooled, params.projection[0])), params.projection[1])


def flat_plan(c):
    """Each dimension's class plan in member-level entry order: the
    representatives, the class sizes, the boundary entries as (row, face
    class) and the upper entries as (row, neighbor class, witness class),
    one per witness triple."""
    colors = stable_colors(c)
    _, reps, sizes = np.unique(colors, return_index=True, return_counts=True)
    first = np.searchsorted(reps, c.dim_offsets)
    indptr, indices = c.boundary_csr()
    owner = np.repeat(np.arange(c.total), np.diff(indptr))
    up_src, up_tau, up_delta = c.upper_adjacency()
    plan = []
    for p in range(c.max_dim + 1):
        rep = reps[first[p]:first[p + 1]]
        b, u = np.isin(owner, rep), np.isin(up_src, rep)
        plan.append((rep, sizes[first[p]:first[p + 1]],
                     (np.searchsorted(rep, owner[b]),
                      colors[indices[b]] - first[p - 1]),
                     (np.searchsorted(rep, up_src[u]),
                      colors[up_tau[u]] - first[p],
                      colors[up_delta[u]] - first[p + 1])))
    return plan


def flat_segment_sum(values, src, n_out):
    """One ``bincount`` over the flat (row, column) index."""
    width = values.shape[1]
    flat = src[:, None] * width + np.arange(width)
    out = np.bincount(flat.ravel(), weights=values.ravel(),
                      minlength=n_out * width)
    return out.astype(np.float64, copy=False).reshape(n_out, width)


def flat_propagate(c, plan, h, params):
    """The class-level layers with one message per upper entry and flat
    ``bincount`` segment sums, then the readout: the oracle that
    ``network._propagate`` must match byte for byte."""
    d = params.hidden_dim

    def dense(x, wb):
        return x @ wb[0] + wb[1]

    for t in range(params.layers):
        new_h = []
        for p, (rep, _, (bsrc, dst), (src, tau, delta)) in enumerate(plan):
            k = rep.size
            if k == 0:
                new_h.append(h[p])
                continue
            blocks = params.layer_weights[t][p]
            agg_b = np.zeros((k, d))
            if p >= 1:
                agg_b = flat_segment_sum(h[p - 1][dst], bsrc, k)
            m_b = where_elu(dense(h[p] + agg_b, blocks["boundary"]))
            agg_u = np.zeros((k, d))
            if src.size:
                w, b = blocks["message"]
                msgs = (h[p] @ w[:d])[tau]
                msgs += (h[p + 1] @ w[d:])[delta]
                msgs += b
                agg_u = flat_segment_sum(where_elu(msgs), src, k)
            m_u = where_elu(dense(h[p] + agg_u, blocks["upper"]))
            new_h.append(where_elu(dense(np.concatenate([m_b, m_u], axis=1),
                                         blocks["update"])))
        h = new_h
    pooled = [sizes.astype(np.float64) @ block
              for (_, sizes, _, _), block in zip(plan, h)]
    return network._readout(c, pooled, params)


def flat_forward(c, feats, params):
    """:func:`flat_propagate` on the representatives' rows of ``feats``."""
    plan = flat_plan(c)
    h = [np.asarray(v, dtype=np.float64)[rep - lo]
         for v, (rep, _, _, _), lo in zip(feats.values, plan, c.dim_offsets)]
    return flat_propagate(c, plan, h, params)


def flat_embed(c, params):
    """:func:`flat_propagate` on ``init_features`` summed per class by
    ``bincount`` over the representatives' boundary rows."""
    plan = flat_plan(c)
    column = np.ones(plan[0][0].size)
    h = [np.ones((column.size, params.hidden_dim))]
    for rep, _, (src, faces), _ in plan[1:]:
        column = np.bincount(src, weights=column[faces],
                             minlength=rep.size).astype(np.float64, copy=False)
        h.append(np.repeat(column[:, None], params.hidden_dim, axis=1))
    return flat_propagate(c, plan, h, params)


def where_elu(x):
    """The three-temporary ELU that ``network._elu`` replaces."""
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def per_column_segment_sum(values, src, n_out):
    """One strided ``bincount`` per column, the form that
    ``network._segment_sum`` replaces."""
    out = np.zeros((n_out, values.shape[1]), dtype=np.float64)
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(src, weights=values[:, j], minlength=n_out)
    return out


def per_column_layout_sum(values, segments):
    """``network._segment_sum`` through :func:`per_column_segment_sum`: the
    entries in layout order, each named by its row."""
    order, counts, index = segments
    counts = np.asarray(counts, dtype=np.int64)
    rank = np.arange(index.size) - np.repeat(np.cumsum(counts) - counts, counts)
    gathered = values[index]
    if gathered.ndim == 1:
        gathered = gathered[:, None]
    out = per_column_segment_sum(gathered, order[rank], order.size)
    return out.reshape((order.size,) + values.shape[1:])


def check_segment_sum(values, src, n_out):
    """``_segment_sum`` over the layout of ``src`` has the bytes of the
    per-column ``bincount`` of the same entries, gathered through a
    shuffled index; a single column may also be summed as a 1-D array."""
    rng = np.random.default_rng(src.size)
    index = rng.permutation(src.size)
    table = np.empty_like(values)
    table[index] = values
    # the entries row after row, each row's in entry order
    segments = network._segments(np.bincount(src, minlength=n_out),
                                 index[np.argsort(src, kind="stable")])
    assert sorted(segments.order.tolist()) == list(range(n_out))
    assert segments.counts == sorted(segments.counts, reverse=True)
    assert sum(segments.counts) == src.size
    got = network._segment_sum(table, segments)
    want = per_column_segment_sum(values, src, n_out)
    assert got.dtype == np.float64
    assert got.shape == (n_out, values.shape[1])
    assert got.tobytes() == want.tobytes()
    column = network._segment_sum(np.ascontiguousarray(table[:, 0]), segments)
    assert column.shape == (n_out,)
    assert column.tobytes() == np.ascontiguousarray(want[:, 0]).tobytes()


class TestKernels:
    """The one-pass kernels of ``forward`` give the bytes of the forms they
    replace."""

    @pytest.mark.parametrize("n, n_out, width", [
        (0, 0, 16), (0, 5, 16), (0, 3, 1), (1, 1, 1), (7, 1, 3),
        (50, 200, 16), (1000, 40, 16), (333, 17, 1), (200, 9, 33),
    ])
    def test_segment_sum_matches_per_column_bincount(self, n, n_out, width):
        rng = np.random.default_rng(n * 1000 + width)
        values = rng.normal(scale=10.0, size=(n, width))
        # unsorted; many bins stay empty when n_out exceeds n
        src = rng.integers(0, max(n_out, 1), size=n)
        check_segment_sum(values, src, n_out)

    @pytest.mark.parametrize("width", [1, 33])
    @pytest.mark.parametrize("case", [
        "empty rows", "one long row", "no rows", "unsorted rows",
        "signed zeros",
    ])
    def test_segment_sum_layout_cases(self, case, width):
        rng = np.random.default_rng(len(case) * 100 + width)
        if case == "empty rows":  # rows 0, 2, 4 and 5 have no entry
            src, n_out = np.array([1, 3, 1, 3, 3, 1, 6]), 7
        elif case == "one long row":  # 3,000 slices, one row in most
            src = np.concatenate([np.full(3000, 2), [0, 3, 0]])
            src, n_out = src[rng.permutation(src.size)], 4
        elif case == "no rows":
            src, n_out = np.zeros(0, dtype=np.int64), 0
        elif case == "unsorted rows":  # lengths 1..40 in shuffled rows
            src = np.repeat(rng.permutation(40), np.arange(1, 41))
            src, n_out = src[rng.permutation(src.size)], 45
        else:  # a row of -0.0 sums to +0.0, as in bincount
            src, n_out = np.array([0, 0, 1, 2, 2, 2]), 3
        values = rng.normal(scale=10.0, size=(src.size, width))
        if case == "signed zeros":
            values[:2] = -0.0
            values[3:, 0] = [5e-324, -5e-324, -0.0]
        check_segment_sum(values, src, n_out)

    def test_elu_matches_where_form_in_place(self):
        rng = np.random.default_rng(11)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                            1e-310, -1e-310, np.inf, -np.inf, -800.0, 800.0,
                            -1e-17, 1e-17, -745.2, -0.5, 0.5])
        x = np.concatenate([special, rng.normal(scale=5.0, size=2000),
                            rng.choice(special, size=1000)])
        x = x[rng.permutation(x.size)].reshape(-1, 7)
        want = where_elu(x)
        arg = x.copy()
        got = network._elu(arg)
        assert got is arg  # in place
        assert got.tobytes() == want.tobytes()
        for v in special:  # one element at a time, outside any vector loop
            assert network._elu(np.array([v])).tobytes() == \
                where_elu(np.array([v])).tobytes()

    def test_forward_bytes_equal_with_replaced_kernels(self, srg_specs,
                                                       monkeypatch):
        rng = np.random.default_rng(99)
        complexes = [lift_path_complex(g, 3)
                     for name in ("SR(16,6,2,2)", "SR(26,10,3,4)")
                     for g in load_family(srg_specs[name])[:2]]
        for _ in range(6):
            g = random_graph(int(rng.integers(5, 11)), 0.5, rng)
            complexes += [lift_path_complex(g, 2), lift_ring_complex(g, 5)]
        runs = []
        for i, c in enumerate(complexes):
            params = NetworkParams.create(seed=i, layers=4, max_dim=c.max_dim)
            runs.append((c, init_features(c), params))
        new = [forward(*run) for run in runs]
        monkeypatch.setattr(network, "_elu", where_elu)
        monkeypatch.setattr(network, "_segment_sum", per_column_layout_sum)
        old = [forward(*run) for run in runs]
        for a, b in zip(new, old):
            assert a.tobytes() == b.tobytes()

    def test_class_plan_built_once_per_complex(self):
        c = lift_path_complex(cycle_graph(6), 3)
        forward(c, init_features(c), NetworkParams.create(0, 0, max_dim=3))
        assert c._class_plan is None  # a zero-layer forward needs no plan
        params = NetworkParams.create(seed=0, layers=2, max_dim=3)
        first = forward(c, init_features(c), params)
        plan = c._class_plan
        assert plan is not None
        assert network._class_incidence(c) is plan
        second = forward(c, init_features(c), params)
        assert c._class_plan is plan  # not rebuilt
        assert first.tobytes() == second.tobytes()


class TestBlocks:
    """The kernels and the layers run a block of rows at a time; with the
    block shrunk to a few elements, inputs that span several blocks, or end
    exactly on a block's edge, give the bytes of the unblocked forms."""

    @pytest.mark.parametrize("block", [1, 16, 17])
    def test_elu(self, block, monkeypatch):
        monkeypatch.setattr(network, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for shape in [(3 * block,), (3 * block + 1,), (0,), (5, 7),
                      (3 * max(1, block // 7), 7), (3 * max(1, block // 7) + 2, 7),
                      (4, 40)]:
            x = rng.normal(scale=3.0, size=shape)
            x.flat[::5] = -0.0
            want = where_elu(x)
            arg = x.copy()
            assert network._elu(arg) is arg
            assert arg.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 16, 17])
    @pytest.mark.parametrize("n, n_out, width", [
        (500, 40, 3), (500, 48, 1), (340, 17, 1), (0, 3, 2), (200, 9, 33),
    ])
    def test_segment_sum(self, block, n, n_out, width, monkeypatch):
        monkeypatch.setattr(network, "_BLOCK", block)
        rng = np.random.default_rng(n + width)
        # every row has entries, so the first slices hold all n_out rows
        src = np.concatenate([np.arange(n_out), rng.integers(0, n_out, size=n)])
        values = rng.normal(scale=10.0, size=(src.size, width))
        check_segment_sum(values, src, n_out)

    @pytest.mark.parametrize("block", [1, 16, 17, 48])
    def test_forward_and_embed(self, block, srg_specs, monkeypatch):
        monkeypatch.setattr(network, "_BLOCK", block)
        rng = np.random.default_rng(5)
        complexes = [lift_path_complex(load_family(srg_specs["SR(16,6,2,2)"])[1], 3),
                     lift_path_complex(random_graph(9, 0.5, rng), 3),
                     lift_ring_complex(random_graph(8, 0.5, rng), 5)]
        for c in complexes:
            for hidden in (16, 5):
                params = NetworkParams.create(block, 3, max_dim=c.max_dim,
                                              hidden_dim=hidden)
                want = flat_embed(c, params)
                assert network.embed(c, params).tobytes() == want.tobytes()
                feats = init_features(c, hidden)
                assert forward(c, feats, params).tobytes() == want.tobytes()
        # the last member, in the last block, is not its class's representative
        c = complexes[0]
        colors = stable_colors(c)
        assert colors[-1] in colors[c.dim_offsets[3]:-1]
        values = [v.copy() for v in init_features(c).values]
        values[3][-1, 0] += 1.0
        with pytest.raises(ValueError, match="dimension 3 are not constant"):
            forward(c, FeatureState(values), NetworkParams.create(0, 1, max_dim=3))

    def test_embed_transient_memory(self, srg_specs):
        """Besides the features, ``embed``'s largest arrays are one
        (pairs, d) message buffer and one (classes, 2d) update input;
        the temporaries it allocates stay within 1.5 times the two."""
        c = lift_path_complex(load_family(srg_specs["SR(35,16,6,8)"])[2], 3)
        params = NetworkParams.create(0, 4, max_dim=3)
        want = network.embed(c, params)  # builds the coloring and the plan
        plan = network._class_incidence(c)
        d = params.hidden_dim
        pairs = max(cls.pairs[0].size for cls in plan) * d * 8
        update_input = max(cls.rep.size for cls in plan) * 2 * d * 8
        assert pairs > 4 * network._BLOCK * 8  # the buffer spans blocks
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = network.embed(c, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak <= 1.5 * (pairs + update_input), (peak, pairs, update_input)


class TestFlatOracle:
    """``forward`` and ``embed`` have the bytes of the class-level layers
    with per-entry messages and flat ``bincount`` sums."""

    @staticmethod
    def complexes(case, srg_specs):
        if case == "SR(35,18,9,9) #2":
            return [lift_path_complex(load_family(srg_specs["SR(35,18,9,9)"])[2], 3)]
        if case == "SR(28,12,6,4)":
            return [lift_path_complex(g, 3)
                    for g in load_family(srg_specs["SR(28,12,6,4)"])]
        if case == "star":
            return [lift_path_complex(
                SimpleGraph.from_edges(301, [(0, i) for i in range(1, 301)]), 2)]
        if case == "empty and edgeless":
            return [lift_path_complex(SimpleGraph.from_edges(n, []), 2)
                    for n in (0, 5)]
        rng = np.random.default_rng(17)
        graphs = [random_graph(n, 0.5, rng) for n in (6, 8, 10, 12)]
        if case == "clique":
            return [lift_clique_complex(g, 3) for g in graphs]
        if case == "ring":
            return [lift_ring_complex(g, 5) for g in graphs]
        return [lift_path_complex(g, 3, boundary_mode=case) for g in graphs]

    @pytest.mark.parametrize("case", [
        "SR(35,18,9,9) #2", "SR(28,12,6,4)", "incidence", "truncation",
        "clique", "ring", "star", "empty and edgeless",
    ])
    def test_forward_and_embed_match(self, case, srg_specs):
        for i, c in enumerate(self.complexes(case, srg_specs)):
            for seed in (i, i + 10):
                params = NetworkParams.create(seed, 4, max_dim=c.max_dim)
                want = flat_embed(c, params)
                assert network.embed(c, params).tobytes() == want.tobytes()
                feats = init_features(c)
                assert forward(c, feats, params).tobytes() == \
                    flat_forward(c, feats, params).tobytes()
                assert forward(c, feats, params).tobytes() == want.tobytes()


class TestInitFeatures:
    def test_path_graph_sum_values(self):
        c = lift_path_complex(path_graph(4), 3)
        f = init_features(c, hidden_dim=1)
        assert np.allclose(f.values[0], 1.0)
        assert np.allclose(f.values[1], 2.0)
        # both 2-paths keep exactly their two end-truncations on the boundary
        assert np.allclose(f.values[2], 4.0)

    def test_empty_dimension_is_fine(self):
        c = lift_path_complex(path_graph(2), 3)
        f = init_features(c, hidden_dim=2)
        assert f.values[2].shape == (0, 2)
        assert f.values[3].shape == (0, 2)

    def test_incidence_mode_adds_skip_boundaries(self):
        g = complete_graph(3)
        inc = lift_path_complex(g, 2, boundary_mode="incidence")
        trunc = lift_path_complex(g, 2, boundary_mode="truncation")
        fi = init_features(inc, hidden_dim=1)
        ft = init_features(trunc, hidden_dim=1)
        assert np.allclose(fi.values[2], 6.0)  # three boundary edges
        assert np.allclose(ft.values[2], 4.0)  # two truncations only


class TestForward:
    def test_bitwise_determinism(self):
        c = lift_path_complex(cycle_graph(6), 3)
        params = NetworkParams.create(seed=3, layers=4, max_dim=3)
        f = init_features(c)
        e1 = forward(c, f, params)
        e2 = forward(c, init_features(c), params)
        assert np.array_equal(e1, e2)

    def test_seed_determines_params_bitwise(self):
        a = NetworkParams.create(seed=9, layers=3, max_dim=2)
        b = NetworkParams.create(seed=9, layers=3, max_dim=2)
        for la, lb in zip(a.layer_weights, b.layer_weights):
            for da, db in zip(la, lb):
                for key in da:
                    assert np.array_equal(da[key][0], db[key][0])
                    assert np.array_equal(da[key][1], db[key][1])
        e_a = forward(
            lift_path_complex(cycle_graph(5), 2),
            init_features(lift_path_complex(cycle_graph(5), 2)), a
        )
        e_b = forward(
            lift_path_complex(cycle_graph(5), 2),
            init_features(lift_path_complex(cycle_graph(5), 2)), b
        )
        assert np.array_equal(e_a, e_b)

    def test_different_seeds_differ(self):
        c = lift_path_complex(cycle_graph(6), 3)
        f = init_features(c)
        e1 = forward(c, f, NetworkParams.create(seed=0, layers=3, max_dim=3))
        e2 = forward(c, f, NetworkParams.create(seed=1, layers=3, max_dim=3))
        assert not np.array_equal(e1, e2)

    def test_permutation_invariance_sample(self):
        rng = np.random.default_rng(12)
        params = NetworkParams.create(seed=5, layers=3, max_dim=3)
        for _ in range(10):
            g = random_graph(8, 0.5, rng)
            pi = random_permutation(8, rng)
            h = apply_permutation(g, pi)
            cg, ch = lift_path_complex(g, 3), lift_path_complex(h, 3)
            eg = forward(cg, init_features(cg), params)
            eh = forward(ch, init_features(ch), params)
            denom = max(float(np.linalg.norm(eg)), 1e-30)
            assert np.linalg.norm(eg - eh) / denom <= 1e-6

    def test_zero_layers_is_projection_of_pooled_init(self):
        c = lift_path_complex(path_graph(3), 1)
        params = NetworkParams.create(seed=7, layers=0, max_dim=1)
        f = init_features(c)
        got = forward(c, f, params)

        def elu(x):
            return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))

        pooled = np.zeros(params.hidden_dim)
        for p, block in enumerate(f.values):
            if block.size:
                w, b = params.pool_dense[p]
                pooled = pooled + elu(block.sum(axis=0) @ w + b)
        w1, b1 = params.projection[0]
        w2, b2 = params.projection[1]
        want = elu(pooled @ w1 + b1) @ w2 + b2
        assert np.allclose(got, want, rtol=0, atol=0)

    def test_embedding_length(self):
        c = lift_path_complex(cycle_graph(5), 2)
        params = NetworkParams.create(seed=1, layers=2, max_dim=2, embed_dim=48)
        assert forward(c, init_features(c), params).shape == (48,)

    @pytest.mark.parametrize("kwargs", [
        {"layers": -1}, {"layers": -2}, {"hidden_dim": 0}, {"embed_dim": 0},
        {"hidden_dim": -4},
    ])
    def test_create_rejects_bad_sizes(self, kwargs):
        args = {"seed": 0, "layers": 2, "max_dim": 2, **kwargs}
        with pytest.raises(ValueError):
            NetworkParams.create(**args)

    def test_max_dim_mismatch_rejected(self):
        c = lift_path_complex(cycle_graph(5), 2)
        params = NetworkParams.create(seed=1, layers=2, max_dim=3)
        with pytest.raises(ValueError, match="max_dim"):
            forward(c, init_features(c), params)

    def test_feature_shape_mismatch_rejected(self):
        c = lift_path_complex(cycle_graph(5), 2)
        params = NetworkParams.create(seed=1, layers=2, max_dim=2)
        bad = init_features(c, hidden_dim=8)
        with pytest.raises(ValueError, match="shape"):
            forward(c, bad, params)

    @pytest.mark.parametrize("layers", [0, 2])
    @pytest.mark.parametrize("blocks", [2, 4])
    def test_feature_block_count_mismatch_rejected(self, layers, blocks):
        c = lift_path_complex(cycle_graph(5), 2)
        params = NetworkParams.create(seed=1, layers=layers, max_dim=2)
        values = init_features(c).values
        values = (values + values)[:blocks]
        with pytest.raises(ValueError,
                           match=f"expected 3 feature blocks.*got {blocks}"):
            forward(c, FeatureState(values), params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layers", [0, 2])
    def test_non_finite_features_rejected(self, bad, layers):
        c = lift_path_complex(cycle_graph(5), 2)
        params = NetworkParams.create(seed=1, layers=layers, max_dim=2)
        values = [v.copy() for v in init_features(c).values]
        values[0][:] = bad  # constant on the classes, but not finite
        with pytest.raises(ValueError, match="dimension 0 are not finite"):
            forward(c, FeatureState(values), params)

    def test_create_rejects_negative_max_dim(self):
        with pytest.raises(ValueError, match="max_dim"):
            NetworkParams.create(0, 2, max_dim=-1)

    def test_works_on_ring_complexes(self):
        c = lift_ring_complex(complete_graph(4), 4)
        params = NetworkParams.create(seed=4, layers=3, max_dim=2)
        e = forward(c, init_features(c), params)
        assert np.all(np.isfinite(e))

    def test_finiteness_longer_stack(self):
        c = lift_path_complex(complete_graph(6), 3)
        params = NetworkParams.create(seed=6, layers=6, max_dim=3)
        e = forward(c, init_features(c), params)
        assert np.all(np.isfinite(e))


class TestClassLevelForward:
    """``forward`` runs on stable color classes; the member-level reference
    is its oracle."""

    @staticmethod
    def complexes(srg_specs):
        rng = np.random.default_rng(2024)
        out = []
        for n in (4, 6, 8, 10, 12):
            for _ in range(3):
                g = random_graph(n, float(rng.uniform(0.3, 0.7)), rng)
                for dim in (1, 2, 3):
                    for mode in ("incidence", "truncation"):
                        out.append(lift_path_complex(g, dim, boundary_mode=mode))
                out.append(lift_ring_complex(g, 5))
        out += [lift_path_complex(cycle_graph(8), 3),
                lift_ring_complex(complete_graph(5), 4)]
        for name in ("SR(16,6,2,2)", "SR(26,10,3,4)"):
            out += [lift_path_complex(g, 3)
                    for g in load_family(srg_specs[name])[:2]]
        return out

    def test_matches_member_level_reference(self, srg_specs):
        worst, collapsed = 0.0, 0
        for i, c in enumerate(self.complexes(srg_specs)):
            params = NetworkParams.create(seed=i, layers=3, max_dim=c.max_dim)
            feats = init_features(c)
            got = forward(c, feats, params)
            want = reference_forward(c, feats, params)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            worst = max(worst, rel)
            collapsed += int(stable_colors(c).max()) + 1 < c.total
        assert worst <= 1e-12, worst
        assert collapsed >= 20  # most inputs have multi-member classes

    def test_bitwise_whichever_call_filled_the_cache(self, srg_specs):
        g, h = load_family(srg_specs["SR(16,6,2,2)"])[:2]
        params = NetworkParams.create(seed=8, layers=4, max_dim=3)

        def filled(how):
            c = lift_path_complex(g, 3)
            if how == "refine_pair":
                refine_pair(c, lift_path_complex(h, 3))
            elif how == "stable_fingerprint":
                stable_fingerprint(c)
            else:
                stable_colors(c)
            assert c._stable_colors is not None
            return c

        runs = [filled(how) for how in ("stable_colors", "refine_pair",
                                        "stable_fingerprint")]
        for c in runs[1:]:
            assert np.array_equal(stable_colors(c), stable_colors(runs[0]))
        embeddings = [forward(c, init_features(c), params) for c in runs]
        embeddings.append(forward(runs[0], init_features(runs[0]), params))
        for e in embeddings[1:]:
            assert np.array_equal(e, embeddings[0])

    def test_embed_is_forward_of_init_features(self, srg_specs):
        for i, c in enumerate(self.complexes(srg_specs)):
            for layers in range(5):
                params = NetworkParams.create(seed=i, layers=layers, max_dim=c.max_dim)
                want = forward(c, init_features(c), params)
                assert network.embed(c, params).tobytes() == want.tobytes()

    def test_embed_builds_no_member_features(self, monkeypatch):
        c = lift_path_complex(cycle_graph(6), 3)
        want = forward(c, init_features(c), NetworkParams.create(3, 2, max_dim=3))

        def member_level(*args):
            raise AssertionError("init_features called")

        monkeypatch.setattr(network, "init_features", member_level)
        assert np.array_equal(network.embed(c, NetworkParams.create(3, 2, max_dim=3)), want)
        with pytest.raises(ValueError, match="params built for max_dim=2"):
            network.embed(c, NetworkParams.create(3, 2, max_dim=2))

    def test_colors_built_on_first_forward_with_a_layer(self):
        c = lift_path_complex(cycle_graph(6), 3)
        forward(c, init_features(c), NetworkParams.create(0, layers=0, max_dim=3))
        assert c._stable_colors is None
        forward(c, init_features(c), NetworkParams.create(0, layers=1, max_dim=3))
        assert c._stable_colors is not None

    def test_features_not_constant_on_classes_rejected(self):
        c = lift_path_complex(cycle_graph(6), 3)
        colors = stable_colors(c)
        member = int(np.flatnonzero(colors == colors[c.dim_offsets[2]])[1])
        feats = init_features(c)
        values = [v.copy() for v in feats.values]
        values[2][member - c.dim_offsets[2], 0] += 1.0
        params = NetworkParams.create(seed=2, layers=2, max_dim=3)
        with pytest.raises(ValueError, match="not constant"):
            forward(c, FeatureState(values), params)
        # the last member of a dimension, of the complex, and below empty
        # dimensions (the top one of P3 at dimension 3; both of an edgeless
        # graph at dimension 2)
        cases = [(cycle_graph(6), 3, 2), (cycle_graph(6), 3, 3), (path_graph(3), 3, 1),
                 (SimpleGraph.from_edges(4, []), 2, 0)]
        for graph, dim, p in cases:
            c = lift_path_complex(graph, dim)
            colors = stable_colors(c)
            lo, member = c.dim_offsets[p], c.dim_offsets[p + 1] - 1
            assert colors[member] in colors[lo:member]  # not its class's representative
            params = NetworkParams.create(seed=2, layers=2, max_dim=dim)
            feats = init_features(c)
            assert np.array_equal(forward(c, feats, params), network.embed(c, params))
            values = [v.copy() for v in feats.values]
            values[p][member - lo, 0] += 1.0
            with pytest.raises(ValueError, match=f"dimension {p} are not constant"):
                forward(c, FeatureState(values), params)
        assert c.counts() == [4, 0, 0]


class TestDistance:
    def test_zero_for_equal(self):
        e = np.arange(8.0)
        assert embedding_distance(e, e) == 0.0

    def test_hand_norm(self):
        e1 = np.zeros(32)
        e1[0], e1[1] = 3.0, 4.0
        assert embedding_distance(e1, np.zeros(32)) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=16), rng.normal(size=16)
        assert embedding_distance(a, b) == embedding_distance(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            embedding_distance(np.zeros(3), np.zeros(4))


class TestProtocolConsistency:
    def test_network_separation_implies_refinement_separation(self):
        # the reverse of the theory bound: whenever some seed pushes a pair
        # past epsilon, the deterministic test must also separate it
        rng = np.random.default_rng(31)
        pairs = [
            (cycle_graph(6), disjoint_union(complete_graph(3), complete_graph(3)))
        ]
        for _ in range(8):
            pairs.append((random_graph(7, 0.5, rng), random_graph(7, 0.5, rng)))
        for g1, g2 in pairs:
            c1, c2 = lift_path_complex(g1, 3), lift_path_complex(g2, 3)
            f1, f2 = init_features(c1), init_features(c2)
            separated = False
            for seed in range(5):
                params = NetworkParams.create(seed=seed, layers=4, max_dim=3)
                dist = embedding_distance(
                    forward(c1, f1, params), forward(c2, f2, params)
                )
                if dist >= 0.01:
                    separated = True
                    break
            if separated:
                assert distinguishes(*refine_pair(c1, c2)[:2])
