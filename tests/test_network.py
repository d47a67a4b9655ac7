"""Random-weight forward pass: determinism, invariance, protocol wiring."""

import numpy as np
import pytest

from pathcomplex.complexes import lift_path_complex, lift_ring_complex
from pathcomplex.graphs import (
    apply_permutation,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_graph,
    random_permutation,
)
from pathcomplex.network import (
    NetworkParams,
    embedding_distance,
    forward,
    init_features,
)
from pathcomplex.refine import distinguishes, refine_pair


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
