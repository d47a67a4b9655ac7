"""Random-weight forward pass over complexes for the distinguishability protocol.

The network mirrors the refinement engine's information flow: each layer
sends every member a boundary message (its own feature plus the sum of
boundary features) and an upper-adjacency message (a learnable mix of
each upper neighbor with its shared co-boundary witness, summed), then
updates through a dense layer on the concatenation.  Embeddings are read out
by per-dimension sum pooling, a dense layer per dimension, summation across
dimensions, and a two-layer projection.

Weights are drawn once from a seeded PCG64 generator, uniform on
``[-sqrt(1/fan_in), +sqrt(1/fan_in)]``, in a fixed (layer, dimension, block)
order, so a seed fully determines the network on every platform.  All
aggregations run in ascending member-id order; repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .complexes import HigherOrderComplex

__all__ = [
    "NetworkParams",
    "FeatureState",
    "init_features",
    "forward",
    "embedding_distance",
]


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _dense(x: np.ndarray, wb) -> np.ndarray:
    w, b = wb
    return x @ w + b


@dataclass(frozen=True)
class NetworkParams:
    """Seeded dense-layer weights for every message block.

    ``layer_weights[t][p]`` holds the blocks of layer ``t`` at dimension
    ``p``: ``boundary`` and ``upper`` mix the aggregated messages, ``message``
    transforms each (neighbor, witness) pair, and ``update`` maps the
    concatenated messages to the next feature.  ``pool_dense[p]`` follows the
    per-dimension pooling and ``projection`` produces the final embedding.
    """

    seed: int
    layers: int
    hidden_dim: int
    embed_dim: int
    max_dim: int
    layer_weights: tuple = field(default=(), compare=False, repr=False)
    pool_dense: tuple = field(default=(), compare=False, repr=False)
    projection: tuple = field(default=(), compare=False, repr=False)

    @staticmethod
    def create(
        seed: int,
        layers: int,
        max_dim: int,
        hidden_dim: int = 16,
        embed_dim: int = 32,
    ) -> "NetworkParams":
        rng = np.random.default_rng(seed)

        def draw(fan_in, fan_out):
            a = np.sqrt(1.0 / fan_in)
            w = rng.uniform(-a, a, size=(fan_in, fan_out))
            b = rng.uniform(-a, a, size=fan_out)
            return w, b

        d = hidden_dim
        layer_weights = []
        for _ in range(layers):
            per_dim = []
            for _ in range(max_dim + 1):
                per_dim.append(
                    {
                        "boundary": draw(d, d),
                        "message": draw(2 * d, d),
                        "upper": draw(d, d),
                        "update": draw(2 * d, d),
                    }
                )
            layer_weights.append(tuple(per_dim))
        pool_dense = tuple(draw(d, d) for _ in range(max_dim + 1))
        projection = (draw(d, embed_dim), draw(embed_dim, embed_dim))
        return NetworkParams(
            seed=seed,
            layers=layers,
            hidden_dim=hidden_dim,
            embed_dim=embed_dim,
            max_dim=max_dim,
            layer_weights=tuple(layer_weights),
            pool_dense=pool_dense,
            projection=projection,
        )


@dataclass
class FeatureState:
    """Per-member feature matrices, one block per dimension."""

    values: list  # list of (m_p, d) float64 arrays

    @property
    def hidden_dim(self) -> int:
        for v in self.values:
            if v.size:
                return v.shape[1]
        return self.values[0].shape[1] if self.values else 0


def init_features(c: HigherOrderComplex, hidden_dim: int = 16) -> FeatureState:
    """Populate features bottom-up: ones at dimension 0, then the sum of
    boundary features at each higher dimension."""
    counts = c.counts()
    values = [np.ones((counts[0], hidden_dim), dtype=np.float64)]
    for p in range(1, c.max_dim + 1):
        src, dst = _dim_boundary(c, p)
        values.append(_segment_sum(values[p - 1][dst], src, counts[p]))
    return FeatureState(values)


def _dim_boundary(c: HigherOrderComplex, p: int):
    """Boundary entries of dimension p with local (src, dst) indices."""
    indptr, indices = c.boundary_csr()
    lo, hi = c.dim_offsets[p], c.dim_offsets[p + 1]
    lens = np.diff(indptr[lo:hi + 1])
    src = np.repeat(np.arange(hi - lo, dtype=np.int64), lens)
    dst = indices[indptr[lo]:indptr[hi]] - c.dim_offsets[p - 1]
    return src, dst


def _dim_upper(c: HigherOrderComplex, p: int):
    """Upper-adjacency triples of dimension p with local indices."""
    src_all, tau_all, delta_all = c.upper_adjacency()
    lo, hi = c.dim_offsets[p], c.dim_offsets[p + 1]
    i0, i1 = np.searchsorted(src_all, (lo, hi))
    src = src_all[i0:i1] - lo
    tau = tau_all[i0:i1] - lo
    delta = delta_all[i0:i1] - c.dim_offsets[p + 1]
    return src, tau, delta


def _segment_sum(values: np.ndarray, src: np.ndarray, n_out: int) -> np.ndarray:
    """Column-wise bincount: sequential per-bin accumulation, fixed order."""
    out = np.zeros((n_out, values.shape[1]), dtype=np.float64)
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(src, weights=values[:, j], minlength=n_out)
    return out


def forward(
    c: HigherOrderComplex,
    feats: FeatureState,
    params: NetworkParams,
) -> np.ndarray:
    """Run the message-passing layers and read out one embedding vector."""
    d = params.hidden_dim
    if c.max_dim != params.max_dim:
        raise ValueError(
            f"params built for max_dim={params.max_dim}, complex has {c.max_dim}"
        )
    h = [np.asarray(v, dtype=np.float64) for v in feats.values]
    for p, block in enumerate(h):
        if block.shape != (len(c.members_by_dim[p]), d):
            raise ValueError(
                f"feature block at dimension {p} has shape {block.shape}, "
                f"expected ({len(c.members_by_dim[p])}, {d})"
            )
    counts = c.counts()
    bnd = {p: _dim_boundary(c, p) for p in range(1, c.max_dim + 1)}
    upp = {p: _dim_upper(c, p) for p in range(c.max_dim + 1)}
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
                agg_b = _segment_sum(h[p - 1][dst], src, counts[p])
            m_b = _elu(_dense(h[p] + agg_b, blocks["boundary"]))
            src, tau, delta = upp[p]
            agg_u = np.zeros((counts[p], d))
            if src.size:
                # the dense layer on [neighbor, witness], split by weight rows
                # so no (triples, 2d) pair array is built
                w, b = blocks["message"]
                msgs = _elu((h[p] @ w[:d])[tau] + (h[p + 1] @ w[d:])[delta] + b)
                agg_u = _segment_sum(msgs, src, counts[p])
            m_u = _elu(_dense(h[p] + agg_u, blocks["upper"]))
            out = _elu(_dense(np.concatenate([m_b, m_u], axis=1),
                              blocks["update"]))
            if not np.all(np.isfinite(out)):
                raise FloatingPointError(
                    f"non-finite features after layer {t} at dimension {p}"
                )
            new_h.append(out)
        h = new_h
    pooled = np.zeros(d)
    for p in range(c.max_dim + 1):
        if counts[p] == 0:
            continue
        dim_repr = _elu(_dense(h[p].sum(axis=0), params.pool_dense[p]))
        pooled = pooled + dim_repr
    hidden = _elu(_dense(pooled, params.projection[0]))
    embedding = _dense(hidden, params.projection[1])
    if not np.all(np.isfinite(embedding)):
        raise FloatingPointError("non-finite embedding after projection")
    return embedding


def embedding_distance(e1: np.ndarray, e2: np.ndarray) -> float:
    """Euclidean distance between two embeddings of equal length."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.shape != e2.shape:
        raise ValueError(f"embedding shapes differ: {e1.shape} vs {e2.shape}")
    return float(np.linalg.norm(e1 - e2))
