"""Random-weight forward pass over complexes for the distinguishability protocol.

The network mirrors the refinement engine's information flow: each layer
sends every member a boundary message (its own feature plus the sum of
boundary features) and an upper-adjacency message (a learnable mix of
each upper neighbor with its shared co-boundary witness, summed), then
updates through a dense layer on the concatenation.  Embeddings are read out
by per-dimension sum pooling, a dense layer per dimension, summation across
dimensions, and a two-layer projection.

The layers run on stable color classes, not on every member.
``init_features`` is constant on the stable reduced-rule classes of a
complex, and each layer reads exactly the reduced refinement signature (own
feature, boundary multiset, (neighbor, witness) pairs), so by induction
every layer's features are constant on (dimension, stable color) classes;
this is the argument behind "PCN is at most as expressive as PWL" (compare
Morris et al., "Weisfeiler and Leman go neural", and Grohe et al.,
"Dimension reduction via colour refinement").  ``forward`` therefore runs
each layer on one representative per class, with the representative's
boundary row and upper triples remapped to class ids, and sum-pools with
the class sizes.  The stable coloring comes from
:func:`pathcomplex.refine.stable_colors`: built on the first forward that
runs a layer, cached on the complex, and also filled by any reduced-rule
engine run that reaches stability (``refine_pair``,
``stable_fingerprint``).  The class plan built from it (representatives,
sizes, remapped boundary and upper entries) is cached on the complex beside
it, so each complex pays for both once.
Low-symmetry complexes, whose classes are about as many as their members,
gain nothing and pay for the partition once, unless such a run already
filled it.  A zero-layer forward builds no partition: it pools the features
it is given.

Each layer allocates little: a segment sum is one ``bincount`` pass over a
flat (row, column) index, the ELU overwrites the fresh array it is given,
and the upper messages are gathered and biased in place.

Weights are drawn once from a seeded PCG64 generator, uniform on
``[-sqrt(1/fan_in), +sqrt(1/fan_in)]``, in a fixed (layer, dimension, block)
order, so a seed fully determines the network on every platform.  Classes
are numbered by their lowest member id and every aggregation runs in
ascending id order, so repeated runs are bit-identical whichever call
filled the coloring cache.  Embeddings agree with a forward over every
member within 1e-12 relative; they are not bitwise equal to it, because
the class-level sums are reassociated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .complexes import HigherOrderComplex
from .refine import stable_colors

__all__ = [
    "NetworkParams",
    "FeatureState",
    "init_features",
    "forward",
    "embedding_distance",
]


def _elu(x: np.ndarray) -> np.ndarray:
    """ELU, ``max(x, 0) + expm1(min(x, 0))``, computed in place.

    ``x`` is overwritten and returned, so it must be a fresh array that the
    caller owns.  The bytes equal those of ``np.where(x > 0, x,
    np.expm1(np.minimum(x, 0)))``, signed zeros, infinities and subnormals
    included, with one temporary instead of three.
    """
    neg = np.minimum(x, 0.0)
    np.expm1(neg, out=neg)
    np.maximum(x, 0.0, out=x)
    x += neg
    return x


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
    def check_shape(layers: int, hidden_dim: int, embed_dim: int):
        """Raise ``ValueError`` unless a network can have these sizes."""
        if layers < 0:
            raise ValueError(f"layers must be non-negative, got {layers}")
        if hidden_dim <= 0 or embed_dim <= 0:
            raise ValueError("hidden_dim and embed_dim must be positive")

    @staticmethod
    def create(
        seed: int,
        layers: int,
        max_dim: int,
        hidden_dim: int = 16,
        embed_dim: int = 32,
    ) -> "NetworkParams":
        NetworkParams.check_shape(layers, hidden_dim, embed_dim)
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


def init_features(c: HigherOrderComplex, hidden_dim: int = 16) -> FeatureState:
    """Populate features bottom-up: ones at dimension 0, then the sum of
    boundary features at each higher dimension.  Every column is the same,
    so one is summed and repeated."""
    counts = c.counts()
    column = np.ones(counts[0])
    values = [np.ones((counts[0], hidden_dim))]
    for p in range(1, c.max_dim + 1):
        src, faces = _boundary_rows(c, np.arange(*c.dim_offsets[p:p + 2]))
        # the cast matters only for an empty dimension, whose bincount is int
        column = np.bincount(src, weights=column[faces - c.dim_offsets[p - 1]],
                             minlength=counts[p]).astype(np.float64, copy=False)
        values.append(np.repeat(column[:, None], hidden_dim, axis=1))
    return FeatureState(values)


def _ranges(starts: np.ndarray, ends: np.ndarray):
    """(row, position) of every entry of the ranges ``[starts[i], ends[i])``."""
    lens = ends - starts
    row = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    pos = np.arange(int(lens.sum()), dtype=np.int64)
    pos += np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return row, pos


def _boundary_rows(c: HigherOrderComplex, members: np.ndarray):
    """Boundary entries of ``members`` as (row in ``members``, face id)."""
    indptr, indices = c.boundary_csr()
    row, pos = _ranges(indptr[members], indptr[members + 1])
    return row, indices[pos]


class _Classes(NamedTuple):
    """One dimension of a complex at the level of its stable classes.

    Ids are local to their dimension; ``boundary`` and ``upper`` are the
    representatives' entries in member-level order.
    """

    member_class: np.ndarray  # each member's class
    rep: np.ndarray  # each class's representative, its lowest member
    sizes: np.ndarray  # members per class
    boundary: tuple  # (class, face class)
    upper: tuple  # (class, neighbor class, witness class)


def _class_incidence(c: HigherOrderComplex) -> tuple:
    """The :class:`_Classes` of every dimension of ``c``, cached on ``c``.

    Built once per complex from its stable coloring.  The content is
    deterministic, so threads that fill one complex at once store equal
    data and it does not matter which write lands.
    """
    if c._class_plan is not None:
        return c._class_plan
    colors = stable_colors(c)
    _, reps, sizes = np.unique(colors, return_index=True, return_counts=True)
    first = np.searchsorted(reps, c.dim_offsets)  # each dimension's first class
    up_src, up_tau, up_delta = c.upper_adjacency()
    out = []
    for p in range(c.max_dim + 1):
        lo, hi = c.dim_offsets[p], c.dim_offsets[p + 1]
        rep = reps[first[p]:first[p + 1]]
        src, faces = _boundary_rows(c, rep)
        boundary = (src, colors[faces] - first[p - 1])  # empty at p = 0
        src, pos = _ranges(np.searchsorted(up_src, rep, "left"),
                           np.searchsorted(up_src, rep, "right"))
        upper = (src, colors[up_tau[pos]] - first[p],
                 colors[up_delta[pos]] - first[p + 1])
        out.append(_Classes(colors[lo:hi] - first[p], rep - lo,
                            sizes[first[p]:first[p + 1]], boundary, upper))
    c._class_plan = tuple(out)
    return c._class_plan


def _segment_sum(values: np.ndarray, src: np.ndarray, n_out: int) -> np.ndarray:
    """Row ``i`` of the result sums the rows ``values[src == i]``.

    One ``bincount`` over the flat index ``src * width + column``: every
    bin accumulates its entries sequentially in entry order, so the sums are
    the bytes of a per-column ``bincount``.  The index is as large as
    ``values`` and built on each call.
    """
    width = values.shape[1]
    flat = src[:, None] * width + np.arange(width)
    out = np.bincount(flat.ravel(), weights=values.ravel(),
                      minlength=n_out * width)
    # an empty src gives an int64 result
    return out.astype(np.float64, copy=False).reshape(n_out, width)


def forward(
    c: HigherOrderComplex,
    feats: FeatureState,
    params: NetworkParams,
) -> np.ndarray:
    """Run the message-passing layers and read out one embedding vector.

    The layers run on one representative per stable reduced-rule class of
    ``c``, so ``feats`` must be constant on those classes, as
    :func:`init_features` is; a ``ValueError`` says where it is not.  The
    first call that runs a layer builds the stable coloring and caches it
    on ``c``.
    """
    d = params.hidden_dim
    if c.max_dim != params.max_dim:
        raise ValueError(
            f"params built for max_dim={params.max_dim}, complex has {c.max_dim}"
        )
    h = [np.asarray(v, dtype=np.float64) for v in feats.values]
    counts = c.counts()
    for p, block in enumerate(h):
        if block.shape != (counts[p], d):
            raise ValueError(
                f"feature block at dimension {p} has shape {block.shape}, "
                f"expected ({counts[p]}, {d})"
            )
    if params.layers == 0:
        # nothing to propagate, so no classes are needed
        return _readout(c, [block.sum(axis=0) for block in h], params)
    classes = _class_incidence(c)
    for p, cls in enumerate(classes):
        if not np.array_equal(h[p][cls.rep][cls.member_class], h[p]):
            raise ValueError(
                f"features at dimension {p} are not constant on the stable "
                "color classes"
            )
        h[p] = h[p][cls.rep]
    for t in range(params.layers):
        new_h = []
        for p, cls in enumerate(classes):
            k = cls.rep.size
            if k == 0:
                new_h.append(h[p])
                continue
            blocks = params.layer_weights[t][p]
            agg_b = np.zeros((k, d))
            if p >= 1:
                src, dst = cls.boundary
                agg_b = _segment_sum(h[p - 1][dst], src, k)
            m_b = _elu(_dense(h[p] + agg_b, blocks["boundary"]))
            src, tau, delta = cls.upper
            agg_u = np.zeros((k, d))
            if src.size:
                # the dense layer on [neighbor, witness], split by weight rows
                # so no (triples, 2d) pair array is built
                w, b = blocks["message"]
                msgs = (h[p] @ w[:d])[tau]
                msgs += (h[p + 1] @ w[d:])[delta]
                msgs += b
                agg_u = _segment_sum(_elu(msgs), src, k)
            m_u = _elu(_dense(h[p] + agg_u, blocks["upper"]))
            out = _elu(_dense(np.concatenate([m_b, m_u], axis=1),
                              blocks["update"]))
            if not np.all(np.isfinite(out)):
                raise FloatingPointError(
                    f"non-finite features after layer {t} at dimension {p}"
                )
            new_h.append(out)
        h = new_h
    return _readout(
        c, [cls.sizes.astype(np.float64) @ block for cls, block in zip(classes, h)],
        params,
    )


def _readout(c: HigherOrderComplex, pooled_by_dim: list,
             params: NetworkParams) -> np.ndarray:
    """Per-dimension dense layer on the sum-pooled features, summed over the
    non-empty dimensions of ``c``, then the two-layer projection."""
    pooled = np.zeros(params.hidden_dim)
    for count, total, dense in zip(c.counts(), pooled_by_dim, params.pool_dense):
        if count:
            pooled = pooled + _elu(_dense(total, dense))
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
