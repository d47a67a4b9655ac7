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
boundary row and upper entries remapped to class ids, and sum-pools with
the class sizes.  The stable coloring comes from
:func:`pathcomplex.refine.stable_colors`: built on the first forward that
runs a layer, cached on the complex, and also filled by any reduced-rule
engine run that reaches stability (``refine_pair``,
``stable_fingerprint``).  The class plan (representatives, sizes,
boundary and upper entries remapped to class ids) is cut by dimension from
the rows of the class quotient that a warm ``refine_pair`` refines
(:func:`pathcomplex.refine._quotient`), at the cumulative offsets of their
entry counts, and both are cached on the complex beside the coloring, so
each complex pays for each of them once.  The plan keeps no member-size
array: ``forward`` checks its features against the coloring itself.
Low-symmetry complexes, whose classes are about as many as their members,
gain nothing and pay for the partition once, unless such a run already
filled it.  A zero-layer forward builds no partition: it pools the features
it is given.  ``embed(c, params)`` is the forward of ``c``'s own
``init_features``, byte for byte, with those features built per class from
the class plan, so it allocates no member-size feature array and needs no
check that they are constant on the classes.

Each layer costs one pass per distinct message.  The plan holds each
dimension's distinct (neighbor class, witness class) pairs, so a layer
computes one upper message per pair, not per witness triple: on
SR(35,18,9,9) #2 at dimension 2, 88,849 pairs stand for 194,880 entries.
Every segment sum (boundary and upper aggregation, and the initial
features) runs over one layout built with the plan: rows ranked by
descending entry count, entries laid out by position, so slice ``j`` adds
the ``j``-th entry of every row that has one into a prefix of the ranked
sums.  Each row is summed as ``0.0 + v0 + v1 + ...`` in entry order, the
order in which ``bincount`` sums it, so the bytes are those of a
``bincount``.  The ELU overwrites the fresh array it is given, and the
upper messages are gathered and biased in place.

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

from .complexes import HigherOrderComplex, _ranges, _row_keys
from .refine import _quotient, stable_colors

__all__ = [
    "NetworkParams",
    "FeatureState",
    "init_features",
    "forward",
    "embed",
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
    def check_seed(seed: int):
        """Raise ``ValueError`` unless ``seed`` can seed the weight generator."""
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")

    @staticmethod
    def create(
        seed: int,
        layers: int,
        max_dim: int,
        hidden_dim: int = 16,
        embed_dim: int = 32,
    ) -> "NetworkParams":
        NetworkParams.check_seed(seed)
        NetworkParams.check_shape(layers, hidden_dim, embed_dim)
        if max_dim < 0:
            raise ValueError(f"max_dim must be non-negative, got {max_dim}")
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
    boundary features at each higher dimension."""
    off = c.dim_offsets
    indptr, indices = c.boundary_csr()

    def boundary(p):
        rows = indptr[off[p]:off[p + 1] + 1]
        # face ids of dimension p start at off[p - 1]
        return _segments(np.diff(rows), indices[rows[0]:rows[-1]] - off[p - 1])

    return FeatureState(_boundary_sums(
        c.counts()[0], map(boundary, range(1, c.max_dim + 1)), hidden_dim))


def _boundary_sums(size: int, boundaries, hidden_dim: int) -> list:
    """Ones on the ``size`` rows of dimension 0, then on each row above the
    sum of its faces' rows, with ``boundaries`` yielding each dimension's
    :class:`_Segments` over the face rows one dimension down.  Every column
    is the same, so one is summed and repeated."""
    column = np.ones(size)
    values = [np.ones((size, hidden_dim))]
    for segments in boundaries:
        column = _segment_sum(column, segments)
        values.append(np.repeat(column[:, None], hidden_dim, axis=1))
    return values


class _Segments(NamedTuple):
    """Entries grouped into rows, laid out for :func:`_segment_sum`.

    The rows are ranked by descending entry count, ties by row id, and
    ``index`` holds the entries by position: slice ``j`` is the ``j``-th
    entry of each of the first ``counts[j]`` ranked rows.
    """

    order: np.ndarray  # row id of each rank
    counts: list  # ranked rows per slice, non-increasing
    index: np.ndarray  # each entry's row of the summed values, slice by slice


def _segments(lens: np.ndarray, index: np.ndarray) -> _Segments:
    """The layout of rows of ``lens`` entries, with ``index`` holding the
    entries row after row, each row's in order."""
    order = np.argsort(-lens, kind="stable")
    counts = lens.size - np.cumsum(np.bincount(lens))[:-1]  # rows longer than j
    slot, rank = _ranges(np.zeros_like(counts), counts)
    row_start = np.cumsum(lens) - lens
    return _Segments(order, counts.tolist(), index[row_start[order[rank]] + slot])


def _segment_sum(values: np.ndarray, segments: _Segments) -> np.ndarray:
    """Row ``i`` of the result sums ``values[e]`` over the entries ``e`` of
    row ``i`` of ``segments``, as ``0.0 + v0 + v1 + ...`` in entry order.

    That is the order in which ``np.bincount`` accumulates a bin, so the
    sums are the bytes of a per-column ``bincount``.  Each slice adds one
    entry to every ranked row that has one, into a prefix of the ranked
    sums, which are put back in row order at the end.
    """
    order, counts, index = segments
    out = np.zeros((order.size,) + values.shape[1:])
    start = 0
    for n in counts:
        out[:n] += values.take(index[start:start + n], axis=0)
        start += n
    result = np.empty_like(out)
    result[order] = out
    return result


class _Classes(NamedTuple):
    """One dimension of a complex at the level of its stable classes.

    Ids are local to their dimension.  Each representative's entries keep
    their member-level order; an upper entry names one of the distinct
    (neighbor class, witness class) ``pairs``.
    """

    rep: np.ndarray  # each class's representative, its lowest member
    sizes: np.ndarray  # members per class
    boundary: _Segments  # face classes
    upper: _Segments  # pair ids
    pairs: tuple  # (neighbor class, witness class) of each distinct pair


def _class_incidence(c: HigherOrderComplex) -> tuple:
    """The :class:`_Classes` of every dimension of ``c``, cached on ``c``.

    Built once per complex from the class quotient
    (:func:`pathcomplex.refine._quotient`) that a warm ``refine_pair``
    refines, which holds the representatives, their sizes and their
    boundary and upper rows, entries per class and entries remapped to
    class ids.  Each dimension's classes and entries are contiguous, so
    they are cut at cumulative offsets and made local to the dimension.
    The content is deterministic, so threads that fill one complex at once
    store equal data and it does not matter which write lands.
    """
    if c._class_plan is not None:
        return c._class_plan
    q = _quotient(c)
    first = np.searchsorted(q.rep, c.dim_offsets)  # each dimension's first class
    b_lens, faces, _ = q.boundary
    u_lens, up_tau, up_delta = q.upper
    # each dimension's first boundary and upper entry
    b_first = np.concatenate([[0], np.cumsum(b_lens)])[first]
    u_first = np.concatenate([[0], np.cumsum(u_lens)])[first]
    out = []
    for p in range(c.max_dim + 1):
        a, b = first[p], first[p + 1]
        # empty at p = 0
        boundary = _segments(b_lens[a:b], faces[b_first[p]:b_first[p + 1]] - first[p - 1])
        entries = slice(u_first[p], u_first[p + 1])
        tau = up_tau[entries] - first[p]
        delta = up_delta[entries] - first[p + 1]
        keys, pair_id = np.unique(_row_keys((tau, delta)), return_inverse=True)
        pairs = np.empty((2, keys.size), dtype=tau.dtype)
        pairs[:, pair_id] = tau, delta
        out.append(_Classes(q.rep[a:b] - c.dim_offsets[p], q.sizes[a:b], boundary,
                            _segments(u_lens[a:b], pair_id), tuple(pairs)))
    c._class_plan = tuple(out)
    return c._class_plan


def _check_max_dim(c: HigherOrderComplex, params: NetworkParams):
    if c.max_dim != params.max_dim:
        raise ValueError(
            f"params built for max_dim={params.max_dim}, complex has {c.max_dim}"
        )


def forward(
    c: HigherOrderComplex,
    feats: FeatureState,
    params: NetworkParams,
) -> np.ndarray:
    """Run the message-passing layers and read out one embedding vector.

    ``feats`` holds one finite ``(members, hidden_dim)`` block per
    dimension.  The layers run on one representative per stable
    reduced-rule class of ``c``, so the blocks must also be constant on
    those classes, as :func:`init_features` is.  A ``ValueError`` says
    which of these fails, and where.  The first call that runs a layer
    builds the stable coloring and caches it on ``c``.
    """
    d = params.hidden_dim
    _check_max_dim(c, params)
    if len(feats.values) != c.max_dim + 1:
        raise ValueError(
            f"expected {c.max_dim + 1} feature blocks, one per dimension, "
            f"got {len(feats.values)}"
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
        pooled = [block.sum(axis=0) for block in h]
        for p, total in enumerate(pooled):
            if not np.all(np.isfinite(total)):  # or a finite sum overflowed
                _check_finite(h[p], p)
        return _readout(c, pooled, params)
    classes, colors, first = _class_incidence(c), stable_colors(c), 0
    for p, cls in enumerate(classes):
        rows = h[p][cls.rep]
        # classes are numbered by their lowest member, so each dimension's
        # are contiguous and start after the lower dimensions' classes
        member_class = colors[c.dim_offsets[p]:c.dim_offsets[p + 1]] - first
        first += cls.rep.size
        if not np.array_equal(rows[member_class], h[p]):
            _check_finite(h[p], p)  # a NaN is unequal to itself
            raise ValueError(
                f"features at dimension {p} are not constant on the stable "
                "color classes"
            )
        _check_finite(rows, p)
        h[p] = rows
    return _propagate(c, classes, h, params)


def _check_finite(block: np.ndarray, p: int):
    if not np.all(np.isfinite(block)):
        raise ValueError(f"features at dimension {p} are not finite")


def embed(c: HigherOrderComplex, params: NetworkParams) -> np.ndarray:
    """``forward(c, init_features(c, params.hidden_dim), params)``, byte for
    byte, with no member-size feature array.

    The initial features are built per stable class from the cached class
    plan: each representative's boundary row is summed in entry order, as
    :func:`init_features` sums it, so they need no contract check.  A
    zero-layer call is that forward, which pools member-level features.
    """
    if params.layers == 0:
        return forward(c, init_features(c, params.hidden_dim), params)
    _check_max_dim(c, params)
    classes = _class_incidence(c)
    h = _boundary_sums(classes[0].rep.size,
                       (cls.boundary for cls in classes[1:]), params.hidden_dim)
    return _propagate(c, classes, h, params)


def _propagate(c: HigherOrderComplex, classes: tuple, h: list,
               params: NetworkParams) -> np.ndarray:
    """The layers on the class-level features ``h``, then the readout."""
    d = params.hidden_dim
    for t in range(params.layers):
        new_h = []
        for p, cls in enumerate(classes):
            k = cls.rep.size
            if k == 0:
                new_h.append(h[p])
                continue
            blocks = params.layer_weights[t][p]
            # no slices at p = 0, so the sums are zeros
            agg_b = _segment_sum(h[p - 1], cls.boundary)
            m_b = _elu(_dense(h[p] + agg_b, blocks["boundary"]))
            tau, delta = cls.pairs
            agg_u = np.zeros((k, d))
            if tau.size:
                # the dense layer on [neighbor, witness], split by weight rows
                # so no (pairs, 2d) array is built, and run once per pair
                w, b = blocks["message"]
                msgs = (h[p] @ w[:d])[tau]
                msgs += (h[p + 1] @ w[d:])[delta]
                msgs += b
                agg_u = _segment_sum(_elu(msgs), cls.upper)
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
