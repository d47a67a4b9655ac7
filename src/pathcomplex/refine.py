"""Color refinement over higher-order complexes.

One engine serves every lifting, vertex refinement included: ``wl1`` is the
engine on the 1-dimensional path complex, where every edge witnesses the
upper adjacency of its two endpoints.

The refinement signature of a member is its current color together with the
sorted color multiset of its boundary and the sorted (neighbor, witness)
color pairs of its upper adjacency; the ``full`` rule additionally mixes in
co-boundary colors and lower-adjacency pairs.

Colors are dense per-round ranks: a member's new color is the rank of its
signature among the distinct signatures of the same length, so colors lie
in ``[0, K)`` after every round and depend only on signature contents (the
canonical color refinement of Berkholz, Bonsma and Grohe).  A pair enters
the next signature as its exact code ``neighbor color * K + witness
color``; only where those codes could overflow the int64 sort keys is it
ranked among the round's distinct codes instead.  Two complexes
refined jointly share the ranks, so their stable histograms are directly
comparable; a complex refined alone gets an exact fingerprint from the
distinct signatures of every round.  Each round sorts every relation's
entries within their rows and ranks the rows of each length with one
``np.unique``, over flat arrays with no per-member Python work, and results
do not depend on thread count.

Each complex caches its stable reduced-rule coloring
(:func:`stable_colors`), which the network's class-level forward reads; any
reduced-rule engine run that reaches stability fills it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .complexes import HigherOrderComplex, lift_complex
from .graphs import SimpleGraph

__all__ = [
    "ColorHistogram",
    "refine_pair",
    "refinement_trace",
    "wl1_refine_pair",
    "distinguishes",
    "stable_fingerprint",
    "stable_colors",
    "PairPowerResult",
    "PowerOrderReport",
    "power_order_check",
]


@dataclass(frozen=True)
class ColorHistogram:
    """Stable color counts, all dimensions pooled."""

    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, ColorHistogram) and self.counts == other.counts

    def __hash__(self):
        return hash(frozenset(self.counts.items()))


def distinguishes(hist_a: ColorHistogram, hist_b: ColorHistogram) -> bool:
    """True iff the two stable histograms differ (per-color counts compared)."""
    return hist_a.counts != hist_b.counts


class _JointRefinement:
    """Refinement over the concatenated member sets of one or more complexes.

    Each round writes every member's signature as one int64 row in a static
    layout: its color, then per relation the entry count and the sorted entry
    values.  Rows of one length are contiguous, so a member's new color is
    the rank of its row among the distinct rows of its length, offset by the
    number of distinct rows of every shorter length.  ``digest`` absorbs the
    row layout and each round's distinct rows, which fix what every color
    names: a row's pair codes name the previous round's colors.  Only a
    round past the key bound of :func:`_pair_values` ranks its pairs, and
    then it records their tables too.
    """

    def __init__(self, complexes: Sequence[HigherOrderComplex], rule: str):
        kinds = [c.kind for c in complexes]
        for kind in kinds[1:]:
            if kind != kinds[0]:
                raise ValueError(f"complex kinds differ: {kinds[0]!r} vs {kind!r}")
        if rule not in ("reduced", "full"):
            raise ValueError(f"unknown refinement rule {rule!r}")
        self.complexes, self.rule = complexes, rule
        self.offsets = [0]
        for c in complexes:
            self.offsets.append(self.offsets[-1] + c.total)
        self.total = self.offsets[-1]
        relations = [
            self._concat_csr(complexes, "boundary_csr"),
            self._concat_triples(complexes, "upper_adjacency"),
        ]
        if rule == "full":
            relations.append(self._concat_csr(complexes, "coboundary_csr"))
            relations.append(self._concat_triples(complexes, "lower_adjacency"))
        self.digest = hashlib.blake2b(digest_size=16)
        self._build_layout(relations)
        self.colors = np.zeros(self.total, dtype=np.int64)
        self.k = 1 if self.total else 0  # number of distinct colors
        self.rounds = 0

    def _concat_csr(self, complexes, attr):
        srcs, dsts = [], []
        for off, c in zip(self.offsets, complexes):
            indptr, indices = getattr(c, attr)()
            lens = np.diff(indptr)
            srcs.append(np.repeat(np.arange(off, off + c.total, dtype=np.int64), lens))
            dsts.append(indices + off if off else indices)
        return _join(srcs), _join(dsts), None

    def _concat_triples(self, complexes, attr):
        parts = [[], [], []]
        for off, c in zip(self.offsets, complexes):
            for part, arr in zip(parts, getattr(c, attr)()):
                part.append(arr + off if off else arr)
        return tuple(_join(part) for part in parts)

    def _build_layout(self, relations):
        """Static row slots; ``relations`` are (src, ids, witness ids or None)
        with ``src`` ascending."""
        counts = [np.bincount(src, minlength=self.total) for src, _, _ in relations]
        length = 1 + len(relations) + sum(counts)
        order = np.argsort(length, kind="stable")
        starts = np.empty(self.total, dtype=np.int64)
        starts[order] = np.cumsum(length[order]) - length[order]
        self.flat = np.zeros(int(length.sum()), dtype=np.int64)
        self.own_pos = starts
        cursor = starts + 1
        self.relations = []
        for (src, ids, witness), cnt in zip(relations, counts):
            self.flat[cursor] = cnt  # static count prefix
            first = np.cumsum(cnt) - cnt  # each member's first entry
            positions = cursor[src] + 1 + np.arange(src.size) - first[src]
            self.relations.append((src, positions, ids, witness))
            cursor = cursor + 1 + cnt
        self.groups = []  # (members, flat start, flat end, row width)
        lo = m_lo = 0
        widths, sizes = np.unique(length, return_counts=True)
        _record(self.digest, np.concatenate([widths, sizes]))
        for width, size in zip(widths.tolist(), sizes.tolist()):
            self.groups.append((order[m_lo:m_lo + size], lo, lo + width * size, width))
            lo += width * size
            m_lo += size

    def step(self) -> int:
        """One refinement round; returns the number of distinct colors after it."""
        colors, flat = self.colors, self.flat
        flat[self.own_pos] = colors
        for src, positions, ids, witness in self.relations:
            values, width = colors[ids], self.k
            if witness is not None:
                values, width, pairs = _pair_values(
                    values, colors[witness], self.k, self.total
                )
                if pairs is not None:
                    _record(self.digest, pairs)
            # src ascending keeps each sorted key in its entry's row
            base = src * width
            flat[positions] = np.sort(base + values) - base
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

    def run(self, max_rounds: Optional[int]) -> int:
        """Refine to stability, or for at most ``max_rounds`` rounds; returns
        the rounds used.  A reduced-rule run that reaches stability caches
        each complex's slice of the coloring, its own stable partition since
        refinement is local, as that complex's :func:`stable_colors`."""
        if max_rounds is None:
            max_rounds = max(self.total, 1)
        while self.rounds < max_rounds:
            k = self.k
            if self.step() == k:
                if self.rule == "reduced":
                    for c, lo, hi in zip(self.complexes, self.offsets, self.offsets[1:]):
                        _keep_stable(c, self.colors[lo:hi], self.k)
                break
        return self.rounds

    def histogram(self, side: int) -> ColorHistogram:
        lo, hi = self.offsets[side], self.offsets[side + 1]
        values, counts = np.unique(self.colors[lo:hi], return_counts=True)
        return ColorHistogram({int(v): int(c) for v, c in zip(values, counts)})


# Bound on the sort keys ``src * width + value`` of a round.  An index array
# of 2**31 entries would need 16 GB, so the member count N, k <= N and every
# relation's entry count stay below 2**31; keys of plain colors (width k) and
# of ranked pairs (width at most the entry count) are then below 2**62, and
# pair codes (width k * k) are kept below it by :func:`_pair_values`.
_KEY_BOUND = 2**62


def _pair_values(colors, witness_colors, k, total):
    """Entry values of a witnessed relation: ``(values, width, pairs)``.

    Each (color, witness color) entry gets the exact code
    ``color * k + witness color``, below ``width = k * k``, while the
    largest sort key ``src * width + value < total * k * k`` stays below
    ``_KEY_BOUND``; ``pairs`` is then None, since the next round's distinct
    rows name the pairs.  Past the bound the value is the code's rank among
    the distinct codes, ``width`` their number and ``pairs`` their table,
    which the digest must record.  The branch depends only on ``total`` and
    ``k``, which the digest already holds, so equal fingerprint prefixes
    take equal branches.
    """
    codes = colors * k + witness_colors
    if total * k * k < _KEY_BOUND:
        return codes, k * k, None
    pairs, values = np.unique(codes, return_inverse=True)
    return values, pairs.size, pairs


def _join(parts):
    """One array from per-complex parts; a single part is used as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _record(digest, table):
    """Feed ``table`` to ``digest`` behind its length, so records delimit."""
    digest.update(np.int64(len(table)).tobytes())
    digest.update(table.tobytes())


def refine_pair(
    x: HigherOrderComplex,
    y: HigherOrderComplex,
    rule: str = "reduced",
    max_rounds: Optional[int] = None,
):
    """Jointly refine two complexes of the same kind until the partition is stable.

    Returns ``(histogram_x, histogram_y, rounds_used)``; the histograms share
    one round's color ranks so they can be compared directly.  A
    reduced-rule run that reaches stability fills both complexes'
    :func:`stable_colors` caches.
    """
    engine = _JointRefinement([x, y], rule)
    rounds = engine.run(max_rounds)
    return engine.histogram(0), engine.histogram(1), rounds


def refinement_trace(
    x: HigherOrderComplex,
    y: HigherOrderComplex,
    rounds: int,
    rule: str = "reduced",
):
    """Color arrays for rounds 0..rounds of a joint refinement.

    Each snapshot lists x's members first, then y's, in member-id order.
    """
    engine = _JointRefinement([x, y], rule)
    out = [engine.colors.copy()]
    for _ in range(rounds):
        engine.step()
        out.append(engine.colors.copy())
    return out


def stable_fingerprint(c: HigherOrderComplex, rule: str = "reduced") -> str:
    """Label-invariant stable-coloring fingerprint of a single complex.

    A 128-bit blake2b hex digest of every round's distinct signatures,
    which fix what each dense color names (with the pair tables of any
    round that ranks its pairs, see :func:`_pair_values`), and of the
    stable color counts.  It is exact: two complexes get equal fingerprints
    iff :func:`refine_pair` does not distinguish them.  Used to bucket
    graphs without pairwise runs.
    """
    engine = _JointRefinement([c], rule)
    engine.run(None)
    engine.digest.update(np.bincount(engine.colors, minlength=engine.k).tobytes())
    return engine.digest.hexdigest()


def stable_colors(c: HigherOrderComplex) -> np.ndarray:
    """Stable reduced-rule color class of every member, cached on the complex.

    Runs the engine on ``c`` alone if the cache is empty.  Any reduced-rule
    engine run that reaches stability fills it (:func:`refine_pair`,
    :func:`stable_fingerprint`, this function); classes are split by
    dimension and numbered in order of their lowest member id, so the array
    is the same whichever run filled it.  The array is shared and read-only.
    """
    if c._stable_colors is None:
        _JointRefinement([c], "reduced").run(None)
    return c._stable_colors


def _keep_stable(c: HigherOrderComplex, colors: np.ndarray, k: int) -> None:
    """Cache ``colors`` (below ``k``), a stable reduced-rule coloring of
    ``c``'s members, in the canonical numbering of :func:`stable_colors`.

    Runs in threads may fill one complex at once; the numbering makes every
    fill store an equal array, so which write lands does not matter.
    """
    if c._stable_colors is not None:
        return
    dims = np.repeat(np.arange(c.max_dim + 1, dtype=np.int64), c.counts())
    # keyed by dimension too, so no class spans two dimensions
    _, first, inverse = np.unique(dims * k + colors, return_index=True,
                                  return_inverse=True)
    colors = np.argsort(np.argsort(first))[inverse]  # rank of the lowest member
    colors.flags.writeable = False
    c._stable_colors = colors


# ---------------------------------------------------------------------------
# vertex refinement (the classical baseline)
# ---------------------------------------------------------------------------

# Dimension of the path complex on which the engine performs 1-WL.
WL1_DIM = 1


def wl1_refine_pair(g1: SimpleGraph, g2: SimpleGraph):
    """Vertex color refinement: :func:`refine_pair` on 1-dimensional path lifts.

    The histograms pool vertex and edge colors, and ``rounds`` counts engine
    rounds; the verdict is that of classical vertex refinement.
    """
    return refine_pair(
        lift_complex(g1, "path", WL1_DIM), lift_complex(g2, "path", WL1_DIM)
    )


# ---------------------------------------------------------------------------
# expressivity-ordering check
# ---------------------------------------------------------------------------


@dataclass
class PairPowerResult:
    """Distinguishability verdicts of the four tests on one graph pair."""

    wl1: bool
    swl: bool
    cwl: bool
    pwl: bool
    violations: tuple


@dataclass
class PowerOrderReport:
    pwl_dim: int
    clique_dim: int
    max_ring: int
    results: list = field(default_factory=list)

    @property
    def violations(self) -> list:
        out = []
        for i, r in enumerate(self.results):
            out.extend((i, v) for v in r.violations)
        return out

    def counts(self) -> dict:
        return {
            name: sum(getattr(r, name) for r in self.results)
            for name in ("wl1", "swl", "cwl", "pwl")
        }


def _separates(g1, g2, kind, param, boundary_mode) -> bool:
    x = lift_complex(g1, kind, param, boundary_mode=boundary_mode)
    y = lift_complex(g2, kind, param, boundary_mode=boundary_mode)
    return distinguishes(*refine_pair(x, y)[:2])


def power_order_check(
    corpus,
    pwl_dim: int = 3,
    clique_dim: int = 3,
    max_ring: int = 4,
    boundary_mode: str = "incidence",
) -> PowerOrderReport:
    """Run all four tests on each pair and flag expressivity-order violations.

    A violation is a pair separated by the vertex test but not by the path
    test, by the clique test but not the path test (when the path dimension
    covers the clique dimension), or by the ring test but not the path test
    (when the path dimension covers rings of the given maximum size).
    """
    report = PowerOrderReport(pwl_dim, clique_dim, max_ring)
    for g1, g2 in corpus:
        wl = distinguishes(*wl1_refine_pair(g1, g2)[:2])
        swl = _separates(g1, g2, "simplex", clique_dim, boundary_mode)
        cwl = _separates(g1, g2, "cell", max_ring, boundary_mode)
        pwl = _separates(g1, g2, "path", pwl_dim, boundary_mode)
        violations = []
        if wl and not pwl:
            violations.append("wl1-separates-but-pwl-does-not")
        if swl and not pwl and pwl_dim >= clique_dim:
            violations.append("swl-separates-but-pwl-does-not")
        if cwl and not pwl and pwl_dim >= max_ring - 1:
            violations.append("cwl-separates-but-pwl-does-not")
        report.results.append(PairPowerResult(wl, swl, cwl, pwl, tuple(violations)))
    return report
