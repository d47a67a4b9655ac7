"""Color refinement over higher-order complexes.

One engine serves every lifting, vertex refinement included: ``wl1`` is the
engine on the 1-dimensional path complex, where every edge witnesses the
upper adjacency of its two endpoints.

The refinement signature of a member is its current color together with the
sorted color multiset of its boundary and the sorted (neighbor, witness)
color pairs of its upper adjacency; the ``full`` rule additionally mixes in
co-boundary colors and lower-adjacency pairs.  Signatures are relabelled
through an injective dictionary shared by the two complexes under
comparison, so stable histograms are directly comparable.

The per-round work is vectorized: colors are gathered through flat index
arrays, sorted segment-wise with one lexsort per relation, scattered into a
static per-member layout, and the relabelling walks the members once in id
order, which keeps results independent of thread count.
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


class _Relation:
    """One incidence relation of the joined member set, with a static layout.

    ``positions[k]`` is the slot in the flat signature buffer that receives
    the k-th entry after the per-member value sort of a round; pair relations
    occupy two adjacent slots per entry.
    """

    __slots__ = ("src", "values_idx", "pair_idx", "positions")

    def __init__(self, src, values_idx, pair_idx):
        self.src = src
        self.values_idx = values_idx  # member ids whose color is gathered
        self.pair_idx = pair_idx  # witness ids for (color, color) pairs, or None
        self.positions = None

    @property
    def width(self) -> int:
        return 1 if self.pair_idx is None else 2


class _JointRefinement:
    """Shared-dictionary refinement over the concatenated member sets."""

    def __init__(self, complexes: Sequence[HigherOrderComplex], rule: str):
        if rule not in ("reduced", "full"):
            raise ValueError(f"unknown refinement rule {rule!r}")
        self.rule = rule
        self.offsets = [0]
        for c in complexes:
            self.offsets.append(self.offsets[-1] + c.total)
        self.total = self.offsets[-1]
        relations = []
        relations.append(self._concat_csr(complexes, "boundary_csr"))
        relations.append(self._concat_triples(complexes, "upper_adjacency"))
        if rule == "full":
            relations.append(self._concat_csr(complexes, "coboundary_csr"))
            relations.append(self._concat_triples(complexes, "lower_adjacency"))
        self.relations = relations
        self._build_layout()
        self.colors = np.zeros(self.total, dtype=np.int64)
        self.next_color = 1
        self.dictionary = {}
        self.rounds = 0

    def _concat_csr(self, complexes, attr) -> _Relation:
        srcs, dsts = [], []
        for off, c in zip(self.offsets, complexes):
            indptr, indices = getattr(c, attr)()
            lens = np.diff(indptr)
            srcs.append(np.repeat(np.arange(c.total, dtype=np.int64), lens) + off)
            dsts.append(indices + off)
        src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
        dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
        return _Relation(src, dst, None)

    def _concat_triples(self, complexes, attr) -> _Relation:
        srcs, taus, deltas = [], [], []
        for off, c in zip(self.offsets, complexes):
            s, t, d = getattr(c, attr)()
            srcs.append(s + off)
            taus.append(t + off)
            deltas.append(d + off)
        src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
        tau = np.concatenate(taus) if taus else np.zeros(0, dtype=np.int64)
        delta = np.concatenate(deltas) if deltas else np.zeros(0, dtype=np.int64)
        return _Relation(src, tau, delta)

    def _build_layout(self):
        total = self.total
        # per-member slots: 1 (own color) + per relation (1 count + entries)
        length = np.ones(total, dtype=np.int64)
        rel_counts = []
        for rel in self.relations:
            cnt = np.bincount(rel.src, minlength=total).astype(np.int64)
            rel_counts.append(cnt)
            length += 1 + cnt * rel.width
        starts = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(length, out=starts[1:])
        self.byte_starts = (starts[:-1] * 8).tolist()
        self.byte_ends = (starts[1:] * 8).tolist()
        flat = np.zeros(starts[-1], dtype=np.int64)
        self.own_pos = starts[:-1]
        cursor = starts[:-1] + 1
        for rel, cnt in zip(self.relations, rel_counts):
            flat[cursor] = cnt  # static count prefix
            data_start = cursor + 1
            if rel.src.size:
                # entries are grouped by src already (sorted at build time)
                block = np.repeat(data_start, cnt)
                intra = np.arange(rel.src.size, dtype=np.int64)
                seg_first = np.repeat(np.cumsum(cnt) - cnt, cnt)
                rel.positions = block + (intra - seg_first) * rel.width
            else:
                rel.positions = np.zeros(0, dtype=np.int64)
            cursor = data_start + cnt * rel.width
        self.flat = flat

    def _fill_signatures(self):
        colors = self.colors
        flat = self.flat
        flat[self.own_pos] = colors
        for rel in self.relations:
            if rel.pair_idx is None:
                vals = colors[rel.values_idx]
                order = np.lexsort((vals, rel.src))
                flat[rel.positions] = vals[order]
            else:
                tv = colors[rel.values_idx]
                dv = colors[rel.pair_idx]
                order = np.lexsort((dv, tv, rel.src))
                flat[rel.positions] = tv[order]
                flat[rel.positions + 1] = dv[order]
        return flat.tobytes()

    def step(self) -> int:
        """One refinement round; returns the number of distinct colors after it."""
        buf = self._fill_signatures()
        new_colors = np.empty(self.total, dtype=np.int64)
        dictionary = self.dictionary
        nxt = self.next_color
        for i in range(self.total):
            key = buf[self.byte_starts[i]:self.byte_ends[i]]
            c = dictionary.get(key)
            if c is None:
                c = nxt
                dictionary[key] = c
                nxt += 1
            new_colors[i] = c
        self.next_color = nxt
        self.colors = new_colors
        self.rounds += 1
        return len(np.unique(new_colors))

    def step_hashed(self) -> int:
        """One round with content-determined colors (64-bit signature digests).

        Digest colors make separately refined complexes comparable, at the
        price of exact injectivity; collisions only merge classes.
        """
        buf = self._fill_signatures()
        new_colors = np.empty(self.total, dtype=np.int64)
        for i in range(self.total):
            digest = hashlib.blake2b(
                buf[self.byte_starts[i]:self.byte_ends[i]], digest_size=8
            ).digest()
            new_colors[i] = int.from_bytes(digest, "big") >> 1
        self.colors = new_colors
        self.rounds += 1
        return len(np.unique(new_colors))

    def run(self, max_rounds: Optional[int]) -> int:
        if max_rounds is None:
            max_rounds = max(self.total, 1)
        distinct = len(np.unique(self.colors)) if self.total else 0
        while self.rounds < max_rounds:
            new_distinct = self.step()
            if new_distinct == distinct:
                break
            distinct = new_distinct
        return self.rounds

    def histogram(self, side: int) -> ColorHistogram:
        lo, hi = self.offsets[side], self.offsets[side + 1]
        segment = self.colors[lo:hi]
        if segment.size == 0:
            return ColorHistogram({})
        values, counts = np.unique(segment, return_counts=True)
        return ColorHistogram({int(v): int(c) for v, c in zip(values, counts)})


def refine_pair(
    x: HigherOrderComplex,
    y: HigherOrderComplex,
    rule: str = "reduced",
    max_rounds: Optional[int] = None,
):
    """Jointly refine two complexes of the same kind until the partition is stable.

    Returns ``(histogram_x, histogram_y, rounds_used)``; the histograms share
    one color dictionary so they can be compared directly.
    """
    if x.kind != y.kind:
        raise ValueError(f"complex kinds differ: {x.kind!r} vs {y.kind!r}")
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
    if x.kind != y.kind:
        raise ValueError(f"complex kinds differ: {x.kind!r} vs {y.kind!r}")
    engine = _JointRefinement([x, y], rule)
    out = [engine.colors.copy()]
    for _ in range(rounds):
        engine.step()
        out.append(engine.colors.copy())
    return out


def stable_fingerprint(c: HigherOrderComplex, rule: str = "reduced"):
    """Label-invariant stable-coloring fingerprint of a single complex.

    Colors are content-determined signature digests rather than dictionary
    ids, so fingerprints of separately refined complexes are comparable:
    isomorphic complexes always match, and distinct fingerprints prove
    non-isomorphism.  Equal fingerprints are inconclusive (a digest collision
    can only merge classes).  Used to bucket graphs without pairwise runs;
    the pairwise test of record stays :func:`refine_pair`.
    """
    if c.total == 0:
        return ()
    engine = _JointRefinement([c], rule)
    distinct = 1
    for _ in range(max(c.total, 1)):
        new_distinct = engine.step_hashed()
        if new_distinct == distinct:
            break
        distinct = new_distinct
    hist = engine.histogram(0)
    return tuple(sorted(hist.counts.items()))


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
