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
entries within their rows and ranks the rows of each length, over flat
arrays with no per-member Python work, and results do not depend on thread
count.  A large group of rows is ranked by a hash: rows of one hash form a
class, every row is checked against its class's representative, and only
the distinct representatives are sorted, so the ranks stay the byte order
of the rows that a sort of every row gives.

The engine reads every relation in place from each complex's cached,
read-only index (boundary and co-boundary CSR, upper and lower triples),
indexing that complex's slice of the joint coloring, so it owns only the
signature rows and one slot per entry.  One reader, :func:`_relation`,
gives every relation, to the engine and to the class quotient.  Lifts keep
no pair triples, so unless a caller cached them through
``upper_adjacency`` or ``lower_adjacency``, a run over members generates a
complex's upper and lower triples for itself and drops them when it ends.
A round sorts a relation's entries within their rows by the key ``row *
width + value``, int32 while a complex's keys fit it, and takes each value
back by subtracting its row's ``row * width``.  Every round rebuilds every
row and ranks it, except that a round from one color writes no entries:
every value is 0, which the rows hold already.  Past the key bound of
:func:`_codes_fit` that round writes them too, since it records the pair
table of every entry.

Each complex caches its stable reduced-rule coloring
(:func:`stable_colors`), which the network's class-level forward reads; any
reduced-rule engine run over members that reaches stability fills it.
Once both complexes of a :func:`refine_pair` hold it, the engine refines
their class quotients (:func:`_quotient`), one row per stable class,
instead of their members.  A stable coloring is equitable and finer than
every round's, so the class rows are the member rows with the duplicates
dropped, and the colors, counted by class size, and rounds are the
member-level run's (compare Grohe et al., "Dimension reduction via colour
refinement"); the key bound reads the member total, so even the color ids
agree.  The full rule takes the quotient only when every member of
dimension >= 1 of both complexes has at least two faces: then the reduced
stable coloring is equitable for the co-boundary and lower relations too
(:func:`_two_faces`).  A quotient holds each relation in the form the
engine reads, entries per class, ids and witness ids, each class's entries
its lowest member's remapped to class ids.  It is built once per complex
by the same reader, which generates the pair rows from the CSRs for the
representatives alone unless triples are cached, its co-boundary and
lower rows on the first full-rule pair, and cached beside the coloring;
the network's class plan cuts its rows by dimension.
Cold pairs, traces and fingerprints refine members.

Only :func:`stable_fingerprint` reads a digest, so only its engine run
feeds one; :func:`refine_pair`, :func:`refinement_trace` and
:func:`stable_colors` hash nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .complexes import (
    HigherOrderComplex,
    _pair_triples,
    _ranges,
    _read_only,
    lift_complex,
)
from .graphs import SimpleGraph, check_integer

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


class _Entries(NamedTuple):
    """One complex's entries of one relation, read in place from its index.

    The complex's members are ``lo:hi`` of the joint coloring, and its
    members own ``lens`` entries each, in ascending member order, so a
    member's entries are one contiguous run.  Entry ``e`` reads the
    complex's member ``ids[e]``, and with it the witness ``witness[e]`` for
    a pair relation; its sorted value goes to ``flat[positions[e]]``, and the
    run's sorted values fill the member's slots in order.  ``ids`` and
    ``witness`` are the complex's own cached arrays, or pair triples
    generated for this run alone (:func:`_relation`), which the engine never
    writes.
    """

    lo: int
    hi: int
    lens: np.ndarray
    ids: np.ndarray
    witness: Optional[np.ndarray]
    positions: np.ndarray


class _JointRefinement:
    """Refinement of one or more complexes side by side, over a joint coloring.

    Each complex's members form one slice ``lo:hi`` of the coloring, and each
    relation is read in place from the complex's cached index, so the engine
    owns only the signature rows, their slots and each entry's slot.

    Each round writes every member's signature as one int64 row in a static
    layout: its color, then per relation the entry count and the sorted entry
    values.  Rows of one length are contiguous, so a member's new color is
    the rank of its row among the distinct rows of its length, in their byte
    order (:func:`_rank_rows`), offset by the number of distinct rows of
    every shorter length.  ``digest`` absorbs the row layout and each
    round's distinct rows, which fix what every color names: a row's pair
    codes name the previous round's colors.  Only a round past the key bound
    of :func:`_codes_fit` ranks its pairs (:func:`_pair_values`), and then
    it records their tables too.  With ``digest=False`` the engine hashes
    nothing and ``digest`` is None; only :func:`stable_fingerprint` reads a
    digest.

    Every round rebuilds every entry, except that a round from one color
    below the key bound writes none, since the rows hold every value at 0
    already; ``rebuilt`` lists how many entries each round rebuilt.

    The parts may instead be class quotients (:class:`_Quotient`), each
    class a member of its own; ``members``, the member total of their
    complexes, then decides the key bound, as it does for the complexes.
    """

    def __init__(self, complexes: Sequence[HigherOrderComplex], rule: str,
                 members: Optional[int] = None, digest: bool = True):
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
        self.members = self.total if members is None else members
        names = ["boundary", "upper"]
        if rule == "full":
            names += ["coboundary", "lower"]
        self.digest = hashlib.blake2b(digest_size=16) if digest else None
        self._build_layout([[_relation(c, name) for c in complexes] for name in names])
        self.colors = np.zeros(self.total, dtype=np.int64)
        self.k = 1 if self.total else 0  # number of distinct colors
        self.rounds = 0
        self.rebuilt = []  # entries rebuilt, one count per round

    def _build_layout(self, relations):
        """Static row slots; ``relations`` hold one (lens, ids, witness ids
        or None) per complex, from :func:`_relation`."""
        counts = [np.concatenate([lens for lens, _, _ in parts]) for parts in relations]
        length = 1 + len(relations) + sum(counts)
        order = np.argsort(length, kind="stable")
        starts = np.empty(self.total, dtype=np.int64)
        starts[order] = np.cumsum(length[order]) - length[order]
        self.flat = np.zeros(int(length.sum()), dtype=np.int64)
        self.own_pos = starts
        cursor = starts + 1
        self.relations = []  # per relation, one _Entries per complex
        for parts, cnt in zip(relations, counts):
            self.flat[cursor] = cnt  # static count prefix
            entries = []
            for (lens, ids, witness), lo, hi in zip(parts, self.offsets, self.offsets[1:]):
                # a member's first entry goes to the slot after its count
                positions = np.repeat(cursor[lo:hi] + 1 - (np.cumsum(lens) - lens), lens)
                positions += np.arange(positions.size)
                entries.append(_Entries(lo, hi, lens, ids, witness, positions))
            self.relations.append(entries)
            cursor = cursor + 1 + cnt
        self.groups = []  # (members, flat start, flat end, row width)
        lo = m_lo = 0
        widths, sizes = np.unique(length, return_counts=True)
        if self.digest is not None:
            _record(self.digest, np.concatenate([widths, sizes]))
        for width, size in zip(widths.tolist(), sizes.tolist()):
            self.groups.append((order[m_lo:m_lo + size], lo, lo + width * size, width))
            lo += width * size
            m_lo += size

    def step(self) -> int:
        """One refinement round; returns the number of distinct colors after it."""
        colors, flat, k = self.colors, self.flat, self.k
        flat[self.own_pos] = colors
        fits = _codes_fit(k, self.members)
        rebuilt = 0
        # a round from one color reads every value as 0, which the entry
        # slots hold already, unless it must record its pair tables
        if k > 1 or not fits:
            for parts in self.relations:
                width, ranked = k, None
                if parts[0].witness is not None:
                    width = k * k
                    if not fits:
                        width, ranked = self._rank_pairs(parts)
                for i, e in enumerate(parts):
                    rebuilt += self._fill(e, width, k, None if ranked is None else ranked[i])
        new_colors = np.empty(self.total, dtype=np.int64)
        k = 0
        for members, lo, hi, width in self.groups:
            distinct, inverse = _rank_rows(flat[lo:hi], width)
            new_colors[members] = k + inverse
            k += distinct.size
            if self.digest is not None:
                _record(self.digest, distinct)
        self.colors, self.k = new_colors, k
        self.rebuilt.append(rebuilt)
        self.rounds += 1
        return k

    def _fill(self, e, width, k, ranked):
        """Write the sorted entry values of complex part ``e``'s members to
        ``flat``; returns how many entries it wrote.  ``ranked`` holds every
        entry's ranked pair value past the key bound, else None."""
        if not e.ids.size:
            return 0
        # live at once: the sort keys and one gather (np.take would buffer,
        # and copy the read-only indexes)
        dtype = _key_dtype(e.hi - e.lo, width)
        key = _row_bases(e.lens, width, dtype)
        if ranked is not None:
            key += ranked
        else:
            own = self.colors[e.lo:e.hi].astype(dtype)
            if e.witness is not None:  # the pair code
                key += own[e.witness]
                own *= k
            key += own[e.ids]
        # a row's keys lie in [row * width, (row + 1) * width), so each
        # sorted key stays in its own row
        key.sort()
        key -= _row_bases(e.lens, width, dtype)
        self.flat[e.positions] = key
        return key.size

    def _rank_pairs(self, parts):
        """Past the key bound: the ranks of every complex's pair codes among
        the relation's distinct codes, as ``(width, ranks per complex)``;
        the digest, if any, records the table once per relation."""
        colors = self.colors
        values, width, pairs = _pair_values(
            np.concatenate([colors[e.lo:e.hi][e.ids] for e in parts]),
            np.concatenate([colors[e.lo:e.hi][e.witness] for e in parts]),
            self.k,
        )
        if self.digest is not None:
            _record(self.digest, pairs)
        return width, np.split(values, np.cumsum([e.ids.size for e in parts[:-1]]))

    def run(self, max_rounds: Optional[int]) -> int:
        """Refine to stability, or for at most ``max_rounds`` rounds; returns
        the rounds used.  A reduced-rule run that reaches stability caches
        each complex's slice of the coloring, its own stable partition since
        refinement is local, as that complex's :func:`stable_colors`; a
        quotient's complex holds it already."""
        if max_rounds is None:
            max_rounds = max(self.total, 1)
        while self.rounds < max_rounds:
            k = self.k
            if self.step() == k:
                if self.rule == "reduced":
                    for c, lo, hi in zip(self.complexes, self.offsets, self.offsets[1:]):
                        if isinstance(c, HigherOrderComplex):
                            _keep_stable(c, self.colors[lo:hi], self.k)
                break
        return self.rounds

    def histogram(self, side: int, sizes: Optional[np.ndarray] = None) -> ColorHistogram:
        """Color counts of part ``side``, each of its members counted
        ``sizes`` times (a quotient's class sizes) if given, else once."""
        counts = np.bincount(self.colors[self.offsets[side]:self.offsets[side + 1]],
                             weights=sizes).astype(np.int64)
        values = np.flatnonzero(counts)
        return ColorHistogram(dict(zip(values.tolist(), counts[values].tolist())))


def _relation(c, name: str, colors=None, rep=None):
    """Relation ``name`` of ``c`` as (entries per row, ids, witness ids or
    None): one row per member, read in place, or with ``rep`` one row per
    class ``i``, the entries of its representative ``rep[i]`` remapped by
    ``colors``; a quotient's rows as they are.  A member's entries come
    from its CSR row or its run of the pair triples, whose sources ascend.
    Pair triples that no caller cached through ``upper_adjacency`` or
    ``lower_adjacency`` are generated for this call only, for ``rep``
    alone if given."""
    if isinstance(c, _Quotient):
        return getattr(c, name)
    csr = c.boundary_csr() if name in ("boundary", "upper") else c.coboundary_csr()
    if name in ("boundary", "coboundary"):
        indptr, ids = csr
        if rep is None:
            return np.diff(indptr), ids, None
        return _class_rows(colors, indptr[rep], indptr[rep + 1], ids)
    triples = c._upper_flat if name == "upper" else c._lower_flat
    if triples is not None:
        src, ids, witness = triples
    else:
        src, ids, witness = _pair_triples(*csr, rep)
        if rep is not None:  # the runs of rep[0], rep[1], ... fill them in order
            return _read_only(np.bincount(colors[src], minlength=rep.size),
                              colors[ids], colors[witness])
    if rep is None:
        return np.bincount(src, minlength=c.total), ids, witness
    return _class_rows(colors, np.searchsorted(src, rep, "left"),
                       np.searchsorted(src, rep, "right"), ids, witness)


# Bound on the sort keys ``src * width + value`` of a round.  An index array
# of 2**31 entries would need 16 GB, so the member count N, k <= N and every
# relation's entry count stay below 2**31; keys of plain colors (width k) and
# of ranked pairs (width at most the entry count) are then below 2**62, and
# pair codes (width k * k) are kept below it by :func:`_codes_fit`.
_KEY_BOUND = 2**62

# Bound on a complex's sort keys ``row * width + value``, which lie below its
# ``members * width``, for sorting them as int32: 400,000 keys took 1.4 ms
# to sort as int32 and 3.0 ms as int64.
_INT32_KEYS = 2**31


def _key_dtype(members, width):
    """The dtype of the sort keys of a complex of ``members`` members whose
    entry values lie below ``width``."""
    return np.int32 if members * width < _INT32_KEYS else np.int64


def _row_bases(lens, width, dtype):
    """A fresh array of each entry's row times ``width``, for rows of
    ``lens`` entries."""
    return np.repeat(np.arange(lens.size, dtype=dtype) * width, lens)


def _codes_fit(k, total):
    """True while pair codes keep the largest sort key of ``total`` joint
    members, ``src * k * k + code < total * k * k``, below ``_KEY_BOUND``.

    The branch depends only on ``total`` and ``k``, which the digest already
    holds, so equal fingerprint prefixes take equal branches.  A run on
    class quotients passes its complexes' member total, so it takes the
    branch, and with it the color ids, of the member-level run.
    """
    return total * k * k < _KEY_BOUND


def _pair_values(colors, witness_colors, k):
    """Ranked entry values of a witnessed relation: ``(values, width, pairs)``.

    Each (color, witness color) entry's value is the rank of its code
    ``color * k + witness color`` among the relation's distinct codes,
    ``width`` their number and ``pairs`` their table, which the digest must
    record.  Below the key bound (:func:`_codes_fit`) the engine writes the
    codes themselves in place; past it, it calls this with every complex's
    entries.
    """
    pairs, values = np.unique(colors * k + witness_colors, return_inverse=True)
    return values, pairs.size, pairs


# Groups of fewer rows are ranked by the void sort alone (:func:`_rank_rows`).
# Ranked both ways group by group, the groups of lifted G(20, 0.3) graphs
# (perfbench's er-pairs inputs), where most rows are distinct, took 8-27 %
# longer hashed at 512-1023 rows and as long from 1024 rows on; groups of
# SRG path complexes took 0.3-0.7 times as long hashed from 64 rows on.
_HASHED_ROWS = 1024


def _splitmix64(n):
    """The first ``n`` outputs of the splitmix64 generator seeded with 0."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# Odd multipliers of the row hash; a row of ``width`` values hashes to its
# dot product with the first ``width`` of them, modulo 2**64.  Wider rows are
# ranked by the void sort alone.  They come from splitmix64, not
# ``np.random``, so importing the package does not load numpy's random module.
_MULTIPLIERS = _splitmix64(4096) | np.uint64(1)
_MULTIPLIERS.flags.writeable = False


def _rank_rows(flat, width):
    """The distinct rows of ``flat``, read as rows of ``width`` int64
    values, in the byte order of a void sort, and each row's rank among
    them: exactly ``np.unique`` of the rows' void view with its inverse.

    A group of at least ``_HASHED_ROWS`` rows is hashed first.  Rows of one
    hash form a candidate class, and every row is compared with its class's
    representative, so the classes are exact; only the representatives are
    then sorted.  A collision between distinct rows sends the group to the
    void sort.
    """
    void = np.dtype((np.void, 8 * width))
    if flat.size >= _HASHED_ROWS * width and width <= _MULTIPLIERS.size:
        rows = flat.reshape(-1, width)
        hashes, classes = np.unique(rows.view(np.uint64) @ _MULTIPLIERS[:width],
                                    return_inverse=True)
        rep = np.empty(hashes.size, dtype=np.intp)  # some row of each class
        rep[classes] = np.arange(classes.size)
        reps = rows[rep]
        check = reps[classes]  # the one group-sized temporary
        check -= rows
        if not check.any():
            distinct, ranks = np.unique(reps.ravel().view(void), return_inverse=True)
            return distinct, ranks[classes]
    return np.unique(flat.view(void), return_inverse=True)


def _record(digest, table):
    """Feed ``table`` to ``digest`` behind its length, so records delimit."""
    digest.update(np.int64(len(table)).tobytes())
    digest.update(table.tobytes())


def _check_rounds(name, rounds):
    check_integer(name, rounds)
    if rounds < 0:
        raise ValueError(f"{name} must be non-negative, got {rounds}")


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
    :func:`stable_colors` caches.  A ``max_rounds`` that is not an integer
    (a bool or a float included) raises ``TypeError``, a negative one
    ``ValueError``.  The run feeds no digest.

    Once both complexes hold their stable colors, the run refines their
    class quotients (:func:`_quotient`) instead of their members, and each
    class counts its members in the histograms.  Every round's partition of
    a complex is coarser than its stable one, whose classes are equitable
    (each member of a class reads the same multiset of classes), so each
    class's row equals each of its members' rows and gets the same color
    id, round for round (Grohe et al., "Dimension reduction via colour
    refinement").  The full rule does so only where :func:`_two_faces`
    holds for both complexes.  Any other call refines the members, and that
    run is what fills the caches.
    """
    if max_rounds is not None:
        _check_rounds("max_rounds", max_rounds)
    if (x._stable_colors is not None and y._stable_colors is not None and (
            rule == "reduced" or rule == "full" and _two_faces(x) and _two_faces(y))):
        qx, qy = _quotient(x, rule), _quotient(y, rule)
        engine = _JointRefinement([qx, qy], rule, members=x.total + y.total,
                                  digest=False)
        rounds = engine.run(max_rounds)
        return engine.histogram(0, qx.sizes), engine.histogram(1, qy.sizes), rounds
    engine = _JointRefinement([x, y], rule, digest=False)
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
    A ``rounds`` that is not an integer (a bool included) raises
    ``TypeError``, a negative one ``ValueError``.  The run feeds no digest.
    """
    _check_rounds("rounds", rounds)
    engine = _JointRefinement([x, y], rule, digest=False)
    out = [engine.colors.copy()]
    for _ in range(rounds):
        engine.step()
        out.append(engine.colors.copy())
    return out


def stable_fingerprint(c: HigherOrderComplex, rule: str = "reduced") -> str:
    """Label-invariant stable-coloring fingerprint of a single complex.

    A 128-bit blake2b hex digest of every round's distinct signatures,
    which fix what each dense color names (with the pair tables of any
    round past the key bound of :func:`_codes_fit`, which ranks its pairs),
    and of the stable color counts.  It is exact: two complexes get equal
    fingerprints iff :func:`refine_pair` does not distinguish them.  Used to
    bucket graphs without pairwise runs.
    """
    engine = _JointRefinement([c], rule)
    engine.run(None)
    engine.digest.update(np.bincount(engine.colors, minlength=engine.k).tobytes())
    return engine.digest.hexdigest()


def stable_colors(c: HigherOrderComplex) -> np.ndarray:
    """Stable reduced-rule color class of every member, cached on the complex.

    Runs the engine on ``c`` alone if the cache is empty.  Any reduced-rule
    engine run over members that reaches stability fills it
    (:func:`refine_pair`, :func:`stable_fingerprint`, this function);
    classes are split by dimension and numbered in order of their lowest
    member id, so the array is the same whichever run filled it.  The array
    is shared and read-only.  Once two complexes hold it, a
    :func:`refine_pair` of them refines their class quotients (under the
    full rule only where :func:`_two_faces` holds), and the network's class
    plan reads the same quotient.  The run feeds no digest.
    """
    if c._stable_colors is None:
        _JointRefinement([c], "reduced", digest=False).run(None)
    return c._stable_colors


class _Quotient(NamedTuple):
    """A complex's stable classes, read by the engine as the members of a
    complex of their own.

    Class ``i`` stands for its lowest member ``rep[i]``, and ``sizes[i]``
    counts its members.  Each relation is held as the engine reads it,
    ``(entries per class, ids, witness ids or None)``: class ``i``'s
    entries are those of ``rep[i]``, in member entry order (pairs sorted by
    neighbor, then witness, as the triples hold them), with every member id
    replaced by its class (:func:`_relation`).  Only the first full-rule
    :func:`_quotient` call fills ``coboundary`` and ``lower``.
    Classes never span two dimensions and ascend with their
    representatives, so each dimension's classes and entries are
    contiguous.
    """

    kind: str
    rep: np.ndarray
    sizes: np.ndarray
    boundary: tuple  # (faces per class, face classes, None)
    upper: tuple  # (pairs per class, neighbor classes, witness classes)
    coboundary: Optional[tuple] = None  # (co-faces per class, co-face classes, None)
    lower: Optional[tuple] = None  # (pairs per class, neighbor classes, face classes)

    @property
    def total(self) -> int:
        return self.rep.size


def _quotient(c: HigherOrderComplex, rule: str = "reduced") -> _Quotient:
    """The :class:`_Quotient` of ``c``'s :func:`stable_colors`, read-only and
    cached on ``c``: its boundary and upper rows on first use, its
    co-boundary and lower rows on the first ``"full"`` call.

    Every relation is read by :func:`_relation` for the representatives,
    so pair rows come from cached triples or are generated from the CSRs
    for the representatives alone.  The engine reads the co-boundary and
    lower rows only where :func:`_two_faces` holds.  The content is
    deterministic, so which of two concurrent fills lands does not matter.
    """
    q, colors = c._quotient, stable_colors(c)
    if q is None:
        _, rep, sizes = np.unique(colors, return_index=True, return_counts=True)
        q = c._quotient = _Quotient(
            c.kind, *_read_only(rep, sizes),
            *(_relation(c, name, colors, rep) for name in ("boundary", "upper")))
    if rule == "full" and q.lower is None:
        q = c._quotient = q._replace(**{name: _relation(c, name, colors, q.rep)
                                        for name in ("coboundary", "lower")})
    return q


def _class_rows(colors, starts, ends, ids, witness=None) -> tuple:
    """One read-only quotient relation: class ``i`` holds the entries
    ``starts[i]:ends[i]`` of ``ids`` and ``witness``, remapped by
    ``colors``."""
    pos = _ranges(starts, ends)[1]
    if witness is None:
        return (*_read_only(ends - starts, colors[ids[pos]]), None)
    return _read_only(ends - starts, colors[ids[pos]], colors[witness[pos]])


def _two_faces(c: HigherOrderComplex) -> bool:
    """True iff every member of dimension >= 1 of ``c`` has at least two
    faces, read from its boundary CSR row lengths.

    Then the stable reduced-rule classes are equitable for the co-boundary
    and lower relations too, so the full rule may refine the quotient.  A
    member s reads ``|cob(s) & Y| * (b_Y - 1)`` upper pairs witnessed in
    class ``Y``, whose members have ``b_Y >= 2`` faces each, so its
    co-faces per class follow from its class.  It reads ``|faces(s) & F| *
    (|cob(f) & T| - [s in T])`` lower pairs through faces ``f`` of class
    ``F`` with neighbors in class ``T``, which then follow from it too.  The
    reduced stable partition is thus the full rule's, and the argument of
    :func:`refine_pair` carries over.
    """
    indptr = c.boundary_csr()[0][c.dim_offsets[1]:]
    return bool((np.diff(indptr) >= 2).all())


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
    rank = np.empty_like(first)  # classes ranked by their lowest member
    rank[np.argsort(first)] = np.arange(first.size)
    colors = rank[inverse]
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
