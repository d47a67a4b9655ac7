"""Lifting simple graphs to higher-order complexes.

Three lifting transformations share one container type:

* ``path``    -- members at dimension p are the canonically oriented simple
  paths on p+1 vertices; boundaries are the one-vertex deletions that remain
  walks (ends always, interiors when the skip edge exists).
* ``simplex`` -- members at dimension p are the (p+1)-cliques; boundaries are
  the facets.
* ``cell``    -- dimensions 0/1 are vertices/edges and dimension 2 holds the
  chordless cycles up to a maximum ring size; the boundary of a ring is its
  edge set.

``lift_complex`` picks the lifting by kind name; callers that choose a
lifting at run time go through it.

Member ids are global and dimension-major; within a dimension members are
listed in lexicographic carrier order, which makes every derived structure
reproducible across runs.

A complex stores one int64 carrier array per dimension (a row per member;
ring cells shorter than the widest are padded with -1 at the end, which
sorts before every vertex and so keeps tuple order) and one boundary CSR.
Liftings enumerate carriers a dimension at a time in numpy: every row is
repeated once per neighbour of its last vertex and the neighbour appended,
which keeps the rows in lexicographic order.  Rings grow the same way, as
induced paths (the working set) until the new vertex closes a chordless
cycle.  Every bulk sort or lookup of rows goes through one lexicographic
row key, ``_row_keys``.  One array assembler serves all three kinds, and
the PCX reader: it builds each row's canonical faces as arrays and finds
their ids among the row keys of the dimension below.  The coboundary CSR
(a stable argsort of the boundary CSR) is derived from it on first use and
cached.  One generator, ``_pair_triples``, enumerates the ordered pairs
within the rows of a CSR, sorted by row key, for every source or for given
ones: the upper and lower adjacency triples are those of the two CSRs.
The package's own pipeline calls neither ``upper_adjacency`` nor
``lower_adjacency``, which cache them: a lift keeps no member-level pair
triples unless a caller asks for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import DEFAULT_MEMBER_CAP, CapacityError, SimpleGraph

__all__ = [
    "CapacityError",
    "SerializationError",
    "DEFAULT_MEMBER_CAP",
    "Member",
    "CyclicFamily",
    "HigherOrderComplex",
    "canonical_path",
    "canonical_ring",
    "lift_path_complex",
    "lift_clique_complex",
    "lift_ring_complex",
    "LIFT_PARAMS",
    "BOUNDARY_MODES",
    "check_lift_args",
    "lift_complex",
    "cyclic_families",
    "serialize_complex",
    "deserialize_complex",
]

class SerializationError(ValueError):
    """Unreadable or inconsistent serialized complex."""


def canonical_path(seq: Sequence[int]) -> tuple:
    """Identify a sequence with its reverse: keep the end with the smaller label first."""
    seq = tuple(seq)
    if len(seq) >= 2 and seq[0] > seq[-1]:
        return seq[::-1]
    return seq


def canonical_ring(cycle: Sequence[int]) -> tuple:
    """Canonical rotation/reflection of a cyclic sequence.

    Rotates the smallest vertex to the front and picks the direction whose
    second element is smaller.
    """
    cy = list(cycle)
    m = len(cy)
    i = cy.index(min(cy))
    fwd = tuple(cy[(i + j) % m] for j in range(m))
    bwd = tuple(cy[(i - j) % m] for j in range(m))
    return fwd if fwd[1] < bwd[1] else bwd


@dataclass(frozen=True)
class Member:
    """One complex member: a path, simplex, or cell with its canonical carrier."""

    dim: int
    kind: str
    carrier: tuple


@dataclass(frozen=True)
class CyclicFamily:
    """Per-dimension canonical sub-walk sets of a ring's cyclic shifts.

    ``families[p]`` holds every canonical length-p window of the ring
    sequence read cyclically in either direction.
    """

    cell_seq: tuple
    families: tuple  # tuple of frozensets, index = dimension

    @property
    def top_dim(self) -> int:
        return len(self.families) - 1


class HigherOrderComplex:
    """Carrier arrays per dimension plus one boundary CSR, the only stored incidence.

    ``carriers[p]`` holds one row per dimension-p member in id order; rows
    of ring cells are padded with -1 to the widest ring.  The boundary CSR
    and the indexes built from it on first use (co-boundary CSR, upper and
    lower triples) are read-only arrays, read in place by their users.
    Only ``upper_adjacency`` and ``lower_adjacency`` cache pair triples, for
    tests, oracles and benchmarks; refinement and the network call neither.
    The refinement engine and the class quotient read cached triples in
    place and otherwise generate their own from the CSRs for one call, the
    quotient for its representatives alone.
    """

    def __init__(self, kind, n, max_dim, carriers, indptr, indices):
        self.kind = kind
        self.n = n
        self.max_dim = max_dim
        self.carriers = carriers
        self.dim_offsets = _offsets(carriers)
        self.total = self.dim_offsets[-1]
        self._boundary_csr = _read_only(indptr, indices)
        self._coboundary_csr = None
        self._upper_flat = None
        self._lower_flat = None
        self._stable_colors = None  # filled by refine.stable_colors
        self._quotient = None  # filled by refine._quotient
        self._class_plan = None  # filled by network._class_incidence

    # -- lookups ---------------------------------------------------------

    def counts(self) -> list:
        return [len(rows) for rows in self.carriers]

    @property
    def members_by_dim(self) -> list:
        """Each dimension's carriers as a fresh list of tuples, in id order."""
        return [_tuples(rows) for rows in self.carriers]

    def dim_of(self, gid: int) -> int:
        if not 0 <= gid < self.total:
            raise IndexError(gid)
        return int(np.searchsorted(self.dim_offsets, gid, "right")) - 1

    def carrier_of(self, gid: int) -> tuple:
        p = self.dim_of(gid)
        return _tuples(self.carriers[p][gid - self.dim_offsets[p]][None])[0]

    def member(self, gid: int) -> Member:
        return Member(self.dim_of(gid), self.kind, self.carrier_of(gid))

    def member_id(self, dim: int, carrier: Sequence[int]) -> int:
        """Global id of a canonical carrier; ``KeyError`` if it is no member."""
        key = tuple(carrier)
        if not 0 <= dim <= self.max_dim:
            raise KeyError((dim, key))
        rows = self.carriers[dim]
        if len(key) > rows.shape[1] or min(key, default=0) < 0:
            raise KeyError(key)
        lo, hi = 0, len(rows)
        # rows agreeing on the first j columns are contiguous and sorted by column j
        for j, v in enumerate(key + (-1,) * (rows.shape[1] - len(key))):
            column = rows[lo:hi, j]
            lo, hi = (lo + int(np.searchsorted(column, v)),
                      lo + int(np.searchsorted(column, v, "right")))
        if lo == hi:
            raise KeyError(key)
        return self.dim_offsets[dim] + lo

    def dim_range(self, p: int) -> range:
        if not 0 <= p <= self.max_dim:
            raise IndexError(p)
        return range(self.dim_offsets[p], self.dim_offsets[p + 1])

    def boundary_of(self, gid: int) -> np.ndarray:
        """Ascending boundary ids of one member (a view into the CSR)."""
        if not 0 <= gid < self.total:
            raise IndexError(gid)
        indptr, indices = self._boundary_csr
        return indices[indptr[gid]:indptr[gid + 1]]

    # -- incidence -------------------------------------------------------

    def boundary_csr(self):
        """(indptr, indices): boundary ids of member g at indices[indptr[g]:indptr[g+1]]."""
        return self._boundary_csr

    def coboundary_csr(self):
        """The transposed CSR; each row lists its co-faces in ascending id order."""
        if self._coboundary_csr is None:
            indptr, indices = self._boundary_csr
            rows = np.repeat(np.arange(self.total, dtype=np.int64), np.diff(indptr))
            # a stable sort keeps each face's co-faces in ascending row order
            order = np.argsort(indices, kind="stable")
            co_indptr = np.zeros(self.total + 1, dtype=np.int64)
            np.cumsum(np.bincount(indices, minlength=self.total), out=co_indptr[1:])
            self._coboundary_csr = _read_only(co_indptr, rows[order])
        return self._coboundary_csr

    def upper_adjacency(self):
        """Flat witness triples (src, tau, delta) sorted by (src, tau, delta).

        A pair of members sharing several co-boundaries contributes one triple
        per witness.
        """
        if self._upper_flat is None:
            self._upper_flat = _read_only(*_pair_triples(*self.boundary_csr()))
        return self._upper_flat

    def lower_adjacency(self):
        """Flat witness triples (src, tau, delta) through shared boundaries."""
        if self._lower_flat is None:
            self._lower_flat = _read_only(*_pair_triples(*self.coboundary_csr()))
        return self._lower_flat

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HigherOrderComplex)
            and self.kind == other.kind
            and self.n == other.n
            and self.max_dim == other.max_dim
            and len(self.carriers) == len(other.carriers)
            and all(map(np.array_equal, self.carriers, other.carriers))
            and all(map(np.array_equal, self._boundary_csr, other._boundary_csr))
        )

    def __repr__(self) -> str:
        return (
            f"HigherOrderComplex(kind={self.kind!r}, n={self.n}, "
            f"max_dim={self.max_dim}, counts={self.counts()})"
        )


def _read_only(*arrays) -> tuple:
    """``arrays``, marked read-only: the cached indexes are shared by
    threads, the refinement engine and the network, which read them in
    place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _pair_triples(indptr, indices, sources=None):
    """All ordered pairs drawn from each CSR row, tagged by the row id, as
    ``(src, tau, delta)`` sorted by (src, tau, delta).

    For a row ``delta`` holding ``[a, b, c]`` emits (a,b,delta), (a,c,delta),
    (b,a,delta), ...; with ``sources``, ascending ids, only the pairs whose
    ``src`` is one of them.  Each entry naming a source is paired with
    every other entry of its row, so no row is read for a source it lacks.
    """
    if sources is None:
        hit = np.arange(indices.size)  # every entry names a source
        row = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    else:
        is_source = np.zeros(1 + max(indices.max(initial=-1), sources.max(initial=-1)),
                             dtype=bool)
        is_source[sources] = True
        hit = np.flatnonzero(is_source[indices])
        # the row of each entry: the last row starting at or before it
        row = np.searchsorted(indptr, hit, "right") - 1
    # the row's other entries: its range less one, stepping over the hit
    pair, pos = _ranges(indptr[row], indptr[row + 1] - 1)
    own = hit[pair]
    pos += pos >= own
    src, tau, delta = indices[own], indices[pos], row[pair]
    del pair, pos, own  # freed before the sort, which sets the peak
    order = np.argsort(_row_keys((src, tau, delta)))
    src = src[order]
    tau = tau[order]
    return src, tau, delta[order]


def _offsets(carriers) -> tuple:
    """First global id of each dimension, then the member total."""
    return tuple(itertools.accumulate(map(len, carriers), initial=0))


def _tuples(rows) -> list:
    """Carrier rows as tuples of ints, ring padding dropped."""
    if rows.size and rows[:, -1].min() < 0:
        return [tuple(v for v in row if v >= 0) for row in rows.tolist()]
    return list(map(tuple, rows.tolist()))


def _rows(carriers, width) -> np.ndarray:
    """Carrier tuples as an int64 array at least ``width`` wide; rows shorter
    than the array (ring cells) are padded with -1 at the end."""
    width = max(width, max(map(len, carriers), default=0))
    out = np.full((len(carriers), width), -1, dtype=np.int64)
    for i, c in enumerate(carriers):
        out[i, :len(c)] = c
    return out


def _pack(sizes, flat):
    """(indptr, indices) from per-row sizes and the rows' ids laid end to end."""
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr, np.array(flat, dtype=np.int64)


def _ranges(starts: np.ndarray, ends: np.ndarray):
    """(row, position) of every entry of the ranges ``[starts[i], ends[i])``."""
    lens = ends - starts
    row = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    pos = np.arange(int(lens.sum()), dtype=np.int64)
    pos += np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return row, pos


# ---------------------------------------------------------------------------
# array assembly: face carriers and their ids one dimension down
# ---------------------------------------------------------------------------


def _rank(keys, wanted, bound) -> np.ndarray:
    """Position of each wanted key in the strictly increasing ``keys``, or -1.

    Every key is below ``bound``; when that is small next to the arrays, a
    direct table replaces the binary search.
    """
    if bound <= 4 * (len(keys) + len(wanted)):
        table = np.full(bound, -1, dtype=np.int64)
        table[keys] = np.arange(len(keys))
        return table[wanted]
    pos = np.searchsorted(keys, wanted)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == wanted[hit]
    return np.where(hit, pos, -1)


def _row_keys(columns) -> np.ndarray:
    """One int64 key per row of the non-negative int ``columns``: keys
    order like the rows lexicographically and are equal iff the rows are.

    Columns are packed in turn, ``key * radix + value``.  Before a column
    could overflow int64, the keys so far are replaced by their dense ranks,
    so the keys stay exact whatever the width and radix.
    """
    keys, bound = 0, 1  # every key is below bound
    for column in columns:
        radix = 1 + int(column.max(initial=0))
        if bound * radix > 2 ** 63:
            ranks, keys = np.unique(keys, return_inverse=True)
            bound = len(ranks)
        keys = keys * radix + column
        bound *= radix
    return keys


def _row_index(table, queries) -> np.ndarray:
    """The row of ``table`` equal to each row of ``queries``, or -1.

    ``table`` holds distinct rows in lexicographic order; both arrays have
    the same width and hold values >= 0.
    """
    keys = _row_keys(np.concatenate((table, queries)).T)
    return _rank(keys[:len(table)], keys[len(table):], int(keys.max(initial=-1)) + 1)


def _face_ids(kind, carriers, p, truncation=False):
    """``(faces, bounds, ids)`` for the dimension-p members.

    ``faces[i, q]`` is the q-th canonical face carrier of member i: the
    deletion of column q, or a ring's q-th edge, the wrap included.
    ``bounds[i, q]`` is False where that face cannot bound member i (a
    padded ring column, an interior path deletion under truncation), and
    ``ids[i, q]`` is the face's row in ``carriers[p - 1]`` where it can and
    is a member there, else -1.  An interior path deletion is a member iff
    it is still a walk, that is iff its skip edge exists, so under
    incidence its id alone decides whether it bounds the path.
    """
    rows = carriers[p]
    if not len(rows):
        ids = np.zeros((0, p + 1), dtype=np.int64)
        return np.zeros((0, p + 1, p), dtype=np.int64), ids >= 0, ids
    if kind == "cell" and p == 2:
        after = np.roll(rows, -1, axis=1)
        after = np.where(after >= 0, after, rows[:, :1])
        faces = np.sort(np.stack((rows, after), axis=2), axis=2)
        bounds = rows >= 0
    else:
        keep = [j for q in range(p + 1) for j in range(p + 1) if j != q]
        faces = rows.take(keep, axis=1).reshape(len(rows), p + 1, p)
        bounds = np.ones(faces.shape[:2], dtype=bool)
        if kind == "path":
            # only an end deletion can start above its last vertex
            for q, first, last in ((0, 1, p), (p, 0, p - 1)):
                flip = np.flatnonzero(rows[:, first] > rows[:, last])
                faces[flip, q] = faces[flip, q, ::-1]
            bounds[:, 1:-1] = not truncation
    held = bounds.ravel()
    ids = np.full(held.shape, -1, dtype=np.int64)
    flat = faces.reshape(-1, faces.shape[-1])
    ids[held] = _row_index(carriers[p - 1], np.compress(held, flat, axis=0))
    return faces, bounds, ids.reshape(bounds.shape)


def _assemble(kind, g, max_dim, carriers, truncation=False) -> HigherOrderComplex:
    """The complex on ``carriers`` whose boundary CSR row of each member holds
    the ascending ids of its faces; dimension-0 rows are empty.  Dimensions
    up to ``max_dim`` that ``carriers`` stops short of are empty."""
    carriers = carriers + [np.zeros((0, p + 1), dtype=np.int64)
                           for p in range(len(carriers), max_dim + 1)]
    offsets = _offsets(carriers)
    sizes = [np.zeros(len(carriers[0]), dtype=np.int64)]
    flat = [np.zeros(0, dtype=np.int64)]
    for p in range(1, len(carriers)):
        ids = np.sort(_face_ids(kind, carriers, p, truncation)[2], axis=1)
        held = ids >= 0
        sizes.append(held.sum(axis=1))
        flat.append(ids[held] + offsets[p - 1])
    indptr = np.zeros(offsets[-1] + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    return HigherOrderComplex(kind, g.n, max_dim, carriers, indptr, np.concatenate(flat))


# ---------------------------------------------------------------------------
# lifting transformations
# ---------------------------------------------------------------------------


# Every lifting kind, with the name of the structural parameter it takes.
LIFT_PARAMS = {"path": "max_dim", "simplex": "max_dim", "cell": "max_ring"}

# How a path complex bounds its members; the other kinds keep every face.
BOUNDARY_MODES = ("incidence", "truncation")


def check_lift_args(kind: str, param: int, boundary_mode: str = "incidence"):
    """Raise ``ValueError`` unless :func:`lift_complex` takes these arguments."""
    if kind not in LIFT_PARAMS:
        raise ValueError(f"unknown lifting kind {kind!r}")
    if kind == "cell" and param < 3:
        raise ValueError("max_ring must be at least 3")
    if param < 0:
        raise ValueError("max_dim must be non-negative")
    if boundary_mode not in BOUNDARY_MODES:
        raise ValueError(f"unknown boundary-mode {boundary_mode!r}")


def _check_cap(carriers, cap):
    """Raise :class:`CapacityError` once ``carriers`` hold more than ``cap`` rows."""
    if sum(map(len, carriers)) > cap:
        raise CapacityError(
            f"member count exceeded the cap of {cap}; "
            "lower the lifting dimension or raise the cap"
        )


def _check_dims(max_dim, cap):
    """Raise :class:`CapacityError` when ``max_dim + 1`` dimensions exceed
    ``cap``: a complex keeps one carrier array per dimension, empty ones
    included, so the dimensions count against the cap before any is built."""
    if max_dim + 1 > cap:
        raise CapacityError(
            f"{max_dim + 1} dimensions exceed the member cap of {cap}; "
            "lower the lifting dimension or raise the cap"
        )


def _adjacency(g: SimpleGraph):
    """(indptr, neighbours): the ascending neighbour lists as one CSR."""
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, g.adjacency), np.int64, g.n), out=indptr[1:])
    flat = itertools.chain.from_iterable(g.adjacency)
    return indptr, np.fromiter(flat, np.int64, int(indptr[-1]))


def _edge_rows(g: SimpleGraph) -> np.ndarray:
    """The edges as rows ``(u, v)``, ``u < v``, in lexicographic order."""
    return np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)


def _grow(rows, indptr, nbr):
    """Each row repeated once per neighbour of its last vertex, and those
    neighbours in ascending order, so sorted rows stay sorted once extended."""
    last = rows[:, -1]
    deg = indptr[last + 1] - indptr[last]
    first = np.repeat(indptr[last] - np.cumsum(deg) + deg, deg)
    return rows.repeat(deg, axis=0), nbr[first + np.arange(len(first))]


def lift_path_complex(
    g: SimpleGraph,
    max_dim: int,
    boundary_mode: str = "incidence",
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> HigherOrderComplex:
    """All canonically oriented simple paths of length <= max_dim.

    ``boundary_mode="incidence"`` keeps every one-vertex deletion that is
    still a walk (interior deletions need the skip edge); ``"truncation"``
    keeps only the two end deletions.  A ``max_dim + 1`` above
    ``member_cap`` raises :class:`CapacityError` before anything is built.
    """
    check_lift_args("path", max_dim, boundary_mode)
    _check_dims(max_dim, member_cap)
    indptr, nbr = _adjacency(g)
    walks = np.arange(g.n, dtype=np.int64)[:, None]  # both orientations
    carriers = [walks]
    _check_cap(carriers, member_cap)
    while len(carriers) <= max_dim and len(walks):
        prev, nxt = _grow(walks, indptr, nbr)
        simple = (prev[:, :-1] != nxt[:, None]).all(axis=1)
        walks = np.column_stack((prev[simple], nxt[simple]))
        carriers.append(walks[walks[:, 0] < walks[:, -1]])
        _check_cap(carriers, member_cap)
    return _assemble("path", g, max_dim, carriers, boundary_mode == "truncation")


def _adjacent(edges, u, v) -> np.ndarray:
    """True where the vertices ``u`` and ``v``, broadcast together, are
    adjacent; ``edges`` are the edge rows of :func:`_edge_rows`."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pairs = np.stack((lo, hi), axis=-1).reshape(-1, 2)
    return (_row_index(edges, pairs) >= 0).reshape(lo.shape)


def lift_clique_complex(
    g: SimpleGraph,
    max_dim: int,
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> HigherOrderComplex:
    """Cliques of size <= max_dim+1 as members; boundaries are the facets.

    A ``max_dim + 1`` above ``member_cap`` raises :class:`CapacityError`
    before anything is built.
    """
    check_lift_args("simplex", max_dim)
    _check_dims(max_dim, member_cap)
    indptr, nbr = _adjacency(g)
    edges = _edge_rows(g)
    cliques = np.arange(g.n, dtype=np.int64)[:, None]
    carriers = [cliques]
    _check_cap(carriers, member_cap)
    while len(carriers) <= max_dim and len(cliques):
        prev, nxt = _grow(cliques, indptr, nbr)
        up = nxt > prev[:, -1]
        prev, nxt = prev[up], nxt[up]
        # the new vertex must also neighbour every earlier one
        clique = _adjacent(edges, prev[:, :-1], nxt[:, None]).all(axis=1)
        cliques = np.column_stack((prev[clique], nxt[clique]))
        carriers.append(cliques)
        _check_cap(carriers, member_cap)
    return _assemble("simplex", g, max_dim, carriers)


def lift_ring_complex(
    g: SimpleGraph,
    max_ring: int,
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> HigherOrderComplex:
    """Vertices, edges, and chordless cycles of size 3..max_ring as 2-cells.

    Induced paths grow from the edges ``(u, v)``, ``u < v``: a row is
    dropped when its new vertex is on the path, not above the first vertex,
    or adjacent to an interior one.  A new vertex adjacent to the first
    ends the path, and is a ring when it lies above the second vertex.  The
    working set, every induced path of the current length, is never larger
    than the path lift at that dimension; ``member_cap`` does not count it.
    Ring rows are padded with -1 to the widest ring (at least 3) and sorted.
    """
    check_lift_args("cell", max_ring)
    indptr, nbr = _adjacency(g)
    verts = np.arange(g.n, dtype=np.int64)[:, None]
    edges = _edge_rows(g)
    _check_cap((verts, edges), member_cap)
    paths, rings = edges, [np.zeros((0, 3), dtype=np.int64)]
    for _ in range(3, max_ring + 1):
        if not len(paths):
            break
        prev, nxt = _grow(paths, indptr, nbr)
        fresh = (nxt > prev[:, 0]) & (prev[:, 1:] != nxt[:, None]).all(axis=1)
        prev, nxt = prev[fresh], nxt[fresh]
        adjacent = _adjacent(edges, prev[:, :-1], nxt[:, None])
        ring = adjacent[:, 0] & ~adjacent[:, 1:].any(axis=1) & (nxt > prev[:, 1])
        if ring.any():
            rings.append(np.column_stack((prev[ring], nxt[ring])))
            _check_cap((verts, edges, *rings), member_cap)
        induced = ~adjacent.any(axis=1)
        paths = np.column_stack((prev[induced], nxt[induced]))
    width = max(r.shape[1] for r in rings)
    cells = np.concatenate([
        np.pad(r, ((0, 0), (0, width - r.shape[1])), constant_values=-1)
        for r in rings
    ])
    cells = cells[np.argsort(_row_keys((cells + 1).T))]  # +1 lifts the padding to 0
    return _assemble("cell", g, 2, [verts, edges, cells])


def lift_complex(
    g: SimpleGraph, kind: str, param: int, boundary_mode: str = "incidence",
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> HigherOrderComplex:
    """Lift by kind name; ``boundary_mode`` applies to path complexes only."""
    check_lift_args(kind, param, boundary_mode)
    if kind == "path":
        return lift_path_complex(g, param, boundary_mode, member_cap)
    lift = lift_clique_complex if kind == "simplex" else lift_ring_complex
    return lift(g, param, member_cap)


# ---------------------------------------------------------------------------
# cyclic-shifting families
# ---------------------------------------------------------------------------


def cyclic_families(cell: Member) -> CyclicFamily:
    """Canonical sub-walk families of a ring, one set per dimension.

    For a ring on m vertices, ``families[p]`` collects the canonical form of
    every (p+1)-vertex window of the cyclic sequence; a window and its
    reverse count once.
    """
    if cell.kind != "cell" or cell.dim != 2:
        raise ValueError("cyclic families are defined for 2-dimensional cells")
    ring = tuple(cell.carrier)
    m = len(ring)
    doubled = ring + ring
    fams = []
    for p in range(m):
        fams.append(
            frozenset(canonical_path(doubled[i:i + p + 1]) for i in range(m))
        )
    return CyclicFamily(cell_seq=canonical_path(ring), families=tuple(fams))


# ---------------------------------------------------------------------------
# serialization (PCX v1, line oriented)
# ---------------------------------------------------------------------------


def serialize_complex(c: HigherOrderComplex) -> str:
    lines = [f"PCX v1 kind={c.kind} n={c.n} maxdim={c.max_dim}"]
    gid = 0
    for p, members in enumerate(c.members_by_dim):
        lines.append(f"dim {p} count {len(members)}")
        for carrier in members:
            lines.append(f"{gid}: " + " ".join(str(v) for v in carrier))
            gid += 1
    lines.append("boundaries")
    indptr, indices = (a.tolist() for a in c.boundary_csr())
    for gid in range(c.total):
        lines.append(f"{gid}: " + " ".join(map(str, indices[indptr[gid]:indptr[gid + 1]])))
    return "\n".join(lines) + "\n"


def deserialize_complex(text: str) -> HigherOrderComplex:
    """Parse a PCX v1 payload; any malformed input raises SerializationError."""
    try:
        return _parse_pcx(text)
    except SerializationError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        raise SerializationError(
            f"malformed PCX payload ({type(exc).__name__}: {exc})"
        ) from exc


def _parse_pcx(text: str) -> HigherOrderComplex:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines:
        raise SerializationError("empty payload")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "PCX":
        raise SerializationError(f"bad header: {lines[0]!r}")
    if head[1] != "v1":
        raise SerializationError(f"unsupported format version {head[1]!r}")
    fields = dict(part.split("=", 1) for part in head[2:])
    kind = fields["kind"]
    if kind not in LIFT_PARAMS:
        raise SerializationError(f"unknown kind {kind!r}")
    n = int(fields["n"])
    max_dim = int(fields["maxdim"])
    if max_dim < 0 or (kind == "cell" and max_dim > 2):
        raise SerializationError(f"maxdim {max_dim} out of range for kind {kind!r}")
    members, carriers = [], []
    pos = 1
    expected_gid = 0
    for p in range(max_dim + 1):
        if pos >= len(lines):
            raise SerializationError(f"missing 'dim {p}' section")
        parts = lines[pos].split()
        if len(parts) != 4 or parts[0] != "dim" or int(parts[1]) != p:
            raise SerializationError(f"bad dimension header: {lines[pos]!r}")
        count = int(parts[3])
        if count < 0:
            raise SerializationError(f"dim {p} count {count} is negative")
        if p == 0 and count != n:
            # every lift lists each vertex as a member, and nothing sized by
            # n may be built from a header the members do not back
            raise SerializationError(f"dim 0 count {count} differs from n={n}")
        pos += 1
        ms = []
        for _ in range(count):
            gid_s, _, rest = lines[pos].partition(":")
            if int(gid_s) != expected_gid:
                raise SerializationError(
                    f"member ids must be consecutive; got {gid_s} wanted {expected_gid}"
                )
            carrier = tuple(int(v) for v in rest.split())
            if any(not 0 <= v < n for v in carrier):
                raise SerializationError(f"vertex out of range in member {gid_s}")
            if not _is_canonical(kind, p, carrier):
                raise SerializationError(
                    f"member {gid_s} is not a canonical dimension-{p} {kind} carrier"
                )
            ms.append(carrier)
            expected_gid += 1
            pos += 1
        members.append(ms)
        carriers.append(_rows(ms, p + 1))
        # a single row is in order, and the keys cost O(p) even for none
        if len(ms) > 1 and (np.diff(_row_keys((carriers[p] + 1).T)) <= 0).any():
            raise SerializationError(
                f"dimension {p} members repeat or leave lexicographic order"
            )
    if pos >= len(lines) or lines[pos] != "boundaries":
        raise SerializationError("missing 'boundaries' section")
    pos += 1
    total = expected_gid
    offsets = _offsets(members)
    for p in range(2, max_dim + 1):
        bad = np.flatnonzero(~_spans(kind, carriers[p], carriers[1]))
        if bad.size:
            raise SerializationError(
                f"member {offsets[p] + bad[0]} is not a {_SHAPES[kind]} "
                "of the dimension-1 members"
            )
    # a row may hold its incidence faces and must hold its truncation faces
    # (for simplices and cells the two are the same: every face)
    may, must = [None], [None]
    for p in range(1, max_dim + 1):
        may.append(_face_ids(kind, carriers, p)[2].tolist())
        faces, bounds, ids = _face_ids(kind, carriers, p, truncation=True)
        must.append((faces, np.where(bounds, ids, -2).tolist()))
    rows = [None] * total
    for _ in range(total):
        if pos >= len(lines):
            raise SerializationError("truncated boundaries section")
        gid_s, sep, rest = lines[pos].partition(":")
        if not sep:
            raise SerializationError(f"bad boundary line: {lines[pos]!r}")
        gid = int(gid_s)
        if not 0 <= gid < total:
            raise SerializationError(f"boundary line for unknown member {gid}")
        if rows[gid] is not None:
            raise SerializationError(f"repeated boundary line for member {gid}")
        ids = sorted(int(v) for v in rest.split())
        dim = next(p for p in range(max_dim + 1) if gid < offsets[p + 1])
        lo, hi = offsets[max(dim - 1, 0)], offsets[dim]
        i = gid - offsets[dim]
        allowed = {lo + b for b in may[dim][i] if b >= 0} if dim else set()
        for b in ids:
            if not lo <= b < hi:
                raise SerializationError(
                    f"dangling boundary id {b} for member {gid} (dimension {dim})"
                )
            if b not in allowed:
                raise SerializationError(
                    f"boundary id {b} of member {gid} is not a face of its carrier"
                )
        held = set(ids)
        if len(held) != len(ids):
            raise SerializationError(f"repeated boundary id for member {gid}")
        if dim:
            faces, required = must[dim]
            missing = [
                tuple(faces[i, q].tolist()) for q, b in enumerate(required[i])
                if b == -1 or b >= 0 and lo + b not in held
            ]
            if missing:
                raise SerializationError(
                    f"boundary of member {gid} lacks its face {min(missing)}"
                )
        rows[gid] = ids
        pos += 1
    return HigherOrderComplex(
        kind, n, max_dim, carriers,
        *_pack([len(r) for r in rows], [b for r in rows for b in r]),
    )


_SHAPES = {"path": "walk", "simplex": "clique", "cell": "chordless cycle"}


def _spans(kind, rows, edges) -> np.ndarray:
    """For each carrier row, True iff it is a walk (path), a clique (simplex)
    or a chordless cycle (cell) on the edge rows ``edges``, laid out as
    :func:`_edge_rows` lays them; ring rows may be padded with -1."""
    if kind == "path":
        return _adjacent(edges, rows[:, :-1], rows[:, 1:]).all(axis=1)
    i, j = np.triu_indices(rows.shape[1], 1)
    m = (rows >= 0).sum(axis=1)[:, None]  # carrier lengths
    # padding stands in for the first vertex; its pairs are not checked
    rows = np.where(rows >= 0, rows, rows[:, :1])
    want = (kind == "simplex") | (j == i + 1) | ((i == 0) & (j == m - 1))
    return ((_adjacent(edges, rows[:, i], rows[:, j]) == want) | (j >= m)).all(axis=1)


def _is_canonical(kind, p, carrier) -> bool:
    """True iff ``carrier`` is a simple dimension-p carrier in canonical orientation."""
    if len(set(carrier)) != len(carrier):
        return False
    if kind == "cell" and p == 2:
        return len(carrier) >= 3 and carrier == canonical_ring(carrier)
    canonical = canonical_path(carrier) if kind == "path" else tuple(sorted(carrier))
    return len(carrier) == p + 1 and carrier == canonical
