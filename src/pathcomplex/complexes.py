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

A complex stores its carriers per dimension and one boundary CSR, which
every lifting fills through one assembler from its kind's ``faces(carrier)``.
The coboundary CSR (a stable argsort of the boundary CSR) and the upper and
lower adjacency triples (ordered pairs within each row of the two CSRs) are
derived from it on first use and cached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import SimpleGraph

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
    "lift_complex",
    "cyclic_families",
    "serialize_complex",
    "deserialize_complex",
]

DEFAULT_MEMBER_CAP = 50_000_000


class CapacityError(RuntimeError):
    """Member enumeration exceeded the configured cap."""


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
    """Members per dimension plus one boundary CSR, the only stored incidence."""

    def __init__(self, kind, source, max_dim, members_by_dim, indptr, indices):
        self.kind = kind
        self.source = source
        self.n = source.n if source is not None else 0
        self.max_dim = max_dim
        self.members_by_dim = [list(ms) for ms in members_by_dim]
        self.dim_offsets = _offsets(self.members_by_dim)
        self.total = self.dim_offsets[-1]
        self._index = None
        self._boundary_csr = (indptr, indices)
        self._coboundary_csr = None
        self._upper_flat = None
        self._lower_flat = None
        self._stable_colors = None  # filled by refine.stable_colors
        self._class_plan = None  # filled by network._class_incidence

    # -- lookups ---------------------------------------------------------

    def counts(self) -> list:
        return [len(ms) for ms in self.members_by_dim]

    def dim_of(self, gid: int) -> int:
        for p in range(self.max_dim + 1):
            if gid < self.dim_offsets[p + 1]:
                return p
        raise IndexError(gid)

    def carrier_of(self, gid: int) -> tuple:
        p = self.dim_of(gid)
        return self.members_by_dim[p][gid - self.dim_offsets[p]]

    def member(self, gid: int) -> Member:
        return Member(self.dim_of(gid), self.kind, self.carrier_of(gid))

    def members(self, dim: Optional[int] = None):
        dims = range(self.max_dim + 1) if dim is None else [dim]
        for p in dims:
            for carrier in self.members_by_dim[p]:
                yield Member(p, self.kind, carrier)

    def member_id(self, dim: int, carrier: Sequence[int]) -> int:
        if self._index is None:
            self._index = [
                {c: i for i, c in enumerate(ms)} for ms in self.members_by_dim
            ]
        return self.dim_offsets[dim] + self._index[dim][tuple(carrier)]

    def dim_range(self, p: int) -> range:
        return range(self.dim_offsets[p], self.dim_offsets[p + 1])

    def boundary_of(self, gid: int) -> np.ndarray:
        """Ascending boundary ids of one member (a view into the CSR)."""
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
            self._coboundary_csr = (co_indptr, rows[order])
        return self._coboundary_csr

    def upper_adjacency(self):
        """Flat witness triples (src, tau, delta) sorted by (src, tau, delta).

        A pair of members sharing several co-boundaries contributes one triple
        per witness.
        """
        if self._upper_flat is None:
            self._upper_flat = _pair_triples(*self.boundary_csr())
        return self._upper_flat

    def lower_adjacency(self):
        """Flat witness triples (src, tau, delta) through shared boundaries."""
        if self._lower_flat is None:
            self._lower_flat = _pair_triples(*self.coboundary_csr())
        return self._lower_flat

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HigherOrderComplex)
            and self.kind == other.kind
            and self.n == other.n
            and self.max_dim == other.max_dim
            and self.members_by_dim == other.members_by_dim
            and all(map(np.array_equal, self._boundary_csr, other._boundary_csr))
        )

    def __repr__(self) -> str:
        return (
            f"HigherOrderComplex(kind={self.kind!r}, n={self.n}, "
            f"max_dim={self.max_dim}, counts={self.counts()})"
        )


def _pair_triples(indptr, indices):
    """All ordered pairs drawn from each CSR row, tagged by the row id.

    For a row ``delta`` holding ``[a, b, c]`` emits (a,b,delta), (a,c,delta),
    (b,a,delta), ... Rows are grouped by length so numpy can emit pairs in
    bulk.
    """
    lens = np.diff(indptr)
    empty = np.zeros(0, dtype=np.int64)
    srcs, taus, deltas = [empty], [empty], [empty]
    for size in np.unique(lens[lens >= 2]).tolist():
        ids = np.flatnonzero(lens == size)
        arr = indices[indptr[ids][:, None] + np.arange(size)]
        for i, j in itertools.permutations(range(size), 2):
            srcs.append(arr[:, i])
            taus.append(arr[:, j])
            deltas.append(ids)
    src = np.concatenate(srcs)
    tau = np.concatenate(taus)
    delta = np.concatenate(deltas)
    order = np.lexsort((delta, tau, src))
    return src[order], tau[order], delta[order]


def _offsets(members) -> tuple:
    """First global id of each dimension, then the member total."""
    return tuple(itertools.accumulate(map(len, members), initial=0))


def _pack(sizes, flat):
    """(indptr, indices) from per-row sizes and the rows' ids laid end to end."""
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr, np.array(flat, dtype=np.int64)


# ---------------------------------------------------------------------------
# lifting transformations
# ---------------------------------------------------------------------------


class _CapCounter:
    __slots__ = ("count", "cap")

    def __init__(self, cap):
        self.count = 0
        self.cap = cap

    def add(self, k=1):
        self.count += k
        if self.count > self.cap:
            raise CapacityError(
                f"member count exceeded the cap of {self.cap}; "
                "lower the lifting dimension or raise the cap"
            )


def _faces(kind: str, g: SimpleGraph, boundary_mode: str = "incidence"):
    """``faces(carrier)``: the canonical carriers one dimension down that bound it.

    Path faces are the one-vertex deletions that remain walks in ``g`` (only
    the two end deletions under ``"truncation"``); simplex faces are the
    facets; a cell's faces are a ring's edges, or an edge's endpoints.
    """
    skips = boundary_mode == "incidence"

    def faces(c):
        last = len(c) - 1
        if kind == "cell" and last > 1:  # a ring is bounded by its edges
            return [canonical_path((c[q - 1], c[q])) for q in range(last + 1)]
        return [
            canonical_path(c[:q] + c[q + 1:]) for q in range(last + 1)
            # a path keeps an interior deletion only if it is still a walk
            if kind != "path" or q in (0, last)
            or skips and g.has_edge(c[q - 1], c[q + 1])
        ]

    return faces


def _assemble(kind, g, max_dim, members, faces) -> HigherOrderComplex:
    """The complex on ``members`` whose boundary CSR row of each member holds
    the ascending ids of its ``faces``; dimension-0 rows are empty."""
    offsets = _offsets(members)
    sizes = [0] * len(members[0])
    flat = []
    for p in range(1, len(members)):
        lower = {c: offsets[p - 1] + i for i, c in enumerate(members[p - 1])}
        for carrier in members[p]:
            ids = sorted([lower[f] for f in faces(carrier)])
            sizes.append(len(ids))
            flat.extend(ids)
    return HigherOrderComplex(kind, g, max_dim, members, *_pack(sizes, flat))


def lift_path_complex(
    g: SimpleGraph,
    max_dim: int,
    boundary_mode: str = "incidence",
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> HigherOrderComplex:
    """All canonically oriented simple paths of length <= max_dim.

    ``boundary_mode="incidence"`` keeps every one-vertex deletion that is
    still a walk (interior deletions need the skip edge); ``"truncation"``
    keeps only the two end deletions.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    if boundary_mode not in ("incidence", "truncation"):
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")
    cap = _CapCounter(member_cap)
    members = [[] for _ in range(max_dim + 1)]
    for v in range(g.n):
        members[0].append((v,))
        cap.add()
    if max_dim >= 1:
        in_path = [False] * g.n

        def extend(path):
            v = path[-1]
            for w in g.adjacency[v]:
                if in_path[w]:
                    continue
                path.append(w)
                if path[0] < w:
                    cap.add()
                    members[len(path) - 1].append(tuple(path))
                if len(path) <= max_dim:
                    in_path[w] = True
                    extend(path)
                    in_path[w] = False
                path.pop()

        for s in range(g.n):
            in_path[s] = True
            extend([s])
            in_path[s] = False
    return _assemble("path", g, max_dim, members, _faces("path", g, boundary_mode))


def lift_clique_complex(
    g: SimpleGraph,
    max_dim: int,
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> HigherOrderComplex:
    """Cliques of size <= max_dim+1 as members; boundaries are the facets."""
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    cap = _CapCounter(member_cap)
    members = [[] for _ in range(max_dim + 1)]

    def extend(clique):
        v = clique[-1]
        for w in g.adjacency[v]:
            if w <= v:
                continue
            if all(g.has_edge(u, w) for u in clique):
                clique.append(w)
                cap.add()
                members[len(clique) - 1].append(tuple(clique))
                if len(clique) <= max_dim:
                    extend(clique)
                clique.pop()

    for v in range(g.n):
        cap.add()
        members[0].append((v,))
        if max_dim >= 1:
            extend([v])
    return _assemble("simplex", g, max_dim, members, _faces("simplex", g))


def lift_ring_complex(
    g: SimpleGraph,
    max_ring: int,
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> HigherOrderComplex:
    """Vertices, edges, and chordless cycles of size 3..max_ring as 2-cells."""
    if max_ring < 3:
        raise ValueError("max_ring must be at least 3")
    cap = _CapCounter(member_cap)
    verts = [(v,) for v in range(g.n)]
    cap.add(g.n)
    edges = sorted(g.edges)
    cap.add(len(edges))
    rings = []

    def extend(path, blocked):
        # blocked: vertices adjacent to an interior path vertex (chord makers)
        v = path[-1]
        for w in g.adjacency[v]:
            if w <= path[0] or w in blocked or w in path:
                continue
            if g.has_edge(w, path[0]):
                if path[1] < w:
                    cap.add()
                    rings.append(tuple(path) + (w,))
                continue
            if len(path) + 1 < max_ring:
                path.append(w)
                # v just became an interior vertex; its neighbors would chord
                extend(path, blocked | set(g.adjacency[v]))
                path.pop()

    for v0 in range(g.n):
        for v1 in g.adjacency[v0]:
            if v1 > v0:
                extend([v0, v1], frozenset())
    rings.sort()
    return _assemble("cell", g, 2, [verts, edges, rings], _faces("cell", g))


# Every lifting kind, with the name of the structural parameter it takes.
LIFT_PARAMS = {"path": "max_dim", "simplex": "max_dim", "cell": "max_ring"}


def lift_complex(
    g: SimpleGraph, kind: str, param: int, boundary_mode: str = "incidence",
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> HigherOrderComplex:
    """Lift by kind name; ``boundary_mode`` applies to path complexes only."""
    if kind == "path":
        return lift_path_complex(g, param, boundary_mode, member_cap)
    if kind == "simplex":
        return lift_clique_complex(g, param, member_cap)
    if kind == "cell":
        return lift_ring_complex(g, param, member_cap)
    raise ValueError(f"unknown lifting kind {kind!r}")


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
    for p in range(c.max_dim + 1):
        lines.append(f"dim {p} count {len(c.members_by_dim[p])}")
        for carrier in c.members_by_dim[p]:
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
    except (ValueError, KeyError, IndexError) as exc:
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
    if kind not in ("path", "simplex", "cell"):
        raise SerializationError(f"unknown kind {kind!r}")
    n = int(fields["n"])
    max_dim = int(fields["maxdim"])
    if max_dim < 0 or (kind == "cell" and max_dim > 2):
        raise SerializationError(f"maxdim {max_dim} out of range for kind {kind!r}")
    members = []
    pos = 1
    expected_gid = 0
    for p in range(max_dim + 1):
        if pos >= len(lines):
            raise SerializationError(f"missing 'dim {p}' section")
        parts = lines[pos].split()
        if len(parts) != 4 or parts[0] != "dim" or int(parts[1]) != p:
            raise SerializationError(f"bad dimension header: {lines[pos]!r}")
        count = int(parts[3])
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
        if ms != sorted(set(ms)):
            raise SerializationError(
                f"dimension {p} members repeat or leave lexicographic order"
            )
        members.append(ms)
    if pos >= len(lines) or lines[pos] != "boundaries":
        raise SerializationError("missing 'boundaries' section")
    pos += 1
    total = expected_gid
    offsets = _offsets(members)
    source = SimpleGraph.from_edges(n, members[1] if max_dim >= 1 else [])
    for p in range(2, max_dim + 1):
        for i, carrier in enumerate(members[p]):
            if not _spans(kind, carrier, source):
                raise SerializationError(
                    f"member {offsets[p] + i} is not a {_SHAPES[kind]} "
                    "of the dimension-1 members"
                )
    faces = _faces(kind, source)  # incidence faces include the truncation ones
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
        carrier = members[dim][gid - offsets[dim]]
        allowed = set(faces(carrier))
        for b in ids:
            if not lo <= b < hi:
                raise SerializationError(
                    f"dangling boundary id {b} for member {gid} (dimension {dim})"
                )
            if members[dim - 1][b - lo] not in allowed:
                raise SerializationError(
                    f"boundary id {b} of member {gid} is not a face of its carrier"
                )
        if len(set(ids)) != len(ids):
            raise SerializationError(f"repeated boundary id for member {gid}")
        required = allowed if dim else set()
        if kind == "path" and dim:  # interior deletions depend on the mode
            required = {canonical_path(carrier[1:]), canonical_path(carrier[:-1])}
        missing = required - {members[dim - 1][b - lo] for b in ids}
        if missing:
            raise SerializationError(
                f"boundary of member {gid} lacks its face {min(missing)}"
            )
        rows[gid] = ids
        pos += 1
    return HigherOrderComplex(
        kind, source, max_dim, members,
        *_pack([len(r) for r in rows], [b for r in rows for b in r]),
    )


_SHAPES = {"path": "walk", "simplex": "clique", "cell": "chordless cycle"}


def _spans(kind, carrier, g: SimpleGraph) -> bool:
    """True iff ``carrier`` is a walk (path), a clique (simplex) or a
    chordless cycle (cell) of ``g``."""
    if kind == "path":
        return all(map(g.has_edge, carrier, carrier[1:]))
    m = len(carrier)
    for i, j in itertools.combinations(range(m), 2):
        ring_edge = j == i + 1 or (i, j) == (0, m - 1)
        if g.has_edge(carrier[i], carrier[j]) != (kind == "simplex" or ring_edge):
            return False
    return True


def _is_canonical(kind, p, carrier) -> bool:
    """True iff ``carrier`` is a simple dimension-p carrier in canonical orientation."""
    if len(set(carrier)) != len(carrier):
        return False
    if kind == "cell" and p == 2:
        return len(carrier) >= 3 and carrier == canonical_ring(carrier)
    canonical = canonical_path(carrier) if kind == "path" else tuple(sorted(carrier))
    return len(carrier) == p + 1 and carrier == canonical
