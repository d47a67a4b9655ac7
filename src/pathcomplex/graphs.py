"""Undirected simple graphs with graph6 / edge-list codecs and permutation tools.

Vertices are always the integers ``0..n-1``; that fixed labelling doubles as
the injective vertex ordering used to canonically orient paths elsewhere in
the package.  A graph is held in one array form, its sorted edge rows and
neighbour CSR, which the lifts, the strongly-regular check and the graph6
codec read in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GraphParseError",
    "SimpleGraph",
    "VertexPermutation",
    "parse_graph6",
    "encode_graph6",
    "read_graph6_file",
    "parse_edge_list",
    "apply_permutation",
    "complement_graph",
    "disjoint_union",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "random_graph",
    "random_permutation",
]


class GraphParseError(ValueError):
    """Malformed graph6 or edge-list input."""


# The default bound on a lift's members.  It is defined here, and exported
# from ``complexes``, so that the edge-list reader can refuse a vertex count
# that no lift under it could take: every lift lists each vertex.
DEFAULT_MEMBER_CAP = 50_000_000


class CapacityError(RuntimeError):
    """An input or a member enumeration exceeded its cap."""


def check_integer(name: str, value):
    """Raise ``TypeError`` unless ``value`` is an integer; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


class SimpleGraph:
    """Immutable undirected simple graph on vertices ``0..n-1``, no self-loops,
    no multi-edges.

    It holds ``n`` and three read-only int64 arrays, built once: ``edge_rows``,
    one ``(u, v)`` with ``u < v`` per edge in lexicographic order, and the
    neighbour CSR, which lists the neighbours of ``v`` in ascending order at
    ``nbr[indptr[v]:indptr[v + 1]]``.  The tuple views ``edges`` (a frozenset)
    and ``adjacency`` (one tuple per vertex) are built on first use.
    """

    def __init__(self, n: int, rows: np.ndarray):
        """The graph of the int64 rows ``(u, v)`` in ``range(n)``, no self-loops,
        either order, repeats allowed; :meth:`from_edges` checks its pairs."""
        u, v = np.divmod(np.unique(rows.min(axis=1) * n + rows.max(axis=1)), n)
        src, dst = np.concatenate((v, u)), np.concatenate((u, v))
        indptr = np.bincount(src + 1, minlength=n + 1)
        np.cumsum(indptr, out=indptr)
        self.n, self.edge_rows, self.indptr = n, np.stack((u, v), axis=1), indptr
        # a stable sort keeps each vertex's lower neighbours, ascending since
        # the edge rows are sorted, before its higher ones, ascending too
        self.nbr = dst[np.argsort(src, kind="stable")]
        for a in (self.edge_rows, self.indptr, self.nbr):
            a.flags.writeable = False
        self._edges = self._adjacency = None

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        """The graph of any iterable of vertex pairs, repeats collapsed.  The first
        pair that is a self-loop or leaves ``range(n)`` raises ``ValueError``, and
        then a vertex id that is no integer ``TypeError``."""
        check_integer("vertex count", n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        pairs = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            pairs.append((u, v))
        for x in {type(x): x for pair in pairs for x in pair}.values():  # one id per type
            check_integer("vertex id", x)
        return SimpleGraph(int(n), np.array(pairs, dtype=np.int64).reshape(len(pairs), 2))

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            self._edges = frozenset(map(tuple, self.edge_rows.tolist()))
        return self._edges

    @property
    def adjacency(self) -> tuple:
        if self._adjacency is None:
            flat, ends = self.nbr.tolist(), self.indptr.tolist()
            self._adjacency = tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))
        return self._adjacency

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def neighbors(self, v: int) -> tuple:
        if not 0 <= v < self.n:  # a negative vertex would read from the end
            raise IndexError(f"vertex {v} outside range 0..{self.n - 1}")
        return tuple(self.nbr[self.indptr[v]:self.indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    @property
    def edge_count(self) -> int:
        return len(self.edge_rows)

    def degree_sequence(self) -> tuple:
        return tuple(sorted(np.diff(self.indptr).tolist()))

    def adjacency_matrix(self) -> np.ndarray:
        mat = np.zeros((self.n, self.n), dtype=np.int8)
        u, v = self.edge_rows.T
        mat[u, v] = mat[v, u] = 1
        return mat

    def sorted_edges(self) -> list:
        return list(map(tuple, self.edge_rows.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimpleGraph) and self.n == other.n
                and np.array_equal(self.edge_rows, other.edge_rows))

    def __hash__(self) -> int:
        return hash((self.n, self.edge_rows.tobytes()))


# ---------------------------------------------------------------------------
# graph6 codec
#
# Short form: first byte 63+n for n <= 62.  Extended form: a 126 byte followed
# by three bytes encoding an 18-bit n.  The upper triangle of the adjacency
# matrix is then packed column-major -- pair order (0,1),(0,2),(1,2),(0,3),...
# -- six bits per byte, most significant bit first, zero-padded.
# ---------------------------------------------------------------------------


def _g6_check_byte(b: int, offset: int) -> int:
    if not 63 <= b <= 126:
        raise GraphParseError(
            f"invalid graph6 byte {b!r} at offset {offset}: outside 63..126"
        )
    return b - 63


def parse_graph6(line: str) -> SimpleGraph:
    """Decode one graph6-encoded graph (short or 4-byte extended-n form).

    Any malformed payload, a text one with a character outside ASCII
    included, raises :class:`GraphParseError`.
    """
    if isinstance(line, bytes):
        data = line.strip()
    else:
        try:
            data = line.strip().encode("ascii", errors="surrogateescape")
        except UnicodeEncodeError as exc:
            raise GraphParseError(
                f"invalid graph6 character at offset {exc.start}: not ASCII"
            ) from exc
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise GraphParseError("empty graph6 payload")
    pos = 0
    first = _g6_check_byte(data[0], 0)
    if first < 63:
        n = first
        pos = 1
    else:
        # extended form: '~' then three bytes of 6 bits each
        if len(data) < 4:
            raise GraphParseError("malformed length header: truncated extended form")
        if data[1] == 126:
            raise GraphParseError(
                "malformed length header: 8-byte graph6 sizes are not supported"
            )
        n = 0
        for i in range(1, 4):
            n = (n << 6) | _g6_check_byte(data[i], i)
        pos = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise GraphParseError(
            f"malformed length header: n={n} needs {nbytes} body bytes, got {len(body)}"
        )
    body = np.frombuffer(body, np.uint8)
    for i in np.flatnonzero((body < 63) | (body > 126))[:1]:
        _g6_check_byte(int(body[i]), pos + int(i))
    bits = np.unpackbits((body - 63)[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise GraphParseError(
            f"trailing bits set in final graph6 byte at offset {pos + len(body) - 1}"
        )
    # the encoder's order: column v, from bit v(v-1)/2 on, holds rows 0..v-1
    k = np.flatnonzero(bits[:nbits])
    starts = np.arange(n) * (np.arange(n) - 1) // 2
    v = np.searchsorted(starts, k, "right") - 1
    return SimpleGraph(n, np.stack((k - starts[v], v), axis=1))


def encode_graph6(g: SimpleGraph) -> str:
    """Encode a graph in graph6 (short form for n <= 62, extended otherwise)."""
    n = g.n
    if n <= 62:
        head = [63 + n]
    elif n <= 258047:
        head = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    else:
        raise ValueError("graph too large for the supported graph6 forms")
    bits = np.zeros(6 * ((n * (n - 1) // 2 + 5) // 6), dtype=np.uint8)
    u, v = g.edge_rows.T
    bits[v * (v - 1) // 2 + u] = 1
    body = np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2  # six bits a byte
    return (bytes(head) + (body + 63).tobytes()).decode("ascii")


def read_text(path, encoding: str, error: type) -> str:
    """The text of the file at ``path`` in ``encoding``, ``"ASCII"`` or
    ``"UTF-8"``, with every line ending read as ``\\n``; bytes that do not
    decode raise ``error`` naming the path."""
    try:
        with open(path, "r", encoding=encoding) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not {encoding} text ({exc.reason})") from exc


def read_graph6_file(path) -> list:
    """Read a one-graph-per-line graph6 file."""
    text = read_text(path, "ASCII", GraphParseError)
    graphs = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            graphs.append(parse_graph6(line))
        except GraphParseError as exc:
            raise GraphParseError(f"{path}:{lineno}: {exc}") from exc
    return graphs


# ---------------------------------------------------------------------------
# edge-list format: first non-comment line "n <count>", then "u v" lines
# ---------------------------------------------------------------------------


def parse_edge_list(text: str, member_cap: int | None = None) -> SimpleGraph:
    """The graph of an edge list.  A malformed line raises :class:`GraphParseError`
    naming it; a header count above ``member_cap`` (``DEFAULT_MEMBER_CAP`` if None)
    raises :class:`CapacityError` before anything vertex-sized is allocated."""
    member_cap = DEFAULT_MEMBER_CAP if member_cap is None else member_cap
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphParseError(
                    f"line {lineno}: expected header 'n <count>', got {line!r}"
                )
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if n < 0:
                raise GraphParseError(f"line {lineno}: negative vertex count")
            if n > member_cap:
                raise CapacityError(
                    f"line {lineno}: {n} vertices exceed the member cap "
                    f"{member_cap}, since every lift lists each vertex"
                )
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex in {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop {u} {v} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(
                f"line {lineno}: vertex index out of range 0..{n - 1} in {line!r}"
            )
        edges.append((u, v))
    if n is None:
        raise GraphParseError("missing 'n <count>' header line")
    return SimpleGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))  # checked above


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexPermutation:
    """A bijection on 0..n-1 stored as the image array ``mapping``."""

    mapping: tuple

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection on 0..n-1")

    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, v: int) -> int:
        return self.mapping[v]


def apply_permutation(g: SimpleGraph, p: VertexPermutation) -> SimpleGraph:
    if len(p) != g.n:
        raise ValueError(f"permutation length {len(p)} != vertex count {g.n}")
    return SimpleGraph.from_edges(g.n, [(p(u), p(v)) for u, v in g.edges])


# ---------------------------------------------------------------------------
# small constructors used by tests, demos and benchmark corpora
# ---------------------------------------------------------------------------


def complement_graph(g: SimpleGraph) -> SimpleGraph:
    u, v = np.triu_indices(g.n, 1)
    absent = g.adjacency_matrix()[u, v] == 0
    return SimpleGraph(g.n, np.stack((u[absent], v[absent]), axis=1))


def disjoint_union(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    return SimpleGraph(a.n + b.n, np.concatenate((a.edge_rows, b.edge_rows + a.n)))


def cycle_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> SimpleGraph:
    return complement_graph(SimpleGraph.from_edges(n, []))


def random_graph(n: int, p: float, rng: np.random.Generator) -> SimpleGraph:
    u, v = np.triu_indices(n, 1)  # the pairs (u, v) row by row, one draw each
    keep = rng.random(len(u)) < p
    return SimpleGraph.from_edges(n, zip(u[keep].tolist(), v[keep].tolist()))


def random_permutation(n: int, rng: np.random.Generator) -> VertexPermutation:
    return VertexPermutation(tuple(int(x) for x in rng.permutation(n)))
