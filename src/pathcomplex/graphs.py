"""Undirected simple graphs with graph6 / edge-list codecs and permutation tools.

Vertices are always the integers ``0..n-1``; that fixed labelling doubles as
the injective vertex ordering used to canonically orient paths elsewhere in
the package.
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


@dataclass(frozen=True)
class SimpleGraph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    ``edges`` holds one ``(u, v)`` tuple with ``u < v`` per edge and
    ``adjacency`` the derived per-vertex sorted neighbor tuples.  No
    self-loops, no multi-edges.
    """

    n: int
    edges: frozenset
    adjacency: tuple

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            norm.add((u, v) if u < v else (v, u))
        adj = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        return SimpleGraph(n, frozenset(norm), tuple(tuple(sorted(a)) for a in adj))

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> tuple:
        return tuple(sorted(len(a) for a in self.adjacency))

    def adjacency_matrix(self) -> np.ndarray:
        mat = np.zeros((self.n, self.n), dtype=np.int8)
        for u, v in self.edges:
            mat[u, v] = mat[v, u] = 1
        return mat

    def sorted_edges(self) -> list:
        return sorted(self.edges)


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
    bits = "".join(f"{_g6_check_byte(raw, pos + i):06b}" for i, raw in enumerate(body))
    if "1" in bits[nbits:]:
        raise GraphParseError(
            f"trailing bits set in final graph6 byte at offset {pos + len(body) - 1}"
        )
    # the encoder's order: column v holds rows 0..v-1
    edges, start = [], 0
    for v in range(1, n):
        edges.extend((u, v) for u, b in enumerate(bits[start:start + v]) if b == "1")
        start += v
    return SimpleGraph.from_edges(n, edges)


def encode_graph6(g: SimpleGraph) -> str:
    """Encode a graph in graph6 (short form for n <= 62, extended otherwise)."""
    n = g.n
    if n <= 62:
        head = [63 + n]
    elif n <= 258047:
        head = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    else:
        raise ValueError("graph too large for the supported graph6 forms")
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    body = []
    for i in range(0, len(bits), 6):
        chunk = bits[i:i + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = (val << 1) | b
        body.append(63 + val)
    return bytes(head + body).decode("ascii")


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
    return SimpleGraph.from_edges(n, edges)


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
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return SimpleGraph.from_edges(g.n, edges)


def disjoint_union(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return SimpleGraph.from_edges(a.n + b.n, edges)


def cycle_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def random_graph(n: int, p: float, rng: np.random.Generator) -> SimpleGraph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return SimpleGraph.from_edges(n, edges)


def random_permutation(n: int, rng: np.random.Generator) -> VertexPermutation:
    return VertexPermutation(tuple(int(x) for x in rng.permutation(n)))
