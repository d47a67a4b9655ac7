"""The array graph form and its graph6 codec against the tuple code they
replaced.

The reference builds a graph one edge at a time into a frozenset of edge
tuples and one sorted neighbour tuple per vertex, decodes graph6 one bit at
a time through a string of bits, and encodes it one vertex pair at a time.
``SimpleGraph`` must hold the same graph, the codec must give the same bytes
and load the payloads the reference loads, and both must raise on the
others with the reference's message.
"""

import numpy as np
import pytest

from pathcomplex.complexes import lift_clique_complex, lift_path_complex, lift_ring_complex
from pathcomplex.graphs import (
    GraphParseError,
    SimpleGraph,
    VertexPermutation,
    apply_permutation,
    cycle_graph,
    encode_graph6,
    parse_graph6,
    path_graph,
    random_graph,
)
from pathcomplex.srg import rook_graph_4x4, srg_parameters


# -- the reference: today's tuple code, kept as the oracle ----------------------


def ref_from_edges(n, edges):
    """``(n, edges, adjacency)`` of the graph, as the tuple form held them."""
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
    return n, frozenset(norm), tuple(tuple(sorted(a)) for a in adj)


def _ref_check_byte(b, offset):
    if not 63 <= b <= 126:
        raise GraphParseError(
            f"invalid graph6 byte {b!r} at offset {offset}: outside 63..126"
        )
    return b - 63


def ref_parse_graph6(line):
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
    first = _ref_check_byte(data[0], 0)
    if first < 63:
        n, pos = first, 1
    else:
        if len(data) < 4:
            raise GraphParseError("malformed length header: truncated extended form")
        if data[1] == 126:
            raise GraphParseError(
                "malformed length header: 8-byte graph6 sizes are not supported"
            )
        n = 0
        for i in range(1, 4):
            n = (n << 6) | _ref_check_byte(data[i], i)
        pos = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise GraphParseError(
            f"malformed length header: n={n} needs {nbytes} body bytes, got {len(body)}"
        )
    bits = "".join(f"{_ref_check_byte(raw, pos + i):06b}" for i, raw in enumerate(body))
    if "1" in bits[nbits:]:
        raise GraphParseError(
            f"trailing bits set in final graph6 byte at offset {pos + len(body) - 1}"
        )
    edges, start = [], 0
    for v in range(1, n):
        edges.extend((u, v) for u, b in enumerate(bits[start:start + v]) if b == "1")
        start += v
    return ref_from_edges(n, edges)


def ref_encode_graph6(n, edges):
    if n <= 62:
        head = [63 + n]
    else:
        head = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in edges else 0)
    body = []
    for i in range(0, len(bits), 6):
        chunk = bits[i:i + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = (val << 1) | b
        body.append(63 + val)
    return bytes(head + body).decode("ascii")


# -- helpers -------------------------------------------------------------------


def tuple_form(g):
    return g.n, g.edges, g.adjacency


def outcome(build, *args):
    """``("ok", tuple form)`` of what ``build`` returns, or the type and
    message of what it raises."""
    try:
        got = build(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return "ok", got if isinstance(got, tuple) else tuple_form(got)


# -- SimpleGraph.from_edges -----------------------------------------------------


def test_random_edge_lists_match_the_reference():
    """Seeded edge lists with repeats, both orders, self-loops and vertices
    out of range: both build the same graph or raise the same message."""
    rng = np.random.default_rng(41)
    built = raised = 0
    for _ in range(3000):
        n = int(rng.integers(0, 9))
        m = int(rng.integers(0, 12))
        lo, hi = (-1, n + 2) if rng.random() < 0.1 else (0, max(n, 1))
        edges = [tuple(e) for e in rng.integers(lo, hi, size=(m, 2)).tolist()]
        got, want = outcome(SimpleGraph.from_edges, n, edges), outcome(ref_from_edges, n, edges)
        assert got == want, (n, edges)
        built += got[0] == "ok"
        raised += got[0] != "ok"
    assert built > 500 and raised > 500


@pytest.mark.parametrize("make", [
    lambda: (e for e in [(0, 1), (2, 1)]),
    lambda: {(0, 1), (1, 0), (2, 3)},
    lambda: np.array([[3, 0], [1, 2], [0, 3]]),
    lambda: np.array([[3, 0]], dtype=np.uint64),
    lambda: [(np.int32(0), 1), (np.uint8(2), np.int64(3))],
    lambda: [],
], ids=["generator", "set", "numpy rows", "uint64 rows", "numpy ids", "none"])
def test_any_iterable_of_pairs(make):
    assert tuple_form(SimpleGraph.from_edges(4, make())) == ref_from_edges(4, make())


@pytest.mark.parametrize("n, edges", [
    (3, [(0, 1), (1, 1), (0, 7)]),  # the first bad pair in input order
    (3, [(0, 7), (1, 1)]),
    (2, [(2, 2)]),  # a self-loop is reported before a vertex out of range
    (3, [(-1, 0)]),
    (3, [(0, 2 ** 70)]),  # past int64
    (3, [(0, 2 ** 63), (0, 1)]),
    (-1, []),
])
def test_the_first_bad_pair_gets_the_reference_message(n, edges):
    got = outcome(SimpleGraph.from_edges, n, edges)
    assert got[0] is ValueError
    assert got == outcome(ref_from_edges, n, edges)


@pytest.mark.parametrize("n, edges, error", [
    (3, [(0, 1, 2)], ValueError),  # no pair: too many values to unpack
    (3, [(0,)], ValueError),
    (3, [(0.0, 2.0)], TypeError),
    (3, [(0, 1), (1, 1.5)], TypeError),
    (3, [(0, 1), (True, 2)], TypeError),
    (3, [((0, 1), (1, 2))], TypeError),
    (3, [("0", "1")], TypeError),
    (3, np.array([[0.0, 2.0]]), TypeError),
])
def test_no_pair_or_no_integer_id_builds_a_graph(n, edges, error):
    with pytest.raises(error):
        SimpleGraph.from_edges(n, edges)
    if error is ValueError:
        with pytest.raises(ValueError) as info:
            ref_from_edges(n, edges)
        assert outcome(SimpleGraph.from_edges, n, edges)[1] == str(info.value)


def test_a_float_permutation_image_builds_no_graph():
    with pytest.raises(TypeError, match="vertex id must be an integer"):
        apply_permutation(path_graph(3), VertexPermutation((1.0, 0.0, 2.0)))


def test_arrays_are_read_only_int64_and_match_the_views():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g = random_graph(int(rng.integers(0, 30)), float(rng.uniform(0, 1)), rng)
        for a in (g.edge_rows, g.indptr, g.nbr):
            assert a.dtype == np.int64 and not a.flags.writeable
        assert g.edge_rows.shape == (g.edge_count, 2)
        assert g.edge_rows.tolist() == [list(e) for e in sorted(g.edges)]
        assert [g.neighbors(v) for v in range(g.n)] == list(g.adjacency)
        assert g.indptr.tolist()[-1] == 2 * g.edge_count
        assert g == SimpleGraph.from_edges(g.n, g.edges)
        assert hash(g) == hash(SimpleGraph.from_edges(g.n, reversed(g.sorted_edges())))
    assert cycle_graph(4) != cycle_graph(5)
    assert SimpleGraph.from_edges(3, []) != SimpleGraph.from_edges(4, [])


def test_lifts_codec_and_srg_check_read_the_arrays():
    g = parse_graph6(encode_graph6(rook_graph_4x4()))
    for lift, param in ((lift_path_complex, 3), (lift_clique_complex, 3), (lift_ring_complex, 5)):
        lift(g, param).check()
    assert srg_parameters(g) == (16, 6, 2, 2)
    assert g._edges is None and g._adjacency is None  # no tuple view was built


# -- graph6 -------------------------------------------------------------------


def test_codec_matches_the_reference_on_random_graphs():
    """n from 0 to 80: short headers up to 62 vertices, extended above."""
    rng = np.random.default_rng(19)
    for n in range(81):
        for p in (0.0, float(rng.uniform(0.05, 0.95)), 1.0):
            g = random_graph(n, p, rng)
            encoded = encode_graph6(g)
            assert encoded == ref_encode_graph6(g.n, g.edges)
            assert encoded.startswith("~") == (n > 62)
            assert tuple_form(parse_graph6(encoded)) == ref_parse_graph6(encoded)
            assert parse_graph6(encoded) == g


def test_mutated_payloads_match_the_reference(mutate_bytes):
    """The payloads of ``test_mutated_payloads_load_or_raise``: both load
    the same graph or both raise GraphParseError with the same message, the
    checks running in one order: header byte, length header, the first bad
    body byte, then trailing bits."""
    rng = np.random.default_rng(23)
    payloads = [encode_graph6(random_graph(int(rng.integers(0, 80)), 0.4, rng))
                .encode("ascii") for _ in range(20)]
    loaded = rejected = 0
    for trial in range(2000):
        data = payloads[trial % len(payloads)]
        for _ in range(int(rng.integers(1, 4))):
            data = mutate_bytes(data, rng)
        data = data if trial % 2 else data.decode("latin-1")
        got, want = outcome(parse_graph6, data), outcome(ref_parse_graph6, data)
        assert got == want, data
        loaded += got[0] == "ok"
        rejected += got[0] is GraphParseError
    assert loaded > 50 and rejected > 1000


@pytest.mark.parametrize("payload", [
    "C" + chr(20),  # a bad body byte
    "C~" + chr(20),  # the body too long, which the length header reports first
    bytes([63 + 2, 63 + 0b110000]),  # trailing bits
    bytes([63 + 4, 200, 63 + 0b111111]),  # a bad byte before trailing bits
    bytes([63 + 4, 63 + 0b111111, 200]),
    "~??" + chr(20),  # a bad byte in the extended header
    "~?@A" + "?" * 5,  # a short body for n=65
    "~??A",  # n=1 in the extended form
    "~~???????",
    "",
    "Cé",
])
def test_each_fault_gets_the_reference_message(payload):
    assert outcome(parse_graph6, payload) == outcome(ref_parse_graph6, payload)
