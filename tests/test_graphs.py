"""Graph container, codecs, and permutation machinery."""

import time

import networkx as nx
import numpy as np
import pytest

from pathcomplex import complexes, graphs
from pathcomplex.graphs import (
    DEFAULT_MEMBER_CAP,
    CapacityError,
    GraphParseError,
    SimpleGraph,
    VertexPermutation,
    apply_permutation,
    complete_graph,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_graph,
    random_permutation,
)


def nx_to_simple(nxg):
    mapping = {v: i for i, v in enumerate(sorted(nxg.nodes()))}
    return SimpleGraph.from_edges(
        nxg.number_of_nodes(),
        [(mapping[u], mapping[v]) for u, v in nxg.edges()],
    )


class TestGraph6:
    def test_complete_four(self):
        g = parse_graph6("C~")
        assert g.n == 4
        assert g.edge_count == 6

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1
        assert g.edge_count == 0

    def test_four_cycle_bit_pattern(self):
        g = parse_graph6("Cl")
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_roundtrip_against_reference_codec(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(0, 11))
            g = random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
            encoded = encode_graph6(g)
            # reference encoder must agree byte for byte
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            ref = nx.to_graph6_bytes(h, header=False).strip().decode("ascii")
            assert encoded == ref
            assert parse_graph6(encoded) == g
            assert parse_graph6(ref) == g

    def test_extended_length_form(self):
        rng = np.random.default_rng(5)
        g = random_graph(70, 0.1, rng)
        encoded = encode_graph6(g)
        assert encoded.startswith("~")
        assert parse_graph6(encoded) == g
        h = nx.Graph()
        h.add_nodes_from(range(70))
        h.add_edges_from(g.edges)
        ref = nx.to_graph6_bytes(h, header=False).strip().decode("ascii")
        assert encoded == ref

    def test_optional_header_prefix(self):
        assert parse_graph6(">>graph6<<C~").n == 4

    def test_character_out_of_range_names_offset(self):
        with pytest.raises(GraphParseError, match="offset 1"):
            parse_graph6("C" + chr(20))

    def test_trailing_bits_rejected(self):
        # n=2 needs one bit; set a padding bit too
        bad = bytes([63 + 2, 63 + 0b110000]).decode("ascii")
        with pytest.raises(GraphParseError, match="trailing bits"):
            parse_graph6(bad)

    def test_truncated_body_rejected(self):
        with pytest.raises(GraphParseError, match="length header"):
            parse_graph6("D")  # n=5 needs body bytes

    def test_empty_payload(self):
        with pytest.raises(GraphParseError):
            parse_graph6("")

    def test_non_ascii_text_names_offset(self):
        with pytest.raises(GraphParseError, match="offset 1: not ASCII"):
            parse_graph6("C\u00e9")

    def test_mutated_payloads_load_or_raise(self, mutate_bytes):
        # seeded byte edits of valid payloads, short and extended form, read
        # as bytes and as text
        rng = np.random.default_rng(23)
        payloads = [encode_graph6(random_graph(int(rng.integers(0, 80)), 0.4, rng))
                    .encode("ascii") for _ in range(20)]
        for trial in range(2000):
            data = payloads[trial % len(payloads)]
            for _ in range(int(rng.integers(1, 4))):
                data = mutate_bytes(data, rng)
            start = time.perf_counter()
            try:
                assert isinstance(
                    parse_graph6(data if trial % 2 else data.decode("latin-1")),
                    SimpleGraph)
            except GraphParseError:
                pass
            assert time.perf_counter() - start < 1.0, data



class TestEdgeList:
    def test_triangle(self):
        g = parse_edge_list("n 3\n0 1\n1 2\n0 2")
        assert g == complete_graph(3)

    def test_path4(self):
        g = parse_edge_list("n 4\n0 1\n1 2\n2 3")
        assert g == path_graph(4)

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("n 2\n0 0")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphParseError, match="out of range"):
            parse_edge_list("n 2\n0 5")

    def test_missing_header(self):
        with pytest.raises(GraphParseError, match="header"):
            parse_edge_list("0 1\n")

    def test_comments_and_duplicates_collapse(self):
        g = parse_edge_list("# corpus\nn 3\n0 1\n1 0\n# dup\n1 2")
        assert g.edge_count == 2

    def test_vertex_count_above_the_member_cap(self, monkeypatch):
        # refused before anything vertex-sized is allocated: no lift under
        # the default cap could take the graph, since each lists every vertex
        assert complexes.CapacityError is CapacityError
        assert complexes.DEFAULT_MEMBER_CAP is DEFAULT_MEMBER_CAP
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="line 2: 1000000000 vertices "
                                                "exceed the member cap 50000000"):
            parse_edge_list("# huge\nn 1000000000\n")
        assert time.perf_counter() - start < 1.0
        monkeypatch.setattr(graphs, "DEFAULT_MEMBER_CAP", 3)
        assert parse_edge_list("n 3\n0 1").n == 3
        with pytest.raises(CapacityError, match="4 vertices"):
            parse_edge_list("n 4\n0 1")

    def test_mutated_edge_lists_load_or_raise(self, tmp_path, mutate_bytes):
        # seeded byte edits of valid edge lists, read as the command line
        # reads them
        rng = np.random.default_rng(31)
        texts = []
        for _ in range(20):
            g = random_graph(int(rng.integers(0, 20)), 0.4, rng)
            lines = ["# edges", f"n {g.n}"] + [f"{u} {v}" for u, v in g.sorted_edges()]
            texts.append("\n".join(lines).encode("ascii"))
        path = tmp_path / "g.edges"
        for trial in range(5000):
            data = texts[trial % len(texts)]
            for _ in range(int(rng.integers(1, 4))):
                data = mutate_bytes(data, rng)
            path.write_bytes(data)
            start = time.perf_counter()
            try:
                assert isinstance(
                    parse_edge_list(graphs.read_text(path, "UTF-8", GraphParseError)),
                    SimpleGraph)
            except (GraphParseError, CapacityError):
                pass
            assert time.perf_counter() - start < 1.0, data


class TestPermutations:
    def test_triangle_fixed(self):
        g = complete_graph(3)
        assert apply_permutation(g, VertexPermutation((2, 0, 1))) == g

    def test_path_reversal_same_edge_set(self):
        g = path_graph(4)
        assert apply_permutation(g, VertexPermutation((3, 2, 1, 0))) == g

    def test_c4_by_hand(self):
        g = parse_graph6("Cl")
        out = apply_permutation(g, VertexPermutation((1, 0, 2, 3)))
        assert out.edges == frozenset({(0, 1), (0, 2), (2, 3), (1, 3)})

    def test_degree_multiset_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = random_graph(int(rng.integers(2, 10)), 0.4, rng)
            p = random_permutation(g.n, rng)
            h = apply_permutation(g, p)
            assert h.edge_count == g.edge_count
            assert h.degree_sequence() == g.degree_sequence()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_permutation(complete_graph(3), VertexPermutation((1, 0)))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            VertexPermutation((0, 0, 1))


class TestSimpleGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(2, [(1, 1)])

    def test_adjacency_consistent_with_edges(self):
        rng = np.random.default_rng(9)
        g = random_graph(8, 0.5, rng)
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert (v in g.adjacency[u]) == g.has_edge(u, v)

    def test_multi_edges_collapse(self):
        g = SimpleGraph.from_edges(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1
