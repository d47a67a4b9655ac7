"""Lifting transformations, adjacency structure, families, serialization."""

import itertools
import time

import networkx as nx
import numpy as np
import pytest

from pathcomplex.complexes import (
    CapacityError,
    SerializationError,
    canonical_path,
    canonical_ring,
    cyclic_families,
    deserialize_complex,
    lift_clique_complex,
    lift_path_complex,
    lift_ring_complex,
    serialize_complex,
)
from pathcomplex.graphs import (
    SimpleGraph,
    apply_permutation,
    complete_graph,
    cycle_graph,
    parse_graph6,
    path_graph,
    random_graph,
    random_permutation,
)

FIG3B = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
FIG2 = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


# -- independent oracles ----------------------------------------------------


def oracle_paths(g, max_dim):
    """Every vertex sequence, filtered to allowed simple canonical paths."""
    out = [set() for _ in range(max_dim + 1)]
    for p in range(max_dim + 1):
        for seq in itertools.permutations(range(g.n), p + 1):
            if any(not g.has_edge(seq[i], seq[i + 1]) for i in range(p)):
                continue
            if p >= 1 and seq[0] > seq[-1]:
                continue
            out[p].add(seq)
    return out


def oracle_cliques(g, max_dim):
    out = [set() for _ in range(max_dim + 1)]
    for p in range(max_dim + 1):
        for combo in itertools.combinations(range(g.n), p + 1):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                out[p].add(combo)
    return out


def oracle_chordless_cycles(g, max_ring):
    """Canonical chordless cycles via the reference cycle enumerator."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    out = set()
    for cyc in nx.chordless_cycles(h):
        if 3 <= len(cyc) <= max_ring:
            out.add(canonical_ring(cyc))
    return out


def oracle_path_boundary(g, seq, mode="incidence"):
    seq = tuple(seq)
    p = len(seq) - 1
    out = set()
    for q in range(p + 1):
        if 0 < q < p:
            if mode == "truncation" or not g.has_edge(seq[q - 1], seq[q + 1]):
                continue
        out.add(canonical_path(seq[:q] + seq[q + 1:]))
    return out


# -- worked examples --------------------------------------------------------


class TestPathLift:
    def test_path_graph_counts(self):
        c = lift_path_complex(path_graph(4), 3)
        assert c.counts() == [4, 3, 2, 1]
        assert c.members_by_dim[3] == [(0, 1, 2, 3)]

    def test_four_cycle_counts_and_top_member(self):
        c = lift_path_complex(FIG3B, 3)
        assert c.counts() == [4, 4, 4, 4]
        assert (0, 2, 3, 1) in c.members_by_dim[3]

    def test_interior_deletions_blocked_without_skip_edge(self):
        c = lift_path_complex(FIG3B, 3)
        gid = c.member_id(3, (1, 0, 2, 3))
        carriers = sorted(c.carrier_of(b) for b in c.boundary_of(gid))
        assert carriers == [(0, 2, 3), (1, 0, 2)]

    def test_enumeration_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            g = random_graph(int(rng.integers(1, 9)), float(rng.uniform(0.2, 0.8)), rng)
            c = lift_path_complex(g, 4)
            want = oracle_paths(g, 4)
            for p in range(5):
                assert set(c.members_by_dim[p]) == want[p]
                assert len(c.members_by_dim[p]) == len(want[p])

    def test_boundaries_match_oracle(self):
        rng = np.random.default_rng(33)
        for mode in ("incidence", "truncation"):
            g = random_graph(8, 0.5, rng)
            c = lift_path_complex(g, 4, boundary_mode=mode)
            for p in range(1, 5):
                for gid in c.dim_range(p):
                    got = {c.carrier_of(b) for b in c.boundary_of(gid)}
                    assert got == oracle_path_boundary(g, c.carrier_of(gid), mode)

    def test_closure_both_truncations_present(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_graph(8, 0.5, rng)
            c = lift_path_complex(g, 4)
            for p in range(1, 5):
                for seq in c.members_by_dim[p]:
                    ids = {c.carrier_of(b) for b in c.boundary_of(c.member_id(p, seq))}
                    assert canonical_path(seq[1:]) in ids
                    assert canonical_path(seq[:-1]) in ids

    def test_boundary_size_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(8, 0.6, rng)
            c = lift_path_complex(g, 4)
            for p in range(1, 5):
                for gid in c.dim_range(p):
                    assert 2 <= len(c.boundary_of(gid)) <= p + 1

    def test_complete_graph_boundaries_are_maximal(self):
        c = lift_path_complex(complete_graph(5), 4)
        for p in range(1, 5):
            for gid in c.dim_range(p):
                assert len(c.boundary_of(gid)) == p + 1

    def test_transpose_consistency(self):
        g = random_graph(8, 0.5, np.random.default_rng(7))
        for c in (
            lift_path_complex(g, 3),
            lift_clique_complex(g, 3),
            lift_ring_complex(g, 5),
        ):
            co_indptr, co_indices = c.coboundary_csr()
            for gid in range(c.total):
                for b in c.boundary_of(gid):
                    assert gid in co_indices[co_indptr[b]:co_indptr[b + 1]]
            for gid in range(c.total):
                for cb in co_indices[co_indptr[gid]:co_indptr[gid + 1]]:
                    assert gid in c.boundary_of(cb)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_graph(8, 0.5, rng)
            pi = random_permutation(8, rng)
            a = lift_path_complex(g, 3)
            b = lift_path_complex(apply_permutation(g, pi), 3)
            assert a.counts() == b.counts()
            sizes = [np.diff(x.boundary_csr()[0]) for x in (a, b)]
            assert sorted(sizes[0]) == sorted(sizes[1])

    def test_member_cap(self):
        with pytest.raises(CapacityError):
            lift_path_complex(complete_graph(8), 5, member_cap=100)

    def test_degenerate_dimension_zero(self):
        c = lift_path_complex(complete_graph(3), 0)
        assert c.counts() == [3]

    def test_empty_graph(self):
        c = lift_path_complex(SimpleGraph.from_edges(0, []), 2)
        assert c.counts() == [0, 0, 0]

    def test_truncation_mode_keeps_two_boundaries(self):
        c = lift_path_complex(complete_graph(5), 3, boundary_mode="truncation")
        for p in range(1, 4):
            for gid in c.dim_range(p):
                assert len(c.boundary_of(gid)) == 2

    def test_ids_deterministic_lex_order(self):
        g = random_graph(8, 0.5, np.random.default_rng(17))
        c1 = lift_path_complex(g, 3)
        c2 = lift_path_complex(g, 3)
        assert c1.members_by_dim == c2.members_by_dim
        for p in range(4):
            assert c1.members_by_dim[p] == sorted(c1.members_by_dim[p])


class TestCliqueLift:
    def test_triangle_with_pendant(self):
        c = lift_clique_complex(FIG2, 2)
        assert c.counts() == [4, 4, 1]

    def test_complete_graph_binomials(self):
        c = lift_clique_complex(complete_graph(4), 3)
        assert c.counts() == [4, 6, 4, 1]

    def test_edgeless(self):
        c = lift_clique_complex(SimpleGraph.from_edges(3, []), 2)
        assert c.counts() == [3, 0, 0]

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(8, 0.6, rng)
            c = lift_clique_complex(g, 3)
            want = oracle_cliques(g, 3)
            for p in range(4):
                assert set(c.members_by_dim[p]) == want[p]

    def test_boundary_is_all_facets(self):
        g = complete_graph(5)
        c = lift_clique_complex(g, 3)
        gid = c.member_id(3, (0, 1, 2, 3))
        assert sorted(c.carrier_of(b) for b in c.boundary_of(gid)) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        ]


class TestRingLift:
    def test_square_single_cell(self):
        c = lift_ring_complex(parse_graph6("Cl"), 4)
        assert c.counts() == [4, 4, 1]
        assert len(c.boundary_of(c.dim_offsets[2])) == 4

    def test_k4_triangles_only(self):
        c = lift_ring_complex(complete_graph(4), 4)
        assert c.counts()[2] == 4
        assert all(len(carrier) == 3 for carrier in c.members_by_dim[2])

    def test_square_without_room_for_rings(self):
        c = lift_ring_complex(parse_graph6("Cl"), 3)
        assert c.counts() == [4, 4, 0]

    def test_matches_reference_enumerator(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            g = random_graph(int(rng.integers(3, 10)), float(rng.uniform(0.2, 0.7)), rng)
            for max_ring in (3, 4, 6):
                c = lift_ring_complex(g, max_ring)
                assert set(c.members_by_dim[2]) == oracle_chordless_cycles(g, max_ring)

    def test_ring_boundary_is_its_edge_set(self):
        g = parse_graph6("Cl")
        c = lift_ring_complex(g, 4)
        ring = c.dim_offsets[2]
        edges = {c.carrier_of(b) for b in c.boundary_of(ring)}
        assert edges == set(g.edges)


class TestCyclicFamilies:
    def test_worked_square_listing(self):
        c = lift_ring_complex(FIG3B, 4)
        fam = cyclic_families(c.member(c.dim_offsets[2]))
        assert fam.families[3] == frozenset(
            {(1, 0, 2, 3), (0, 2, 3, 1), (0, 1, 3, 2), (2, 0, 1, 3)}
        )
        assert fam.families[2] == frozenset(
            {(0, 1, 3), (0, 2, 3), (1, 0, 2), (1, 3, 2)}
        )
        assert fam.families[1] == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})
        assert fam.families[0] == frozenset({(0,), (1,), (2,), (3,)})

    def test_triangle_families(self):
        c = lift_ring_complex(complete_graph(3), 3)
        fam = cyclic_families(c.member(c.dim_offsets[2]))
        assert [len(f) for f in fam.families] == [3, 3, 3]

    def test_vertex_and_edge_families(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_graph(8, 0.4, rng)
            c = lift_ring_complex(g, 6)
            for gid in c.dim_range(2):
                ring = c.carrier_of(gid)
                fam = cyclic_families(c.member(gid))
                assert fam.families[0] == frozenset((v,) for v in ring)
                m = len(ring)
                edges = frozenset(
                    canonical_path((ring[i], ring[(i + 1) % m])) for i in range(m)
                )
                assert fam.families[1] == edges
                for p in range(1, m):
                    assert len(fam.families[p]) == m

    def test_rotation_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_graph(9, 0.35, rng)
            c = lift_ring_complex(g, 6)
            for gid in c.dim_range(2):
                ring = c.carrier_of(gid)
                fam = cyclic_families(c.member(gid))
                m = len(ring)
                rotations = [
                    tuple(ring[(i + j) % m] for j in range(m)) for i in range(m)
                ]
                for p in range(m):
                    want = {
                        canonical_path(rot[:p + 1]) for rot in rotations
                    } | {
                        canonical_path(rot[::-1][:p + 1]) for rot in rotations
                    }
                    assert fam.families[p] == want

    def test_rejects_non_cells(self):
        c = lift_path_complex(path_graph(3), 2)
        with pytest.raises(ValueError):
            cyclic_families(c.member(0))


class TestCanonicalForms:
    def test_canonical_path(self):
        assert canonical_path((3, 1, 0)) == (0, 1, 3)
        assert canonical_path((0, 1, 3)) == (0, 1, 3)
        assert canonical_path((2,)) == (2,)

    def test_canonical_ring(self):
        assert canonical_ring((1, 0, 2, 3)) == (0, 1, 3, 2)
        assert canonical_ring((0, 1, 3, 2)) == (0, 1, 3, 2)
        assert canonical_ring((3, 2, 0, 1)) == (0, 1, 3, 2)


class TestSerialization:
    def test_roundtrip_examples(self):
        for c in (
            lift_path_complex(path_graph(4), 3),
            lift_ring_complex(complete_graph(4), 4),
            lift_clique_complex(FIG2, 2),
        ):
            assert deserialize_complex(serialize_complex(c)) == c

    def test_roundtrip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = random_graph(int(rng.integers(1, 9)), 0.5, rng)
            for c in (
                lift_path_complex(g, 3),
                lift_path_complex(g, 3, boundary_mode="truncation"),
                lift_clique_complex(g, 3),
                lift_ring_complex(g, 5),
            ):
                assert deserialize_complex(serialize_complex(c)) == c

    def test_dangling_boundary_id(self):
        text = serialize_complex(lift_path_complex(path_graph(4), 2))
        lines = text.splitlines()
        idx = lines.index("boundaries") + 5  # a dimension-1 member's line
        gid = lines[idx].split(":")[0]
        tampered = "\n".join(
            lines[:idx] + [f"{gid}: 999 1000"] + lines[idx + 1:]
        )
        with pytest.raises(SerializationError, match="dangling"):
            deserialize_complex(tampered)

    def test_version_mismatch(self):
        text = serialize_complex(lift_path_complex(path_graph(3), 1))
        with pytest.raises(SerializationError, match="version"):
            deserialize_complex(text.replace("PCX v1", "PCX v9", 1))

    @pytest.mark.parametrize("text", [
        "PCX v1 kind=path n=2 maxdim\n",  # header field without '='
        "PCX v1 type=path n=2 maxdim=0\n",  # header without kind=
        "PCX v1 kind=path n=2 maxdim=0\ndim 0 count 3\n0: 0\n",  # short section
        "PCX v1 kind=path n=x maxdim=0\n",  # non-integer n
    ])
    def test_malformed_payload_raises_serialization_error(self, text):
        with pytest.raises(SerializationError):
            deserialize_complex(text)

    @pytest.mark.parametrize("text", [
        "PCX v1 kind=path n=3 maxdim=-1\nboundaries\n",
        # a 4-cycle's ring lift with empty dimensions 3 and 4 appended
        serialize_complex(lift_ring_complex(cycle_graph(4), 4))
        .replace("maxdim=2", "maxdim=4", 1)
        .replace("boundaries\n", "dim 3 count 0\ndim 4 count 0\nboundaries\n", 1),
    ])
    def test_maxdim_out_of_range_rejected(self, text):
        with pytest.raises(SerializationError, match="maxdim"):
            deserialize_complex(text)

    @pytest.mark.parametrize("section, old, new, message", [
        ("members", "5: 1 2\n", "5: 0 1\n", "repeat"),  # duplicated member
        ("members", "4: 0 1\n", "4: 1 0\n", "canonical"),  # reversed edge
        ("boundaries", "7: 4 5\n", "7: 4 6\n", "not a face"),  # (2,3) bounds (0,1,2)
        ("boundaries", "8: 5 6\n", "7: 4 5\n", "repeated boundary line"),
        ("boundaries", "7: 4 5\n", "7: 4 4\n", "repeated boundary id"),
    ])
    def test_structurally_invalid_payload_rejected(self, section, old, new, message):
        # path_graph(4) to dimension 2: edges are ids 4..6, 2-paths 7 and 8
        text = serialize_complex(lift_path_complex(path_graph(4), 2))
        head, _, tail = text.partition("boundaries\n")
        if section == "members":
            assert old in head
            head = head.replace(old, new)
        else:
            assert old in tail
            tail = tail.replace(old, new)
        with pytest.raises(SerializationError, match=message):
            deserialize_complex(head + "boundaries\n" + tail)

    @pytest.mark.parametrize("kind, members, message", [
        # edges (0,1) and (0,2) only: 0-1-2 is no walk and no clique
        ("path", [[(0,), (1,), (2,)], [(0, 1), (0, 2)], [(0, 1, 2)]], "not a walk"),
        ("simplex", [[(0,), (1,), (2,)], [(0, 1), (0, 2)], [(0, 1, 2)]],
         "not a clique"),
        # in K4 the 4-cycle 0-1-2-3 has the chords (0,2) and (1,3)
        ("cell", [[(v,) for v in range(4)], list(itertools.combinations(range(4), 2)),
                  [(0, 1, 2), (0, 1, 2, 3), (0, 1, 3), (0, 2, 3), (1, 2, 3)]],
         "not a chordless cycle"),
    ])
    def test_carrier_outside_source_graph_rejected(self, kind, members, message):
        lines = [f"PCX v1 kind={kind} n={len(members[0])} maxdim={len(members) - 1}"]
        gid = 0
        for p, ms in enumerate(members):
            lines.append(f"dim {p} count {len(ms)}")
            for carrier in ms:
                lines.append(f"{gid}: " + " ".join(map(str, carrier)))
                gid += 1
        lines.append("boundaries")
        lines.extend(f"{i}:" for i in range(gid))
        with pytest.raises(SerializationError, match=message):
            deserialize_complex("\n".join(lines) + "\n")

    @pytest.mark.parametrize("complex_, old, new", [
        (lift_path_complex(path_graph(3), 1), "3: 0 1\n", "3: \n"),  # empty
        (lift_path_complex(path_graph(4), 2), "7: 4 5\n", "7: 4\n"),  # end (1,2)
        (lift_clique_complex(complete_graph(3), 2), "6: 3 4 5\n", "6: 3 4\n"),
        (lift_ring_complex(cycle_graph(4), 4), "8: 4 5 6 7\n", "8: 4 5 6\n"),
    ])
    def test_boundary_missing_a_face_rejected(self, complex_, old, new):
        head, _, tail = serialize_complex(complex_).partition("boundaries\n")
        assert old in tail
        with pytest.raises(SerializationError, match="lacks"):
            deserialize_complex(head + "boundaries\n" + tail.replace(old, new))

    def test_header_n_must_match_the_vertex_members(self):
        # a reader that trusted n would size the source graph by it
        text = ("PCX v1 kind=path n=100000000000000000000 maxdim=0\n"
                "dim 0 count 1\n0: 0\nboundaries\n0:\n")
        start = time.perf_counter()
        with pytest.raises(SerializationError, match="dim 0 count 1 differs"):
            deserialize_complex(text)
        assert time.perf_counter() - start < 1.0

    def test_negative_count_rejected(self):
        # read as range(-3) the section would hold no members
        text = ("PCX v1 kind=path n=2 maxdim=1\ndim 0 count 2\n0: 0\n1: 1\n"
                "dim 1 count -3\nboundaries\n0:\n1:\n")
        with pytest.raises(SerializationError, match="dim 1 count -3 is negative"):
            deserialize_complex(text)

    def test_vertex_id_past_int64_raises_serialization_error(self):
        text = ("PCX v1 kind=path n=100000000000000000000 maxdim=0\n"
                "dim 0 count 1\n0: 99999999999999999999\nboundaries\n0:\n")
        with pytest.raises(SerializationError):
            deserialize_complex(text)

    def test_mutated_payloads_load_or_raise(self):
        # one seeded single-line edit per read: delete, duplicate or swap a
        # line, or change one token to a nearby integer or a word
        rng = np.random.default_rng(17)
        for _ in range(6):
            g = random_graph(int(rng.integers(3, 8)), 0.6, rng)
            for c in (
                lift_path_complex(g, 3),
                lift_path_complex(g, 3, boundary_mode="truncation"),
                lift_clique_complex(g, 3),
                lift_ring_complex(g, 5),
            ):
                lines = serialize_complex(c).split("\n")
                for _ in range(20):
                    text = "\n".join(_mutate(lines, rng))
                    start = time.perf_counter()
                    try:
                        assert isinstance(deserialize_complex(text), type(c))
                    except SerializationError:
                        pass
                    assert time.perf_counter() - start < 1.0, text

    def test_upper_adjacency_survives_roundtrip(self):
        c = lift_path_complex(FIG3B, 3)
        d = deserialize_complex(serialize_complex(c))
        for a, b in zip(c.upper_adjacency(), d.upper_adjacency()):
            assert np.array_equal(a, b)


def _mutate(lines, rng) -> list:
    lines = list(lines)
    i = int(rng.integers(len(lines)))
    edit = int(rng.integers(4))
    if edit == 0:
        del lines[i]
    elif edit == 1:
        lines.insert(i, lines[i])
    elif edit == 2:
        j = int(rng.integers(len(lines)))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split(" ")
        q = int(rng.integers(len(tokens)))
        key, eq, value = tokens[q].rpartition("=")
        number = value.rstrip(":")
        if number.lstrip("-").isdigit() and rng.random() < 0.75:
            new = str(int(number) + int(rng.choice([-2, -1, 1, 2])))
        else:
            new = "word"
        tokens[q] = key + eq + new + value[len(number):]
        lines[i] = " ".join(tokens)
    return lines


class TestEmptyDimensions:
    """Dimensions past the last member cost no per-dimension search."""

    @pytest.mark.parametrize("lift, param, reference", [
        (lift_path_complex, 500, 7),
        (lift_path_complex, 1000, 7),
        (lift_clique_complex, 500, 3),
        (lift_ring_complex, 10 ** 5, 6),
    ])
    def test_lift_to_a_high_dimension(self, lift, param, reference):
        start = time.perf_counter()
        c = lift(cycle_graph(6), param)
        assert time.perf_counter() - start < 1.0
        ref = lift(cycle_graph(6), reference)
        assert c.counts() == ref.counts() + [0] * (len(c.counts()) - len(ref.counts()))
        for a, b in zip(c.boundary_csr(), ref.boundary_csr()):
            assert np.array_equal(a, b)

    def test_read_many_empty_sections(self):
        text = ("PCX v1 kind=path n=0 maxdim=599\n"
                + "".join(f"dim {p} count 0\n" for p in range(600)) + "boundaries\n")
        start = time.perf_counter()
        c = deserialize_complex(text)
        assert time.perf_counter() - start < 1.0
        assert c.counts() == [0] * 600
        assert [a.tolist() for a in c.boundary_csr()] == [[0], []]


class TestAdjacencyStructure:
    def test_upper_adjacency_witnesses(self):
        c = lift_path_complex(FIG3B, 3)
        src, tau, delta = c.upper_adjacency()
        for s, t, d in zip(src, tau, delta):
            assert s in c.boundary_of(d)
            assert t in c.boundary_of(d)
            assert s != t

    def test_lower_adjacency_witnesses(self):
        c = lift_path_complex(FIG3B, 3)
        src, tau, delta = c.lower_adjacency()
        for s, t, d in zip(src, tau, delta):
            assert d in c.boundary_of(s)
            assert d in c.boundary_of(t)
            assert s != t

    def test_multiplicity_per_witness(self):
        # two members sharing two co-boundaries appear twice in each other's list
        c = lift_path_complex(complete_graph(3), 2)
        src, tau, delta = c.upper_adjacency()
        e01 = c.member_id(1, (0, 1))
        e02 = c.member_id(1, (0, 2))
        hits = [
            (s, t) for s, t in zip(src, tau) if s == e01 and t == e02
        ]
        # e(0,1) and e(0,2) share the co-boundaries e(0,1,2)... count them
        shared = [
            d for d in range(c.total)
            if e01 in c.boundary_of(d) and e02 in c.boundary_of(d)
        ]
        assert len(hits) == len(shared) >= 1


class TestDerivedStructuresOracle:
    """Boundary rows, the coboundary CSR and both triple sets against
    pure-Python constructions from the carriers alone."""

    @staticmethod
    def oracle_boundaries(g, c, mode):
        ids = {c.carrier_of(gid): gid for gid in range(c.total)}
        rows = []
        for gid in range(c.total):
            seq = c.carrier_of(gid)
            p = c.dim_of(gid)
            if p == 0:
                faces = set()
            elif c.kind == "path":
                faces = oracle_path_boundary(g, seq, mode)
            elif c.kind == "cell" and p == 2:
                m = len(seq)
                faces = {canonical_path((seq[i], seq[(i + 1) % m])) for i in range(m)}
            else:
                faces = set(itertools.combinations(seq, p))
            rows.append(sorted(ids[f] for f in faces))
        return rows

    @staticmethod
    def pairs(rows):
        return sorted(
            (s, t, d) for d, row in enumerate(rows) for s in row for t in row if s != t
        )

    def test_every_kind_and_boundary_mode(self):
        rng = np.random.default_rng(43)
        for _ in range(6):
            g = random_graph(int(rng.integers(3, 9)), float(rng.uniform(0.3, 0.8)), rng)
            for c, mode in (
                (lift_path_complex(g, 3), "incidence"),
                (lift_path_complex(g, 3, boundary_mode="truncation"), "truncation"),
                (lift_clique_complex(g, 3), None),
                (lift_ring_complex(g, 5), None),
            ):
                bnd = self.oracle_boundaries(g, c, mode)
                co = [[] for _ in range(c.total)]
                for gid, row in enumerate(bnd):
                    for b in row:
                        co[b].append(gid)
                for (indptr, indices), rows in (
                    (c.boundary_csr(), bnd), (c.coboundary_csr(), co)
                ):
                    assert len(indptr) == c.total + 1
                    assert [
                        indices[indptr[i]:indptr[i + 1]].tolist() for i in range(c.total)
                    ] == rows
                for triples, rows in (
                    (c.upper_adjacency(), bnd), (c.lower_adjacency(), co)
                ):
                    assert list(zip(*(t.tolist() for t in triples))) == self.pairs(rows)


class TestMemberIdRange:
    @pytest.mark.parametrize("gid", [-1, -3, -15, 15])
    def test_ids_outside_the_complex_raise(self, gid):
        c = lift_path_complex(cycle_graph(5), 2)
        assert c.total == 15
        for accessor in (c.dim_of, c.carrier_of, c.member, c.boundary_of):
            with pytest.raises(IndexError):
                accessor(gid)

    @pytest.mark.parametrize("dim", [-1, -2, -3, 3, 4])
    def test_dimensions_outside_the_complex_raise(self, dim):
        # path_graph(4) to dimension 2: a negative dimension would wrap around
        c = lift_path_complex(path_graph(4), 2)
        assert c.total == 9 and c.member_id(2, (0, 1, 2)) == 7
        assert c.dim_range(2) == range(7, 9)
        with pytest.raises(KeyError):
            c.member_id(dim, (0, 1, 2))
        with pytest.raises(IndexError):
            c.dim_range(dim)

    def test_dim_of_passes_empty_dimensions(self):
        c = lift_path_complex(path_graph(3), 4)  # dimensions 3 and 4 are empty
        assert c.counts() == [3, 2, 1, 0, 0]
        assert [c.dim_of(gid) for gid in range(c.total)] == [0, 0, 0, 1, 1, 2]
