"""The array liftings against the recursive tuple liftings they replaced.

The reference below enumerates carriers by depth-first search into tuples
and fills the boundary CSR through a dict from carrier to id, one member at
a time.  The array liftings must give the same member lists, the same CSR
bytes and the same PCX text, and the PCX reader must reject a tampered
boundary row with the same message as the reference's checks.
"""

import itertools

import numpy as np
import pytest

from pathcomplex.complexes import (
    CapacityError,
    SerializationError,
    _row_index,
    canonical_path,
    deserialize_complex,
    lift_clique_complex,
    lift_path_complex,
    lift_ring_complex,
    serialize_complex,
)
from pathcomplex.graphs import (
    SimpleGraph,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_graph,
    read_graph6_file,
)

# -- the reference lifting ---------------------------------------------------


def ref_faces(kind, g, boundary_mode="incidence"):
    skips = boundary_mode == "incidence"

    def faces(c):
        last = len(c) - 1
        if kind == "cell" and last > 1:
            return [canonical_path((c[q - 1], c[q])) for q in range(last + 1)]
        return [
            canonical_path(c[:q] + c[q + 1:]) for q in range(last + 1)
            if kind != "path" or q in (0, last)
            or skips and g.has_edge(c[q - 1], c[q + 1])
        ]

    return faces


def ref_assemble(members, faces):
    """(members, indptr, indices) with ascending face ids in every row."""
    offsets = list(itertools.accumulate(map(len, members), initial=0))
    sizes = [0] * len(members[0])
    flat = []
    for p in range(1, len(members)):
        lower = {c: offsets[p - 1] + i for i, c in enumerate(members[p - 1])}
        for carrier in members[p]:
            ids = sorted([lower[f] for f in faces(carrier)])
            sizes.append(len(ids))
            flat.extend(ids)
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return members, indptr, np.array(flat, dtype=np.int64)


def ref_path(g, max_dim, boundary_mode="incidence"):
    members = [[] for _ in range(max_dim + 1)]
    members[0] = [(v,) for v in range(g.n)]
    in_path = [False] * g.n

    def extend(path):
        for w in g.adjacency[path[-1]]:
            if in_path[w]:
                continue
            path.append(w)
            if path[0] < w:
                members[len(path) - 1].append(tuple(path))
            if len(path) <= max_dim:
                in_path[w] = True
                extend(path)
                in_path[w] = False
            path.pop()

    if max_dim >= 1:
        for s in range(g.n):
            in_path[s] = True
            extend([s])
            in_path[s] = False
    return ref_assemble(members, ref_faces("path", g, boundary_mode))


def ref_clique(g, max_dim):
    members = [[] for _ in range(max_dim + 1)]

    def extend(clique):
        v = clique[-1]
        for w in g.adjacency[v]:
            if w > v and all(g.has_edge(u, w) for u in clique):
                clique.append(w)
                members[len(clique) - 1].append(tuple(clique))
                if len(clique) <= max_dim:
                    extend(clique)
                clique.pop()

    for v in range(g.n):
        members[0].append((v,))
        if max_dim >= 1:
            extend([v])
    return ref_assemble(members, ref_faces("simplex", g))


def ref_ring(g, max_ring):
    rings = []

    def extend(path, blocked):
        v = path[-1]
        for w in g.adjacency[v]:
            if w <= path[0] or w in blocked or w in path:
                continue
            if g.has_edge(w, path[0]):
                if path[1] < w:
                    rings.append(tuple(path) + (w,))
                continue
            if len(path) + 1 < max_ring:
                path.append(w)
                extend(path, blocked | set(g.adjacency[v]))
                path.pop()

    for v0 in range(g.n):
        for v1 in g.adjacency[v0]:
            if v1 > v0:
                extend([v0, v1], frozenset())
    members = [[(v,) for v in range(g.n)], sorted(g.edges), sorted(rings)]
    return ref_assemble(members, ref_faces("cell", g))


def ref_serialize(kind, n, members, indptr, indices):
    lines = [f"PCX v1 kind={kind} n={n} maxdim={len(members) - 1}"]
    gid = 0
    for p, ms in enumerate(members):
        lines.append(f"dim {p} count {len(ms)}")
        for carrier in ms:
            lines.append(f"{gid}: " + " ".join(str(v) for v in carrier))
            gid += 1
    lines.append("boundaries")
    indptr, indices = indptr.tolist(), indices.tolist()
    for gid in range(len(indptr) - 1):
        lines.append(f"{gid}: " + " ".join(map(str, indices[indptr[gid]:indptr[gid + 1]])))
    return "\n".join(lines) + "\n"


def ref_row_error(kind, members, gid, ids):
    """The reference reader's message for boundary row ``ids`` of ``gid``."""
    offsets = list(itertools.accumulate(map(len, members), initial=0))
    max_dim = len(members) - 1
    source = SimpleGraph.from_edges(len(members[0]), members[1] if max_dim else [])
    faces = ref_faces(kind, source)
    ids = sorted(ids)
    dim = next(p for p in range(max_dim + 1) if gid < offsets[p + 1])
    lo, hi = offsets[max(dim - 1, 0)], offsets[dim]
    carrier = members[dim][gid - offsets[dim]]
    allowed = set(faces(carrier))
    for b in ids:
        if not lo <= b < hi:
            return f"dangling boundary id {b} for member {gid} (dimension {dim})"
        if members[dim - 1][b - lo] not in allowed:
            return f"boundary id {b} of member {gid} is not a face of its carrier"
    if len(set(ids)) != len(ids):
        return f"repeated boundary id for member {gid}"
    required = allowed if dim else set()
    if kind == "path" and dim:
        required = {canonical_path(carrier[1:]), canonical_path(carrier[:-1])}
    missing = required - {members[dim - 1][b - lo] for b in ids}
    if missing:
        return f"boundary of member {gid} lacks its face {min(missing)}"
    return None


# -- comparisons ---------------------------------------------------------------


def lift_both(g, kind, param, mode="incidence"):
    if kind == "path":
        return lift_path_complex(g, param, mode), ref_path(g, param, mode)
    if kind == "simplex":
        return lift_clique_complex(g, param), ref_clique(g, param)
    return lift_ring_complex(g, param), ref_ring(g, param)


def assert_same(c, kind, n, members, indptr, indices, text=True):
    """``c`` equals the reference lift; with ``text``, so do their PCX texts,
    and the text reads back as ``c``."""
    assert c.members_by_dim == members
    assert c.counts() == [len(ms) for ms in members]
    got_indptr, got_indices = c.boundary_csr()
    for got, want in ((got_indptr, indptr), (got_indices, indices)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    if text:
        payload = serialize_complex(c)
        assert payload == ref_serialize(kind, n, members, indptr, indices)
        assert deserialize_complex(payload) == c


def prefix(ref, dim):
    """The reference lift cut to dimensions 0..dim."""
    members, indptr, indices = ref
    total = sum(map(len, members[:dim + 1]))
    return members[:dim + 1], indptr[:total + 1], indices[:indptr[total]]


def check_lift(g, kind, param, mode="incidence", text=True):
    c, ref = lift_both(g, kind, param, mode)
    assert_same(c, kind, g.n, *ref, text=text)


KIND_PARAMS = [("path", "incidence"), ("path", "truncation"), ("simplex", None),
               ("cell", None)]


def manifest_graphs(srg_specs):
    return [g for spec in srg_specs.values() for g in read_graph6_file(spec.path)]


@pytest.mark.parametrize("mode", ["incidence", "truncation"])
def test_manifest_path_lifts(srg_specs, mode):
    for g in manifest_graphs(srg_specs):
        ref = ref_path(g, 3, mode)
        for dim in range(4):
            # the PCX text of a dimension-3 lift is checked on smaller graphs
            assert_same(lift_path_complex(g, dim, mode), "path", g.n,
                        *prefix(ref, dim), text=dim < 3)


def test_manifest_clique_and_ring_lifts(srg_specs):
    for g in manifest_graphs(srg_specs):
        check_lift(g, "simplex", 3)
        check_lift(g, "cell", 4)


@pytest.mark.parametrize("kind, mode", KIND_PARAMS)
def test_random_graphs(kind, mode):
    rng = np.random.default_rng(909)
    for _ in range(25):
        g = random_graph(int(rng.integers(2, 11)), float(rng.uniform(0.15, 0.9)), rng)
        for dim in range(6):
            check_lift(g, kind, dim + 3 if kind == "cell" else dim, mode)


@pytest.mark.parametrize("kind, mode", KIND_PARAMS)
def test_degenerate_graphs(kind, mode):
    graphs = [
        SimpleGraph.from_edges(0, []),
        SimpleGraph.from_edges(1, []),
        SimpleGraph.from_edges(5, [(0, 1), (3, 4)]),
        disjoint_union(cycle_graph(5), path_graph(4)),
    ]
    for g in graphs:
        for dim in range(4):
            check_lift(g, kind, dim + 3 if kind == "cell" else dim, mode)


def test_keys_wider_than_int64():
    # 70000**4 >= 2**63: the four-vertex faces of a dimension-4 path lift
    # cannot be packed in base n
    g = path_graph(70000)
    assert g.n ** 4 >= 2 ** 63
    ref = ref_path(g, 4)
    for dim in (3, 4):
        assert_same(lift_path_complex(g, dim), "path", g.n, *prefix(ref, dim),
                    text=False)


@pytest.mark.parametrize("kind, mode", KIND_PARAMS)
def test_wide_labels_read_back(kind, mode):
    # a dense graph on the top labels of 70000 vertices, read back from PCX
    rng = np.random.default_rng(11)
    small = random_graph(9, 0.7, rng)
    g = SimpleGraph.from_edges(70000, [(69991 + u, 69991 + v) for u, v in small.edges]
                               + [(0, 69991), (1, 69999)])
    check_lift(g, kind, 6 if kind == "cell" else 4, mode)


def test_row_index_matches_a_dict():
    rng = np.random.default_rng(5)
    for radix, width in ((3, 4), (70000, 5), (2 ** 31, 3), (2 ** 40, 2)):
        table = np.unique(rng.integers(0, radix, size=(300, width)), axis=0)
        queries = np.concatenate([table[rng.permutation(len(table))[:100]],
                                  rng.integers(0, radix, size=(100, width))])
        where = {tuple(row): i for i, row in enumerate(table.tolist())}
        want = [where.get(tuple(row), -1) for row in queries.tolist()]
        assert _row_index(table, queries).tolist() == want


def test_reader_messages_match_the_reference():
    """Tampered boundary rows are rejected with the reference's message."""
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(30):
        g = random_graph(int(rng.integers(3, 8)), float(rng.uniform(0.3, 0.9)), rng)
        for kind, mode in KIND_PARAMS:
            param = 4 if kind == "cell" else 3
            c, (members, indptr, indices) = lift_both(g, kind, param, mode or "incidence")
            if c.total == 0:
                continue
            text = serialize_complex(c)
            head, _, tail = text.partition("boundaries\n")
            lines = tail.splitlines()
            for _ in range(5):
                gid = int(rng.integers(0, c.total))
                row = indices[indptr[gid]:indptr[gid + 1]].tolist()
                lo = c.dim_offsets[max(c.dim_of(gid) - 1, 0)]
                tamper = int(rng.integers(0, 3))
                if tamper == 0 and row:  # drop one face
                    row.pop(int(rng.integers(0, len(row))))
                elif tamper == 1:  # add an id of the dimension below
                    row.append(lo + int(rng.integers(0, max(c.dim_offsets[c.dim_of(gid)] - lo, 1))))
                else:  # repeat one
                    row += row[:1]
                want = ref_row_error(kind, members, gid, row)
                lines_t = list(lines)
                lines_t[gid] = f"{gid}: " + " ".join(map(str, row))
                payload = head + "boundaries\n" + "\n".join(lines_t) + "\n"
                if want is None:
                    deserialize_complex(payload)
                else:
                    with pytest.raises(SerializationError) as info:
                        deserialize_complex(payload)
                    assert str(info.value) == want
                    checked += 1
    assert checked > 300


@pytest.mark.parametrize("kind, param", [("path", 3), ("simplex", 3), ("cell", 5)])
def test_cap_is_exact(kind, param):
    g = random_graph(9, 0.6, np.random.default_rng(3))
    lift = {"path": lift_path_complex, "simplex": lift_clique_complex,
            "cell": lift_ring_complex}[kind]
    total = lift(g, param).total
    assert lift(g, param, member_cap=total).total == total
    with pytest.raises(CapacityError):
        lift(g, param, member_cap=total - 1)
