"""The array liftings and the array PCX reader against the tuple code they
replaced.

The reference liftings enumerate carriers by depth-first search into tuples
and fill the boundary CSR through a dict from carrier to id, one member at
a time.  The array liftings must give the same member lists, the same CSR
bytes and the same PCX text, and every lift must pass ``check``.  The
reference reader parses a PCX payload line by line and checks each member
with tuple code and each boundary line against Python sets.  The array
reader must load the payloads it loads, as equal complexes, and reject the
others; a payload with a single fault gets the reference's message.
"""

import itertools

import numpy as np
import pytest

from pathcomplex.complexes import (
    LIFT_PARAMS,
    CapacityError,
    HigherOrderComplex,
    SerializationError,
    _SHAPES,
    _face_ids,
    _offsets,
    _row_index,
    _row_keys,
    _spans,
    canonical_path,
    canonical_ring,
    deserialize_complex,
    lift_clique_complex,
    lift_path_complex,
    lift_ring_complex,
    serialize_complex,
)
from pathcomplex.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_graph,
    read_graph6_file,
)
from test_complexes import _mutate

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


# -- the reference reader ------------------------------------------------------


def ref_deserialize(text):
    """The reference reader; any malformed payload raises SerializationError."""
    try:
        return _ref_parse(text)
    except SerializationError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        raise SerializationError(
            f"malformed PCX payload ({type(exc).__name__}: {exc})"
        ) from exc


def _ref_parse(text):
    lines = text.splitlines()
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
            if not _ref_canonical(kind, p, carrier):
                raise SerializationError(
                    f"member {gid_s} is not a canonical dimension-{p} {kind} carrier"
                )
            ms.append(carrier)
            expected_gid += 1
            pos += 1
        members.append(ms)
        carriers.append(_ref_rows(ms, p + 1))
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
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([b for r in rows for b in r], dtype=np.int64)
    return HigherOrderComplex(kind, n, max_dim, carriers, indptr, indices)


def _ref_canonical(kind, p, carrier):
    """True iff ``carrier`` is a simple dimension-p carrier in canonical orientation."""
    if len(set(carrier)) != len(carrier):
        return False
    if kind == "cell" and p == 2:
        return len(carrier) >= 3 and carrier == canonical_ring(carrier)
    canonical = canonical_path(carrier) if kind == "path" else tuple(sorted(carrier))
    return len(carrier) == p + 1 and carrier == canonical


def _ref_rows(carriers, width):
    """Carrier tuples as an int64 array at least ``width`` wide, rows padded with -1."""
    width = max(width, max(map(len, carriers), default=0))
    out = np.full((len(carriers), width), -1, dtype=np.int64)
    for i, c in enumerate(carriers):
        out[i, :len(c)] = c
    return out


def read_with(read, text):
    """The complex ``read`` makes of ``text``, or the message it raises."""
    try:
        return read(text)
    except SerializationError as exc:
        return str(exc)


# -- comparisons ---------------------------------------------------------------


def lift_both(g, kind, param, mode="incidence"):
    """The array lift, which must pass ``check``, and the reference lift."""
    if kind == "path":
        c, ref = lift_path_complex(g, param, mode), ref_path(g, param, mode)
    elif kind == "simplex":
        c, ref = lift_clique_complex(g, param), ref_clique(g, param)
    else:
        c, ref = lift_ring_complex(g, param), ref_ring(g, param)
    c.check()
    return c, ref


def assert_same(c, kind, n, members, indptr, indices, text=True):
    """``c`` equals the reference lift and passes ``check``; with ``text``, so
    do their PCX texts, and the text reads back as ``c``."""
    c.check()
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
    grid = SimpleGraph.from_edges(16, [(v, v + step) for v in range(16)
                                       for step in (1, 4)
                                       if v + step < 16 and (step == 4 or v % 4 < 3)])
    graphs = [
        SimpleGraph.from_edges(0, []),
        SimpleGraph.from_edges(1, []),
        SimpleGraph.from_edges(5, [(0, 1), (3, 4)]),
        disjoint_union(cycle_graph(5), path_graph(4)),
        # long chordless cycles, so some lifts hold no ring as wide as max_ring
        cycle_graph(9),
        grid,
        disjoint_union(cycle_graph(7), complete_graph(4)),
    ]
    for g in graphs:
        for param in range(3, 11) if kind == "cell" else range(4):
            check_lift(g, kind, param, mode)


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
    c = lift(g, param)
    c.check()
    total = c.total
    assert lift(g, param, member_cap=total).total == total
    with pytest.raises(CapacityError):
        lift(g, param, member_cap=total - 1)


# -- the array reader against the reference reader ------------------------------

# rings (0, 1, 2) and (0, 1, 3, 4): the triangle's row is padded with -1
RINGS = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4), (0, 4)])
PAYLOADS = {
    # path_graph(4) to dimension 2: edges are ids 4..6, 2-paths 7 and 8
    "path": serialize_complex(lift_path_complex(path_graph(4), 2)),
    # rings 11 (0, 1, 2) and 12 (0, 1, 3, 4)
    "cell": serialize_complex(lift_ring_complex(RINGS, 4)),
}


@pytest.mark.parametrize("kind, old, new", [
    # spellings that int and str.split accept
    ("path", "5: 1 2\n", "05: +1 0_2\n"),
    ("path", "5: 1 2\n", " 5 :1\t2\x1f\n"),
    ("path", "5: 1 2\n", "5:\xa0١ 2\n"),
    ("path", "7: 4 5\n", "7: 5 4\n"),
    # one fault each
    ("path", "0: 0\n1: 1\n", "1: 1\n0: 0\n"),
    ("path", "5: 1 2\n", "5: 1 9\n"),
    ("path", "5: 1 2\n", "5: 1 -1\n"),
    ("path", "5: 1 2\n", "5: 1 99999999999999999999\n"),
    ("path", "5: 1 2\n", "5: 2 1\n"),
    ("path", "5: 1 2\n", "5: 1\n"),
    ("path", "5: 1 2\n", "5\n"),
    ("path", "5: 1 2\n", "5: 1 2 3\n"),
    ("path", "5: 1 2\n", "5: 0 1 2 3 0 1 2 3 0 1 2 3 9\n"),
    ("path", "5: 1 2\n", "5: 1 x\n"),
    ("path", "5: 1 2\n", "6: 1 2\n"),
    ("path", "5: 1 2\n", "99999999999999999999: 1 2\n"),
    ("path", "6: 2 3\n", "6: 1 3\n"),
    ("path", "7: 0 1 2\n", "7: 0 1 3\n"),
    ("path", "0: \n", "0: 1\n"),
    ("path", "7: 4 5\n", "7: 4 6\n"),
    ("path", "7: 4 5\n", "7: 4 5 5\n"),
    ("path", "7: 4 5\n", "7: 4 5 9\n"),
    ("path", "7: 4 5\n", "7: 4 5 -1\n"),
    ("path", "7: 4 5\n", "7: 4\n"),
    ("path", "7: 4 5\n", "7 4 5\n"),
    ("path", "7: 4 5\n", "9: 4 5\n"),
    ("path", "7: 4 5\n", "99999999999999999999: 4 5\n"),
    ("path", "7: 4 5\n", "8: 5 6\n"),
    ("path", "8: 5 6\n", ""),
    ("path", "boundaries\n", "boundary\n"),
    ("cell", "11: 0 1 2\n", "11: 0 1 2 -1\n"),
    ("cell", "11: 0 1 2\n", "11: 0 1 -1\n"),
    ("cell", "11: 0 1 2\n", "11: 0 2 1\n"),
    ("cell", "11: 0 1 2\n", "11: 1 2 0\n"),
    ("cell", "11: 0 1 2\n", "11: 0 1\n"),
    ("cell", "12: 0 1 3 4\n", "12: 0 1 3 4 4 4 4 4 4 4 4\n"),
    ("cell", "12: 0 1 3 4\n", "12: 0 1 3 4 2 2 2 2 2 2 2 9\n"),
    ("cell", "12: 0 1 3 4\n", "12: 0 1 3 4 2\n"),
    ("cell", "12: 5 7 9 10\n", "12: 7 9 10\n"),
    ("path", "2: 2\n", None),  # the payload ends inside a member section
])
def test_a_single_fault_gets_the_reference_message(kind, old, new):
    # each edit changes the first line that holds ``old``
    text = PAYLOADS[kind]
    assert old in text
    edited = text[:text.index(old)] if new is None else text.replace(old, new, 1)
    assert read_with(deserialize_complex, edited) == read_with(ref_deserialize, edited)


def test_readers_agree_on_mutated_payloads(mutate_bytes):
    """Seeded single edits, of a line or of a byte, of path (both boundary
    modes), clique and ring payloads: both readers load equal complexes, or
    both raise SerializationError.  With two faults or more the messages
    may differ: the array reader reports syntax before invariants."""
    rng = np.random.default_rng(23)
    loaded = rejected = 0
    for _ in range(8):
        g = random_graph(int(rng.integers(3, 8)), 0.6, rng)
        for c in (lift_path_complex(g, 3), lift_path_complex(g, 3, "truncation"),
                  lift_clique_complex(g, 3), lift_ring_complex(g, 5)):
            text = serialize_complex(c)
            for k in range(24):
                if k % 2:
                    edited = "\n".join(_mutate(text.split("\n"), rng))
                else:  # latin-1 reads every byte, so odd spaces and line breaks too
                    edited = mutate_bytes(text.encode(), rng).decode("latin-1")
                got = read_with(deserialize_complex, edited)
                want = read_with(ref_deserialize, edited)
                assert type(got) is type(want), edited
                if isinstance(want, HigherOrderComplex):
                    assert got == want, edited
                loaded += isinstance(want, HigherOrderComplex)
                rejected += isinstance(want, str)
    assert loaded > 50 and rejected > 400


def test_check_reads_padding_only_at_the_end():
    # the ring (0, 1, 2) written with the padding inside: -1 is no vertex there
    c = lift_ring_complex(RINGS, 4)
    c.carriers[2] = np.array([[0, -1, 1, 2], [0, 1, 3, 4]])
    with pytest.raises(SerializationError, match="vertex out of range in member 11"):
        c.check()
