"""The lexicographic row key: its order and equality, the adjacency triple
order it gives, and the PCX reader's member order check built on it."""

import itertools

import numpy as np
import pytest

from pathcomplex.bench import load_family
from pathcomplex.complexes import (
    SerializationError,
    _pair_triples,
    _row_keys,
    deserialize_complex,
    lift_path_complex,
    lift_ring_complex,
    serialize_complex,
)
from pathcomplex.graphs import SimpleGraph


@pytest.mark.parametrize("radix, width, renumberings", [
    (3, 4, 0), (70000, 5, 1), (2 ** 31, 3, 1), (2 ** 40, 2, 1), (2 ** 40, 5, 4),
])
def test_row_keys_order_and_equality(monkeypatch, radix, width, renumberings):
    rng = np.random.default_rng(5)
    rows = rng.integers(0, radix, size=(300, width))
    rows = np.concatenate([rows, rows[rng.integers(0, len(rows), 60)]])  # repeats
    calls = []
    unique = np.unique

    def counted_unique(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)  # one call per renumbering
    keys = _row_keys(rows.T)
    monkeypatch.undo()
    assert len(calls) == renumberings
    assert keys.dtype == np.int64
    assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))
    key_of = {}
    for row, key in zip(map(tuple, rows.tolist()), keys.tolist()):
        assert key_of.setdefault(row, key) == key
    assert len(set(key_of.values())) == len(key_of)


def lexsorted_triples(indptr, indices):
    """Every ordered pair within each CSR row, tagged by the row and sorted
    by (src, tau, delta) with ``np.lexsort``."""
    triples = [
        (a, b, delta)
        for delta in range(len(indptr) - 1)
        for a, b in itertools.permutations(indices[indptr[delta]:indptr[delta + 1]].tolist(), 2)
    ]
    src, tau, delta = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    order = np.lexsort((delta, tau, src))
    return src[order], tau[order], delta[order]


def assert_triples_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)


def test_pair_triples_match_lexsort_on_random_csrs():
    rng = np.random.default_rng(12)
    for _ in range(40):
        ids = int(rng.integers(1, 60))
        lens = rng.integers(0, min(ids, 7), size=int(rng.integers(0, 50)))
        rows = [rng.choice(ids, size=k, replace=False) for k in lens]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        indices = np.concatenate([np.zeros(0, dtype=np.int64), *rows])
        assert_triples_equal(_pair_triples(indptr, indices),
                             lexsorted_triples(indptr, indices))


def test_pair_triples_match_lexsort_on_an_srg_path_complex(srg_specs):
    c = lift_path_complex(load_family(srg_specs["SR(16,6,2,2)"])[0], 3)
    assert_triples_equal(c.upper_adjacency(), lexsorted_triples(*c.boundary_csr()))
    assert_triples_equal(c.lower_adjacency(), lexsorted_triples(*c.coboundary_csr()))


# rings (0, 1, 2) and (0, 1, 3, 4): the triangle's row is padded with -1
RINGS = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4), (0, 4)])


@pytest.mark.parametrize("new", [
    "11: 0 1 3 4\n12: 0 1 2\n",  # swapped
    "11: 0 1 2\n12: 0 1 2\n",  # duplicated
])
def test_reader_rejects_ring_members_out_of_order(new):
    text = serialize_complex(lift_ring_complex(RINGS, 4))
    old = "11: 0 1 2\n12: 0 1 3 4\n"
    assert old in text
    with pytest.raises(SerializationError,
                       match="dimension 2 members repeat or leave lexicographic order"):
        deserialize_complex(text.replace(old, new))
