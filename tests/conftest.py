import pathlib

import pytest

from pathcomplex.bench import parse_manifest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRG_MANIFEST = REPO_ROOT / "data" / "srg" / "manifest.txt"


@pytest.fixture(scope="session")
def srg_specs():
    if not SRG_MANIFEST.exists():
        pytest.skip(
            "SRG corpus missing; run scripts/generate_srg_data.py to rebuild it"
        )
    return {spec.name: spec for spec in parse_manifest(SRG_MANIFEST)}


@pytest.fixture(scope="session")
def mutate_bytes():
    """A seeded single edit of a byte string, for reader fuzz tests."""
    return _mutate_bytes


def _mutate_bytes(data: bytes, rng) -> bytes:
    """``data`` with one seeded edit: a byte deleted, inserted, replaced or
    nudged by at most 3, or the tail cut off."""
    data = bytearray(data)
    i = int(rng.integers(len(data) + 1))
    last = min(i, len(data) - 1)
    edit = int(rng.integers(5))
    if edit == 0 and data:
        del data[last]
    elif edit == 1:
        data.insert(i, int(rng.integers(256)))
    elif edit == 2 and data:
        data[last] = int(rng.integers(256))
    elif edit == 3:
        del data[i:]
    elif data:
        data[last] = (data[last] + int(rng.integers(-3, 4))) % 256
    return bytes(data)
