"""The package namespace: what ``import pathcomplex`` exports and loads."""

import os
import pathlib
import subprocess
import sys

import pathcomplex
from pathcomplex import chains, complexes, graphs, network, refine

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# the exports before the namespace was built from the modules' lists
NAMES_BEFORE = {
    "CapacityError", "ColorHistogram", "CyclicFamily", "DEFAULT_MEMBER_CAP",
    "FeatureState", "GraphParseError", "HigherOrderComplex", "Member",
    "NetworkParams", "PowerOrderReport", "SerializationError", "SignedChain",
    "SimpleGraph", "VertexPermutation", "apply_permutation", "canonical_path",
    "canonical_ring", "chain_boundary", "complement_graph", "complete_graph",
    "cycle_graph", "cyclic_families", "deserialize_complex", "disjoint_union",
    "distinguishes", "embed", "embedding_distance", "encode_graph6", "forward",
    "init_features", "is_allowed", "is_boundary_invariant",
    "lift_clique_complex", "lift_complex", "lift_path_complex",
    "lift_ring_complex", "parse_edge_list", "parse_graph6", "path_graph",
    "power_order_check", "random_graph", "random_permutation",
    "read_graph6_file", "refine_pair", "refinement_trace", "serialize_complex",
    "signed_boundary", "stable_colors", "stable_fingerprint", "wl1_refine_pair",
}


def test_all_is_the_union_of_the_module_lists():
    modules = (chains, complexes, graphs, network, refine)
    names = pathcomplex.__all__
    assert len(names) == len(set(names))
    assert set(names) == {n for m in modules for n in m.__all__}
    assert NAMES_BEFORE <= set(names)
    for m in modules:
        for name in m.__all__:
            assert getattr(pathcomplex, name) is getattr(m, name)


def test_import_leaves_bench_unloaded():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pathcomplex; print('pathcomplex.bench' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
