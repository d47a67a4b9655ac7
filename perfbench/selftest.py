"""Tests of the benchmark itself: every check must reject a corrupted answer,
and every workload must run end to end.

Run from the repository root (the name keeps the default test collection
from picking these up, because the smoke runs take about two minutes):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pathcomplex as pc  # noqa: E402
import pathcomplex.bench  # noqa: E402,F401

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _graph(edges, n=None):
    n = n if n is not None else 1 + max(max(e) for e in edges)
    return pc.graphs.SimpleGraph.from_edges(n, edges)


def _records(wl, state, rounds=1):
    records, _ = run.timed_phase(wl, state, None, rounds=rounds)
    assert all(rec.error is None for rec in records), [r.error for r in records]
    return records


# ---------------------------------------------------------------------------
# independent computations agree with the program on good inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_member_count_oracles_match_the_lifts(seed):
    rng = np.random.default_rng(seed)
    edges = workloads.uniform_edges(rng, 60)
    g = _graph(edges, workloads.ER_N)
    ng = checks.nx_graph(workloads.ER_N, edges)
    adjacency = [list(ng[v]) for v in range(workloads.ER_N)]
    assert checks.simple_path_counts(workloads.ER_N, adjacency, 3) == \
        pc.complexes.lift_path_complex(g, 3).counts()
    assert checks.clique_counts(ng, 3) == pc.complexes.lift_clique_complex(g, 3).counts()
    assert checks.ring_counts(ng, 4) == pc.complexes.lift_ring_complex(g, 4).counts()


def test_member_count_check_rejects_off_by_one():
    assert checks.check_member_counts("x", [4, 5, 6], [4, 5, 6]) == []
    assert checks.check_member_counts("x", [4, 5, 7], [4, 5, 6])
    assert checks.check_member_counts("x", [4, 5], [4, 5, 6])


def test_simple_path_counts_on_a_cycle():
    # C5 has 5 paths on 2, 3 and 4 vertices each
    adjacency = [[(v - 1) % 5, (v + 1) % 5] for v in range(5)]
    assert checks.simple_path_counts(5, adjacency, 3) == [5, 5, 5, 5]


def test_strata_follow_the_binomial():
    strata = workloads.edge_count_strata()
    assert strata == sorted(strata) and len(strata) == workloads.ER_STRATA
    assert strata[0] < 0.3 * 190 < strata[-1]


def test_rewire_preserves_degrees_and_simplicity():
    rng = np.random.default_rng(3)
    edges = workloads.uniform_edges(rng, 57)
    rewired = workloads.rewire_edges(edges, rng)
    assert len({frozenset(e) for e in rewired}) == len(rewired) == 57
    assert all(u != v for u, v in rewired)
    degree = lambda es: sorted(np.bincount(np.ravel(es), minlength=workloads.ER_N))
    assert degree(rewired) == degree(edges)
    assert {frozenset(e) for e in rewired} != {frozenset(e) for e in edges}


# ---------------------------------------------------------------------------
# each check rejects a corrupted answer
# ---------------------------------------------------------------------------


def test_nonisomorphism_check_rejects_an_isomorphic_pair():
    spec = {s.name: s for s in pc.bench.parse_manifest(workloads.manifest_path(ROOT))}
    graphs = workloads.read_family_nx(spec[workloads.SR16])
    assert checks.check_nonisomorphic(graphs, [(0, 1)]) == {}
    import networkx as nx

    copy = nx.relabel_nodes(graphs[0], {v: (v * 5) % 16 for v in range(16)})
    assert checks.check_nonisomorphic([graphs[0], copy], [(0, 1)])


def test_family_check_rejects_a_misparsed_graph():
    spec = {s.name: s for s in pc.bench.parse_manifest(workloads.manifest_path(ROOT))}
    graphs = pc.bench.load_family(spec[workloads.SR16])
    assert workloads.family_failures(spec[workloads.SR16], graphs) == {(0, 1): []}
    wrong = list(graphs)
    edges = sorted(wrong[1].edges)
    wrong[1] = _graph(edges[1:], 16)
    assert workloads.family_failures(spec[workloads.SR16], wrong)[(0, 1)]


def test_c07_check_rejects_a_failure_or_a_wrong_pair_count():
    bench = pc.bench
    good = bench.FailureReport("F", "pcn", 3, 4, 6,
                               [bench.SeedOutcome(2, 6, 0, 0.0, 1.0)])
    assert checks.check_c07_report(good, 4, 2) == []
    bad = dataclasses.replace(good, outcomes=[bench.SeedOutcome(2, 6, 1, 1 / 6, 1.0)])
    assert checks.check_c07_report(bad, 4, 2)
    assert checks.check_c07_report(good, 5, 2)  # 10 pairs expected
    assert checks.check_c07_report(good, 4, 3)  # wrong seed
    assert checks.check_c07_report(dataclasses.replace(good, skipped=True), 4, 2)


def test_embedding_checks_reject_a_perturbation():
    e = np.linspace(-1.0, 1.0, 32)
    assert checks.check_relabelled_embedding("x", e, e * (1 + 1e-9)) == []
    assert checks.check_relabelled_embedding("x", e, e + 1e-4)
    assert checks.check_bitwise("x", e, e.copy()) == []
    nudged = e.copy()
    nudged[3] = np.nextafter(nudged[3], 2.0)
    assert checks.check_bitwise("x", e, nudged)


def test_srg_pair_check_rejects_flipped_verdicts():
    assert checks.check_srg_pair("x", False, True, True) == []
    assert checks.check_srg_pair("x", True, True)
    assert checks.check_srg_pair("x", False, False)
    assert checks.check_srg_pair("x", False, True, False)
    assert checks.check_not_separated("x", False) == []
    assert checks.check_not_separated("x", True)


def test_er_pair_check_rejects_each_flipped_verdict():
    fine = {"wl1": False, "swl": False, "cwl": False, "pwl": False}
    close = [(0, 1e-13), (1, 2e-13)]
    assert checks.check_er_pair("x", True, fine, close, 0.01) == []
    for method in fine:
        flipped = dict(fine, **{method: True})
        assert checks.check_er_pair("x", True, flipped, close, 0.01), method
    far = [(0, 1e-13), (1, 0.5)]
    assert checks.check_er_pair("x", True, fine, far, 0.01)
    assert checks.check_er_pair("x", False, fine, far, 0.01)
    # a rewired pair that pwl separates may be separated by anything
    separated = {"wl1": True, "swl": True, "cwl": True, "pwl": True}
    assert checks.check_er_pair("x", False, separated, far, 0.01) == []
    # ... but nothing may separate what pwl does not
    assert checks.check_er_pair("x", False, dict(separated, pwl=False), close, 0.01)


# ---------------------------------------------------------------------------
# workload checks on real answers, then on corrupted ones
# ---------------------------------------------------------------------------


def test_er_pairs_checks_pass_then_reject_corruption():
    wl = workloads.ErPairs(pc, ROOT, seed=11)
    records = _records(wl, wl.setup())
    assert not any(wl.check(None, records))
    rec = records[0]
    counts = rec.result["counts"]
    a, b = counts["pwl"]
    counts["pwl"] = (a[:-1] + [a[-1] + 1], b)
    rec2 = records[1]
    rec2.result["verdicts"]["swl"] = not rec2.result["verdicts"]["swl"]
    rec2.result["verdicts"]["pwl"] = False
    messages = wl.check(None, records)
    assert messages[0] and messages[1] and not any(messages[2:])


def _small(wl_cls, **attrs):
    wl = wl_cls(pc, ROOT, seed=5)
    for key, value in attrs.items():
        setattr(wl, key, value)
    return wl


def test_srg_pwl_checks_pass_then_reject_corruption():
    wl = _small(workloads.SrgPwl, families=(workloads.SR16, workloads.SR26),
                full_rule=(workloads.SR16,))
    state = wl.setup()
    records = _records(wl, state)
    assert len(records) == 4
    assert not any(wl.check(state, records))
    records[0].result["full"] = not records[0].result["full"]
    records[2].result["wl1"] = True
    messages = wl.check(state, records)
    assert messages[0] and messages[2] and not messages[1] and not messages[3]


def test_srg_pwl_relabel_check_rejects_a_separated_copy(monkeypatch):
    wl = _small(workloads.SrgPwl, families=(workloads.SR16,), full_rule=())
    state = wl.setup()
    assert wl._relabel_check(state, workloads.SR16, 1, 0) == []
    refine_pair = pc.refine.refine_pair

    def lopsided(x, y, **kwargs):
        h1, _, rounds = refine_pair(x, y, **kwargs)
        return h1, pc.refine.ColorHistogram({-1: y.total}), rounds

    monkeypatch.setattr(pc.refine, "refine_pair", lopsided)
    assert wl._relabel_check(state, workloads.SR16, 1, 0)


def test_srg_pcn_checks_pass_then_reject_corruption():
    wl = _small(workloads.SrgPcn, families=(workloads.SR16,))
    state = wl.setup()
    records = _records(wl, state)
    assert not any(wl.check(state, records))
    report = records[0].result[0]
    o = report.outcomes[0]
    report.outcomes[0] = dataclasses.replace(o, indistinguishable=1, failure_rate=1.0)
    assert all(wl.check(state, records))


def test_srg_pcn_embedding_checks_catch_a_nondeterministic_forward(monkeypatch):
    wl = _small(workloads.SrgPcn, families=(workloads.SR16,))
    state = wl.setup()
    records = _records(wl, state)
    forward = pc.network.forward
    calls = []

    def drifting(c, feats, params):
        calls.append(1)
        return forward(c, feats, params) * (1.0 + 1e-3 * len(calls))

    monkeypatch.setattr(pc.network, "forward", drifting)
    messages = wl._embedding_checks(
        {workloads.SR16: pc.bench.load_family(state["specs"][workloads.SR16])},
        records[0].inputs, 0,
    )
    assert any("two passes" in m for m in messages)
    assert any("relabelled" in m for m in messages)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracer_restores_the_program_and_counts_exactly():
    originals = (pc.refine.refine_pair, pc.bench.run_family,
                 pc.complexes.HigherOrderComplex.upper_adjacency,
                 pc.network.NetworkParams.__dict__["create"])
    wl = workloads.ErPairs(pc, ROOT, seed=2)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer(pc)
        with tracer:
            assert pc.refine.refine_pair is not originals[0]
            records, _ = run.timed_phase(wl, None, None, rounds=1, tracer=tracer)
        metrics = tracer.metrics(0.0)
        assert set(metrics) == set(tracing.PER_LAYER)
        counts.append({k: v for k, v in metrics.items() if k in tracing.COUNTERS})
        assert metrics["refine.pairs"] == 3 * len(records)
        assert metrics["network.forwards"] == 4 * len(records)
        assert all(s[2].startswith("op-") for s in tracer.spans)
    assert counts[0] == counts[1]
    assert (pc.refine.refine_pair, pc.bench.run_family,
            pc.complexes.HigherOrderComplex.upper_adjacency,
            pc.network.NetworkParams.__dict__["create"]) == originals


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer(pc)
    g = pc.srg.rook_graph_4x4()
    with tracer:
        c = pc.complexes.lift_path_complex(g, 2)
        feats = pc.network.init_features(c, 4)  # builds the boundary CSR inside
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    (init_span,) = by_name["network.init_features"]
    csr_spans = by_name["complexes.HigherOrderComplex.boundary_csr"]
    assert csr_spans and all(s[1] == init_span[0] for s in csr_spans)
    children = sum(s[5] - s[4] for s in csr_spans)
    span = tracer.span_s["network.init_features_s"]
    assert tracer.self_s["network.init_features_s"] == pytest.approx(span - children)
    assert feats.values[0].shape == (16, 4)


# ---------------------------------------------------------------------------
# smoke runs of the entry point
# ---------------------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["er-pairs", "srg-pwl", "srg-pcn"])
def test_smoke_run(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_ms.p50", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(lines[-2])["environment"]
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "er-pairs", "--seed", "1", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = [m["name"] for m in json.load(handle)["per_layer"]]
    assert list(result["metrics"]) == declared == list(tracing.PER_LAYER)
    assert result["metrics"]["complexes.members"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "er-pairs", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
