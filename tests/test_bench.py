"""Benchmark harness: manifests, failure rates, sweeps, timing, reports."""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

from pathcomplex import bench, refine
from pathcomplex.bench import (
    FamilySpec,
    ManifestError,
    RunConfig,
    _LiftCache,
    load_family,
    parse_manifest,
    reports_to_csv,
    reports_to_json,
    run_family,
    sweep,
    time_lifting,
)
from pathcomplex.graphs import (
    apply_permutation,
    encode_graph6,
    path_graph,
    random_graph,
    random_permutation,
)
from pathcomplex.network import NetworkParams
from pathcomplex.refine import distinguishes, refine_pair, stable_colors


@pytest.fixture()
def sr16(srg_specs):
    return srg_specs["SR(16,6,2,2)"]


class TestManifest:
    def test_parse_relative_paths(self, tmp_path):
        (tmp_path / "fam.g6").write_text("C~\n")
        (tmp_path / "m.txt").write_text("# corpus\nK4 fam.g6 4 3 2 2\n")
        specs = parse_manifest(tmp_path / "m.txt")
        assert specs[0].name == "K4"
        assert specs[0].path == str(tmp_path / "fam.g6")

    def test_bad_line_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("only three fields\n")
        with pytest.raises(ValueError, match="expected"):
            parse_manifest(tmp_path / "m.txt")

    @pytest.mark.parametrize("line", [
        "FAM fam.g6 16 six 2 2",  # non-integer parameter
        "FAM fam.g6 16 6 2",  # five fields
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        (tmp_path / "m.txt").write_text(f"# corpus\n{line}\n")
        with pytest.raises(ManifestError, match=r"m\.txt:2: expected"):
            parse_manifest(tmp_path / "m.txt")

    def test_mutated_manifests_load_or_raise(self, tmp_path, mutate_bytes):
        # seeded edits of a valid manifest: a token replaced, or a byte of
        # one line deleted, inserted, replaced or nudged
        lines = [b"# corpus", b"", b"SR(16,6,2,2) sr16_6_2_2.g6 16 6 2 2",
                 b"SR(25,12,5,6) sr25_12_5_6.g6 25 12 5 6",
                 b"SR(26,10,3,4) /data/sr26_10_3_4.g6 26 10 3 4", b""]
        tokens = (b"", b"-1", b"0", b"x", b"1.5", b"99999999999999999999", b"#",
                  b"\xff")
        rng = np.random.default_rng(29)
        path = tmp_path / "m.txt"
        for _ in range(500):
            edited = list(lines)
            for _ in range(int(rng.integers(1, 4))):
                i = int(rng.integers(len(edited)))
                if rng.random() < 0.5:
                    words = edited[i].split(b" ")
                    words[int(rng.integers(len(words)))] = tokens[int(rng.integers(len(tokens)))]
                    edited[i] = b" ".join(words)
                else:
                    edited[i] = mutate_bytes(edited[i], rng)
            path.write_bytes(b"\n".join(edited))
            start = time.perf_counter()
            try:
                assert all(isinstance(spec, FamilySpec) for spec in parse_manifest(path))
            except ManifestError:
                pass
            assert time.perf_counter() - start < 1.0, edited

    def test_load_family_validates_parameters(self, tmp_path):
        (tmp_path / "bad.g6").write_text(encode_graph6(path_graph(4)) + "\n")
        spec = FamilySpec("BAD", str(tmp_path / "bad.g6"), 4, 3, 2, 2)
        with pytest.raises(ValueError, match="parameter check"):
            load_family(spec)


class TestRunConfig:
    @pytest.mark.parametrize("setting, message", [
        ({"boundary_mode": "bogus"}, "boundary-mode"),
        ({"member_cap": 0}, "must be positive"),
        ({"threads": 0}, "must be positive"),
        ({"hidden_dim": 0}, "must be positive"),
        ({"embed_dim": -1}, "must be positive"),
    ])
    def test_validate_rejects_each_setting(self, setting, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(method="swl", **setting).validate()

    @pytest.mark.parametrize("method, setting, message", [
        ("pwl", {"max_dim": -1}, "max_dim must be non-negative"),
        ("swl", {"max_dim": -1}, "max_dim must be non-negative"),
        ("pcn", {"max_dim": -1}, "max_dim must be non-negative"),
        ("cwl", {"max_ring": 2}, "max_ring must be at least 3"),
        ("cwn", {"max_ring": -1}, "max_ring must be at least 3"),
        ("pwl", {"boundary_mode": "bogus"}, "unknown boundary-mode 'bogus'"),
        ("cwl", {"boundary_mode": "bogus"}, "unknown boundary-mode 'bogus'"),
    ])
    def test_validate_rejects_the_lift_parameter(self, method, setting, message):
        cfg = RunConfig(method=method, seeds=(0,), **setting)
        with pytest.raises(ValueError) as info:
            cfg.validate()
        assert str(info.value) == message
        with pytest.raises(ValueError) as lifted:
            cfg.lift(path_graph(4))
        assert str(lifted.value) == message  # the lift's own message

    @pytest.mark.parametrize("setting", [
        {"layers": -1}, {"hidden_dim": 0}, {"embed_dim": -1},
    ])
    def test_validate_rejects_a_network_shape_as_create_does(self, setting):
        shape = {"layers": 2, "hidden_dim": 16, "embed_dim": 32, **setting}
        with pytest.raises(ValueError) as info:
            RunConfig(method="pcn", seeds=(0,), **setting).validate()
        with pytest.raises(ValueError) as created:
            NetworkParams.create(seed=0, max_dim=2, **shape)
        assert str(info.value) == str(created.value)

    @pytest.mark.parametrize("method, setting", [
        ("wl1", {"max_dim": -1, "max_ring": 2}),  # wl1 fixes its dimension
        ("pwl", {"max_ring": 2}),
        ("cwl", {"max_dim": -1}),
    ])
    def test_parameters_a_method_does_not_lift_with_are_ignored(self, method,
                                                                 setting):
        RunConfig(method=method, seeds=(), **setting).validate()


class TestRunFamily:
    def test_network_zero_failure_on_smallest_family(self, sr16):
        cfg = RunConfig(method="pcn", max_dim=3, layers=4, seeds=tuple(range(10)))
        report = run_family(sr16, cfg)
        assert report.pairs == 1
        agg = report.aggregate()
        assert agg["mean"] == 0.0
        assert agg["std"] == 0.0
        assert len(report.outcomes) == 10

    def test_vertex_refinement_fails_everywhere(self, sr16):
        report = run_family(sr16, RunConfig(method="wl1", seeds=()))
        assert report.aggregate()["mean"] == 1.0

    def test_deterministic_methods_ignore_seeds(self, sr16):
        report = run_family(sr16, RunConfig(method="pwl", max_dim=3, seeds=()))
        assert len(report.outcomes) == 1
        assert report.outcomes[0].seed is None
        assert report.aggregate()["mean"] == 0.0

    def test_network_methods_require_seeds(self, sr16):
        with pytest.raises(ValueError, match="seed"):
            run_family(sr16, RunConfig(method="pcn", seeds=()))

    @pytest.mark.parametrize("method", ["pcn", "pwl"])
    def test_negative_layers_rejected(self, sr16, method):
        with pytest.raises(ValueError, match="layers"):
            run_family(sr16, RunConfig(method=method, layers=-1, seeds=(0,)))

    def test_member_cap_skips_family_with_diagnostic(self, sr16):
        report = run_family(
            sr16, RunConfig(method="pwl", max_dim=3, seeds=(), member_cap=10)
        )
        assert report.skipped
        assert "cap" in report.diagnostic

    def test_refinement_dominates_network_rates(self, sr16, srg_specs):
        for spec in (sr16, srg_specs["SR(26,10,3,4)"]):
            pwl = run_family(spec, RunConfig(method="pwl", max_dim=3, seeds=()))
            pcn = run_family(
                spec, RunConfig(method="pcn", max_dim=3, layers=5,
                                seeds=tuple(range(5)))
            )
            assert pwl.aggregate()["mean"] <= min(pcn.rates)

    def test_rates_invariant_to_file_order(self, sr16, tmp_path):
        graphs = load_family(sr16)
        shuffled = tmp_path / "shuffled.g6"
        shuffled.write_text(
            "\n".join(encode_graph6(g) for g in reversed(graphs)) + "\n"
        )
        spec = FamilySpec(sr16.name, str(shuffled), sr16.n, sr16.k, sr16.lam, sr16.mu)
        a = run_family(sr16, RunConfig(method="pcn", layers=4, seeds=(0, 1)))
        b = run_family(spec, RunConfig(method="pcn", layers=4, seeds=(0, 1)))
        assert a.rates == b.rates

    def test_cache_soundness(self, sr16):
        cfg = RunConfig(method="pcn", layers=4, seeds=(0, 1, 2))
        cache = _LiftCache()
        with_cache_1 = run_family(sr16, cfg, cache=cache)
        with_cache_2 = run_family(sr16, cfg, cache=cache)  # cache hit path
        without = run_family(sr16, cfg, cache=None)
        assert with_cache_1.rates == without.rates == with_cache_2.rates

    def test_cache_hit_reports_the_lift_time(self, sr16):
        cfg = RunConfig(method="pwl", max_dim=3, seeds=())
        cache = _LiftCache()
        miss = run_family(sr16, cfg, cache=cache)
        hit = run_family(sr16, cfg, cache=cache)
        assert hit.lift_ms == miss.lift_ms > 0.0

    def test_tighter_member_cap_does_not_reuse_a_cached_lift(self, sr16):
        cache = _LiftCache()
        run_family(sr16, RunConfig(method="pwl", max_dim=3, seeds=()), cache=cache)
        capped = run_family(
            sr16, RunConfig(method="pwl", max_dim=3, seeds=(), member_cap=10),
            cache=cache,
        )
        assert capped.skipped

    def test_cache_hit_does_not_reload_the_family(self, sr16, monkeypatch):
        cfg = RunConfig(method="pwl", max_dim=3, seeds=())
        cache = _LiftCache()
        miss = run_family(sr16, cfg, cache=cache)

        def reload(spec, validate=True):
            raise AssertionError("a cache hit loaded the family again")

        monkeypatch.setattr(bench, "load_family", reload)
        assert run_family(sr16, cfg, cache=cache).rates == miss.rates

    def test_cache_hit_keeps_the_parameter_check(self, sr16):
        cfg = RunConfig(method="pwl", max_dim=3, seeds=())
        cache = _LiftCache()
        run_family(sr16, cfg, cache=cache)
        wrong = FamilySpec(sr16.name, sr16.path, sr16.n, sr16.k, sr16.lam + 1,
                           sr16.mu)
        with pytest.raises(ValueError, match="parameter check"):
            run_family(wrong, cfg, cache=cache)

    @pytest.mark.parametrize("method", ["pcn", "pwl"])
    def test_cached_lifts_keep_no_upper_triples(self, srg_specs, method):
        # the network and the fingerprints read the boundary CSR, the class
        # quotient and the engine's own run-local triples
        cache = _LiftCache()
        report = run_family(srg_specs["SR(28,12,6,4)"],
                            RunConfig(method=method, seeds=(0,)), cache=cache)
        assert report.outcomes and not report.skipped
        (complexes, _), = cache.store.values()
        assert len(complexes) == 4
        for c in complexes:
            assert c._stable_colors is not None
            assert c._upper_flat is None

    def test_threaded_run_matches_serial(self, sr16):
        serial = run_family(sr16, RunConfig(method="pcn", layers=4, seeds=(0, 1)))
        threaded = run_family(
            sr16, RunConfig(method="pcn", layers=4, seeds=(0, 1), threads=4)
        )
        assert serial.rates == threaded.rates


def _pairwise_indistinguishable(complexes):
    """The oracle: pairs that a joint ``refine_pair`` run does not separate."""
    return sum(
        not distinguishes(*refine_pair(a, b)[:2])
        for a, b in itertools.combinations(complexes, 2)
    )


class TestFingerprintBuckets:
    """Refinement cells count equal stable fingerprints instead of running
    ``refine_pair`` on every pair."""

    CONFIGS = (
        RunConfig(method="wl1", seeds=()),
        RunConfig(method="pwl", max_dim=2, seeds=()),
        RunConfig(method="pwl", max_dim=2, boundary_mode="truncation", seeds=()),
        RunConfig(method="swl", max_dim=3, seeds=()),
        RunConfig(method="cwl", max_ring=4, seeds=()),
    )

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.method)
    def test_rates_equal_the_pairwise_oracle(self, srg_specs, cfg):
        cache = _LiftCache()
        for spec in srg_specs.values():
            complexes, _ = cache.get(spec, cfg)
            expected = _pairwise_indistinguishable(complexes)
            report = run_family(spec, cfg, cache=cache)
            assert report.outcomes[0].indistinguishable == expected, spec.name

    @pytest.mark.parametrize("cfg", CONFIGS + (
        RunConfig(method="pwl", max_dim=3, seeds=()),
        RunConfig(method="pwl", max_dim=3, boundary_mode="truncation", seeds=()),
    ), ids=lambda c: f"{c.method}-{c.boundary_mode}-{c.structural_param}")
    def test_buckets_of_isomorphic_copies(self, sr16, tmp_path, cfg):
        # relabelled copies give fingerprint buckets of sizes 3 and 2
        g0, g1 = load_family(sr16)
        rng = np.random.default_rng(11)
        graphs = [g0, g1] + [
            apply_permutation(g, random_permutation(g.n, rng)) for g in (g0, g0, g1)
        ]
        path = tmp_path / "copies.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        spec = FamilySpec("COPIES", str(path), sr16.n, sr16.k, sr16.lam, sr16.mu)
        cache = _LiftCache()
        report = run_family(spec, cfg, cache=cache)
        expected = _pairwise_indistinguishable(cache.get(spec, cfg)[0])
        assert report.pairs == 10
        assert report.outcomes[0].indistinguishable == expected
        assert expected in (4, 10)  # 3 + 1, or every pair when all collide

    def test_one_engine_run_per_graph_and_no_pair_runs(self, srg_specs,
                                                       monkeypatch):
        spec = srg_specs["SR(25,12,5,6)"]
        cfg = RunConfig(method="pwl", max_dim=2, seeds=())
        cache = _LiftCache()
        complexes, _ = cache.get(spec, cfg)
        runs = []

        class Counted(refine._JointRefinement):
            def __init__(self, members, rule):
                runs.append(len(members))
                super().__init__(members, rule)

        def no_pairs(*args, **kwargs):
            raise AssertionError("a refinement cell called refine_pair")

        monkeypatch.setattr(refine, "_JointRefinement", Counted)
        monkeypatch.setattr(refine, "refine_pair", no_pairs)
        monkeypatch.setattr(bench, "refine_pair", no_pairs, raising=False)
        report = run_family(spec, cfg, cache=cache)
        assert report.outcomes[0].indistinguishable == report.pairs == 10
        assert runs == [1] * len(complexes)

    def test_family_below_two_graphs_runs_no_engine(self, srg_specs,
                                                    monkeypatch):
        def no_runs(*args, **kwargs):
            raise AssertionError("the engine ran on a family without pairs")

        monkeypatch.setattr(refine, "_JointRefinement", no_runs)
        report = run_family(srg_specs["SR(29,14,6,7)"],
                            RunConfig(method="pwl", seeds=()))
        assert report.pairs == 0 and report.rates == [0.0]

    def test_family_below_two_graphs_runs_no_network(self, srg_specs,
                                                     monkeypatch):
        def no_runs(*args, **kwargs):
            raise AssertionError("the network ran on a family without pairs")

        monkeypatch.setattr(bench, "embed", no_runs)
        report = run_family(srg_specs["SR(29,14,6,7)"],
                            RunConfig(method="pcn", seeds=(0, 1)))
        assert report.outcomes == [bench.SeedOutcome(seed, 0, 0, 0.0, 0.0)
                                   for seed in (0, 1)]

    def test_threaded_run_matches_serial_and_fills_every_cache(self, srg_specs):
        spec = srg_specs["SR(25,12,5,6)"]
        for cfg in self.CONFIGS:
            serial = run_family(spec, cfg)
            cache = _LiftCache()
            threaded = run_family(spec, dataclasses.replace(cfg, threads=4),
                                  cache=cache)
            assert threaded.outcomes[0].indistinguishable == \
                serial.outcomes[0].indistinguishable
            assert threaded.rates == serial.rates
            for c, g in zip(cache.get(spec, cfg)[0], load_family(spec)):
                assert c._stable_colors is not None
                assert np.array_equal(c._stable_colors, stable_colors(cfg.lift(g)))


class TestSweep:
    def test_error_isolation(self, sr16):
        missing = FamilySpec("MISSING", "/nonexistent/file.g6", 5, 2, 0, 1)
        result = sweep([missing, sr16], [RunConfig(method="wl1", seeds=())])
        assert len(result.reports) == 1
        assert result.reports[0].family == sr16.name
        assert result.errors and result.errors[0][0] == "MISSING"

    def test_families_sharing_a_name_keep_their_own_lifts(self, srg_specs, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("".join(
            f"FAM {spec.path} {spec.n} {spec.k} {spec.lam} {spec.mu}\n"
            for spec in (srg_specs["SR(16,6,2,2)"], srg_specs["SR(26,10,3,4)"])
        ))
        result = sweep(parse_manifest(manifest),
                       [RunConfig(method="pwl", max_dim=3, seeds=())])
        assert not result.errors
        assert [r.pairs for r in result.reports] == [1, 3]
        assert [r.rates for r in result.reports] == [[0.0], [0.0]]

    def test_sweep_table_renders(self, sr16):
        result = sweep(
            [sr16],
            [
                RunConfig(method="pwl", max_dim=3, seeds=()),
                RunConfig(method="pcn", max_dim=3, layers=4, seeds=(0, 1)),
            ],
        )
        table = result.comparison_table()
        assert "SR(16,6,2,2)" in table
        assert "pwl(3)" in table and "pcn(3) L=4" in table

    def test_deterministic_cells_with_empty_seedset(self, sr16):
        result = sweep([sr16], [RunConfig(method="pwl", max_dim=3, seeds=())])
        assert len(result.reports) == 1
        assert not result.errors


class TestTiming:
    def test_repeats_and_monotone_members(self):
        rng = np.random.default_rng(2)
        graphs = [random_graph(10, 0.5, rng) for _ in range(3)]
        low = time_lifting(graphs, RunConfig(method="pwl", max_dim=2, seeds=()),
                           repeats=10)
        high = time_lifting(graphs, RunConfig(method="pwl", max_dim=4, seeds=()),
                            repeats=10)
        assert low.repeats == high.repeats == 10
        assert np.isfinite(low.seconds_std) and np.isfinite(high.seconds_std)
        for lo, hi in zip(low.member_counts, high.member_counts):
            assert sum(hi) >= sum(lo)
        assert f"numpy {np.__version__}" in high.fingerprint

    def test_deeper_lifting_costs_more(self, srg_specs):
        graphs = load_family(srg_specs["SR(16,6,2,2)"])
        shallow = time_lifting(
            graphs, RunConfig(method="pwl", max_dim=2, seeds=()), repeats=3
        )
        deep = time_lifting(
            graphs, RunConfig(method="pwl", max_dim=5, seeds=()), repeats=3
        )
        assert deep.seconds_mean > shallow.seconds_mean

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            time_lifting([], RunConfig(method="pwl", seeds=()), repeats=0)


class TestReports:
    def test_csv_schema(self, sr16):
        import csv
        import io

        report = run_family(sr16, RunConfig(method="pcn", layers=4, seeds=(0, 1)))
        text = reports_to_csv([report])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "family", "method", "max_dim", "layers", "seed", "failure_rate",
            "pairs", "indistinguishable", "lift_ms", "forward_ms",
        ]
        assert len(rows) == 3
        assert rows[1][0] == "SR(16,6,2,2)"
        assert rows[1][1] == "pcn"
        assert rows[1][2] == "3" and rows[1][3] == "4" and rows[1][4] == "0"

    def test_csv_deterministic_row_has_empty_seed(self, sr16):
        import csv
        import io

        report = run_family(sr16, RunConfig(method="pwl", max_dim=3, seeds=()))
        text = reports_to_csv([report])
        row = list(csv.reader(io.StringIO(text)))[1]
        assert row[3] == "" and row[4] == ""

    def test_json_document(self, sr16):
        report = run_family(sr16, RunConfig(method="pcn", layers=4, seeds=(0,)))
        doc = json.loads(reports_to_json([report], errors=[("X", "pwl", "boom")]))
        assert doc["reports"][0]["family"] == "SR(16,6,2,2)"
        assert doc["reports"][0]["aggregate"]["mean"] == 0.0
        assert doc["errors"][0]["family"] == "X"
        assert f"numpy {np.__version__}" in doc["environment"]


@pytest.mark.parametrize("method", ["pcn", "pwl", "wl1"])
def test_validate_rejects_a_negative_seed_as_create_does(method):
    with pytest.raises(ValueError) as info:
        RunConfig(method=method, seeds=(0, -1)).validate()
    with pytest.raises(ValueError) as created:
        NetworkParams.create(seed=-1, layers=2, max_dim=2)
    assert str(info.value) == str(created.value) == "seed must be non-negative, got -1"
