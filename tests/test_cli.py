"""Command-line interface: subcommands, config precedence, exit codes."""

import contextlib
import json
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from pathcomplex.cli import main
from pathcomplex.complexes import deserialize_complex
from pathcomplex.graphs import encode_graph6, parse_graph6


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["p4"] = tmp_path / "p4.edges"
    paths["p4"].write_text("n 4\n0 1\n1 2\n2 3\n")
    paths["fig2"] = tmp_path / "fig2.edges"
    paths["fig2"].write_text("n 4\n0 1\n0 2\n1 2\n2 3\n")
    paths["fig3b"] = tmp_path / "fig3b.edges"
    paths["fig3b"].write_text("n 4\n0 1\n0 2\n1 3\n2 3\n")
    paths["c4"] = tmp_path / "c4.g6"
    paths["c4"].write_text("Cl\n")
    paths["c6"] = tmp_path / "c6.edges"
    paths["c6"].write_text("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    paths["kk"] = tmp_path / "kk.edges"
    paths["kk"].write_text("n 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    paths["tree"] = tmp_path / "tree.edges"
    paths["tree"].write_text("n 4\n0 1\n0 2\n0 3\n")
    return paths


@contextlib.contextmanager
def address_space_headroom(nbytes):
    """Cap this process's address space at its present size plus ``nbytes``."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm", encoding="ascii") as handle:
        size = int(handle.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (size + nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLift:
    def test_path_counts(self, capsys, files):
        code, out, _ = run(capsys, "lift", files["p4"], "--kind", "path",
                           "--max-dim", "3")
        assert code == 0
        assert out.strip() == "4 3 2 1"

    def test_simplex_counts(self, capsys, files):
        code, out, _ = run(capsys, "lift", files["fig2"], "--kind", "simplex",
                           "--max-dim", "2")
        assert code == 0
        assert out.strip() == "4 4 1"

    def test_cell_counts(self, capsys, files):
        code, out, _ = run(capsys, "lift", files["c4"], "--kind", "cell",
                           "--max-ring", "4")
        assert code == 0
        assert out.strip() == "4 4 1"

    def test_writes_loadable_serialization(self, capsys, files, tmp_path):
        out_file = tmp_path / "c.pcx"
        code, _, _ = run(capsys, "lift", files["p4"], "--max-dim", "2",
                         "--out", out_file)
        assert code == 0
        c = deserialize_complex(out_file.read_text())
        assert c.counts() == [4, 3, 2]

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("n 2\n0 0\n")
        code, _, err = run(capsys, "lift", bad)
        assert code == 2
        assert "self-loop" in err

    def test_non_ascii_graph6_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.g6"
        bad.write_bytes(b"\xff\xfe\n")
        code, _, err = run(capsys, "lift", bad)
        assert code == 2
        assert "bad.g6" in err

    def test_undecodable_edge_list_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"n 2\n0 1\xff\n")
        code, _, err = run(capsys, "lift", bad, "--format", "edges")
        assert code == 2
        assert "bad.txt" in err

    def test_member_cap_exit_code(self, capsys, files):
        code, _, err = run(capsys, "lift", files["c6"], "--max-dim", "4",
                           "--member-cap", "3")
        assert code == 3
        assert "cap" in err

    def test_edge_list_above_the_member_cap_exits_3(self, capsys, tmp_path):
        huge = tmp_path / "huge.edges"
        huge.write_text("n 1000000000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "lift", huge)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "1000000000 vertices exceed the member cap" in err

    @pytest.mark.parametrize("kind", ["path", "simplex"])
    def test_huge_max_dim_exits_3_before_building(self, capsys, files, kind):
        start = time.perf_counter()
        # a lift that built its empty dimensions would fail on the cap with
        # MemoryError here instead of exhausting the machine's memory
        with address_space_headroom(2**31):
            code, out, err = run(capsys, "lift", files["p4"], "--kind", kind,
                                 "--max-dim", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "1000000001 dimensions exceed the member cap" in err

    def test_directory_input_is_an_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "lift", tmp_path)
        assert code == 2
        assert err.startswith("input error")


class TestTest:
    def test_wl1_misses_the_classic_pair(self, capsys, files):
        code, out, _ = run(capsys, "test", files["c6"], files["kk"],
                           "--method", "wl1")
        assert code == 0
        assert out.startswith("NOT-DISTINGUISHED")

    def test_path_refinement_separates_it(self, capsys, files):
        code, out, _ = run(capsys, "test", files["c6"], files["kk"],
                           "--method", "pwl", "--max-dim", "2")
        assert code == 0
        assert out.startswith("DISTINGUISHED")

    def test_graph_against_itself(self, capsys, files):
        for method in ("wl1", "pwl", "swl", "cwl", "pcn"):
            code, out, _ = run(capsys, "test", files["c6"], files["c6"],
                               "--method", method, "--seeds", "0,1")
            assert code == 0
            assert out.startswith("NOT-DISTINGUISHED"), method

    def test_histogram_dump(self, capsys, files):
        code, out, _ = run(capsys, "test", files["c6"], files["kk"],
                           "--method", "pwl", "--max-dim", "2", "--histograms")
        assert code == 0
        assert "histogram-a" in out

    def test_empty_seed_list_is_a_usage_error(self, capsys, files):
        code, out, err = run(capsys, "test", files["c6"], files["kk"],
                             "--method", "pcn", "--seeds", ",")
        assert code == 1
        assert out == ""
        assert "needs a non-empty seed list" in err

    @pytest.mark.parametrize("method", ["pcn", "pwl"])
    def test_negative_layers_is_a_usage_error(self, capsys, files, method):
        code, out, err = run(capsys, "test", files["c6"], files["kk"],
                             "--method", method, "--layers", "-2")
        assert code == 1
        assert out == ""
        assert "layers" in err

    @pytest.mark.parametrize("flag", ["--hidden-dim", "--embed-dim"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_dims_are_usage_errors(self, capsys, files, flag,
                                                value):
        code, out, err = run(capsys, "test", files["c6"], files["kk"],
                             "--method", "pcn", "--seeds", "0", flag, value)
        assert code == 1
        assert out == ""
        assert "must be positive" in err
        assert "Traceback" not in err

    def test_json_output(self, capsys, files):
        code, out, _ = run(capsys, "test", files["c6"], files["kk"],
                           "--method", "pwl", "--max-dim", "2",
                           "--output-format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "DISTINGUISHED"

    @pytest.mark.parametrize("method", ["pcn", "cwn"])
    @pytest.mark.parametrize("layers", ["2", "4"])
    @pytest.mark.parametrize("a, b, verdict", [
        ("c6", "kk", "DISTINGUISHED"), ("c6", "c6", "NOT-DISTINGUISHED"),
    ])
    def test_network_verdict_and_rounds(self, capsys, files, method, layers,
                                        a, b, verdict):
        code, out, _ = run(capsys, "test", files[a], files[b],
                           "--method", method, "--layers", layers)
        assert code == 0
        assert out == f"{verdict} rounds={layers}\n"


class TestFamilies:
    def test_square_listing(self, capsys, files):
        code, out, _ = run(capsys, "families", files["fig3b"], "--max-ring", "4")
        assert code == 0
        assert "ring 0-1-3-2" in out
        assert "F3: (0,1,3,2) (0,2,3,1) (1,0,2,3) (2,0,1,3)" in out
        assert "F2: (0,1,3) (0,2,3) (1,0,2) (1,3,2)" in out
        assert "F1: (0,1) (0,2) (1,3) (2,3)" in out
        assert "F0: (0) (1) (2) (3)" in out

    def test_triangle(self, capsys, tmp_path):
        tri = tmp_path / "k3.edges"
        tri.write_text("n 3\n0 1\n1 2\n0 2\n")
        code, out, _ = run(capsys, "families", tri, "--max-ring", "3")
        assert code == 0
        assert out.count("F2:") == 1
        assert len(out.splitlines()) == 4  # ring header + three family lines

    def test_acyclic(self, capsys, files):
        code, out, _ = run(capsys, "families", files["tree"])
        assert code == 0
        assert out.strip() == "no rings"


class TestBench:
    def test_smallest_family_cell_is_zero(self, capsys, srg_specs, tmp_path):
        spec = srg_specs["SR(16,6,2,2)"]
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            f"{spec.name} {spec.path} {spec.n} {spec.k} {spec.lam} {spec.mu}\n"
        )
        prefix = tmp_path / "out"
        code, out, _ = run(capsys, "bench", manifest, "--methods", "pcn",
                           "--max-dim", "3", "--layers", "4",
                           "--out-prefix", prefix)
        assert code == 0
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["reports"][0]["aggregate"]["mean"] == 0.0
        assert (tmp_path / "out.csv").read_text().startswith("family,")

    @pytest.mark.parametrize("flags", [
        ("--layers=-1",), ("--layers", "2,-1"), ("--hidden-dim", "0"),
        ("--embed-dim", "0"),
    ])
    def test_bad_network_sizes_are_usage_errors(self, capsys, srg_specs,
                                                tmp_path, flags):
        spec = srg_specs["SR(16,6,2,2)"]
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            f"{spec.name} {spec.path} {spec.n} {spec.k} {spec.lam} {spec.mu}\n"
        )
        prefix = tmp_path / "out"
        code, out, err = run(capsys, "bench", manifest, "--methods", "pcn",
                             "--seeds", "0", "--out-prefix", prefix, *flags)
        assert code == 1
        assert out == ""
        assert "usage error" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("methods", ["pcn", "wl1,pcn"])
    @pytest.mark.parametrize("layers", ["6..3", ","])
    def test_empty_layer_list_is_a_usage_error(self, capsys, srg_specs, tmp_path,
                                               methods, layers):
        spec = srg_specs["SR(16,6,2,2)"]
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            f"{spec.name} {spec.path} {spec.n} {spec.k} {spec.lam} {spec.mu}\n"
        )
        code, out, err = run(capsys, "bench", manifest, "--methods", methods,
                             "--layers", layers, "--output-format", "csv")
        assert code == 1
        assert out == ""
        assert "usage error" in err

    def test_empty_manifest_warns_and_succeeds(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("# nothing here\n")
        code, out, err = run(capsys, "bench", manifest)
        assert code == 0
        assert "empty manifest" in err

    def test_missing_family_isolated(self, capsys, srg_specs, tmp_path):
        spec = srg_specs["SR(16,6,2,2)"]
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            "GHOST /nonexistent.g6 5 2 0 1\n"
            f"{spec.name} {spec.path} {spec.n} {spec.k} {spec.lam} {spec.mu}\n"
        )
        code, out, err = run(capsys, "bench", manifest, "--methods", "wl1")
        assert code == 0
        assert "GHOST" in err
        assert "SR(16,6,2,2)" in out


    def test_non_ascii_manifest_is_an_input_error(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("FAM f\u00e9.g6 16 6 2 2\n", encoding="utf-8")
        code, _, err = run(capsys, "bench", manifest)
        assert code == 2
        assert "m.txt" in err

    @pytest.mark.parametrize("line", ["FAM f.g6 16 six 2 2", "FAM f.g6 16 6 2"])
    def test_malformed_manifest_is_an_input_error(self, capsys, tmp_path, line):
        manifest = tmp_path / "m.txt"
        manifest.write_text(line + "\n")
        code, _, err = run(capsys, "bench", manifest)
        assert code == 2
        assert "m.txt:1" in err

    def test_directory_manifest_is_an_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "bench", tmp_path)
        assert code == 2
        assert err.startswith("input error")


class TestTimeLift:
    def test_runs_and_reports(self, capsys, files):
        code, out, _ = run(capsys, "time-lift", files["c6"], "--repeats", "3",
                           "--max-dim", "3")
        assert code == 0
        assert "mean" in out and "member counts" in out


class TestConfig:
    def test_non_utf8_file_is_a_usage_error(self, capsys, files, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_bytes(b"member-cap = 3 # caf\xe9\n")
        code, _, err = run(capsys, "lift", files["p4"], "--config", cfg)
        assert code == 1
        assert f"{cfg}: not UTF-8 text" in err

    def test_unknown_key_fatal(self, capsys, files, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("banana = 7\n")
        code, _, err = run(capsys, "lift", files["p4"], "--config", cfg)
        assert code == 1
        assert "banana" in err

    def test_file_then_flag_precedence(self, capsys, files, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("# comment\nmember-cap = 3\n")
        code, _, _ = run(capsys, "lift", files["p4"], "--config", cfg,
                         "--member-cap", "100000")
        assert code == 0  # flag overrides the tiny cap from the file
        code, _, _ = run(capsys, "lift", files["c6"], "--config", cfg)
        assert code == 3  # file cap applies without the flag

    def test_config_epsilon_reaches_the_network_verdict(self, capsys, files,
                                                        tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("epsilon = 1e9\n")
        code, out, _ = run(capsys, "test", files["c6"], files["kk"],
                           "--method", "pcn", "--config", cfg)
        assert code == 0
        assert out.startswith("NOT-DISTINGUISHED")

    def test_bad_flag_usage_error(self, capsys, files):
        code, _, err = run(capsys, "lift", files["p4"], "--kind", "banana")
        assert code == 1

    def test_seed_ranges(self, capsys, files):
        code, _, _ = run(capsys, "test", files["c6"], files["c6"],
                         "--method", "pcn", "--seeds", "0..3,7")
        assert code == 0

    def test_reversed_seed_range_is_a_usage_error(self, capsys, files, tmp_path):
        code, out, err = run(capsys, "test", files["c6"], files["c6"],
                             "--method", "pcn", "--seeds", "3..1")
        assert (code, out) == (1, "")
        assert "usage error" in err
        cfg = tmp_path / "cfg"
        cfg.write_text("seeds = 3..1\n")
        code, _, err = run(capsys, "test", files["c6"], files["c6"],
                           "--method", "pcn", "--config", cfg)
        assert code == 1
        assert "seeds" in err

    def test_mutated_config_files_exit_cleanly(self, capsys, files, tmp_path,
                                               mutate_bytes):
        # seeded byte edits of a valid config file: every one ends in an
        # exit code, never an exception
        text = (b"# settings\nboundary-mode = incidence\nmember-cap = 100000\n"
                b"hidden-dim = 16\nembed-dim = 32\nepsilon = 0.01\nseeds = 0..3\n"
                b"threads = 1\noutput-format = json\n")
        rng = np.random.default_rng(37)
        cfg = tmp_path / "cfg"
        codes = set()
        for _ in range(1500):
            data = text
            for _ in range(int(rng.integers(1, 4))):
                data = mutate_bytes(data, rng)
            cfg.write_bytes(data)
            code = main(["test", str(files["c6"]), str(files["kk"]), "--config", str(cfg)])
            capsys.readouterr()
            assert code in (0, 1, 2, 3), data
            codes.add(code)
        assert codes == {0, 1, 3}

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "lift", "/does/not/exist.g6")
        assert code == 2


class TestLiftParameter:
    """A lift parameter the method cannot use exits 1 before any input is read."""

    @pytest.mark.parametrize("argv, message", [
        (("bench", "{manifest}", "--methods", "pwl", "--max-dim", "-1"),
         "max_dim must be non-negative"),
        (("bench", "{manifest}", "--methods", "cwl", "--max-ring", "2"),
         "max_ring must be at least 3"),
        (("bench", "{missing}", "--methods", "pwl", "--max-dim", "-1"),
         "max_dim must be non-negative"),
        (("test", "{missing}", "{missing}", "--method", "pwl", "--max-dim", "-1"),
         "max_dim must be non-negative"),
        (("test", "{missing}", "{missing}", "--method", "cwn", "--max-ring", "2"),
         "max_ring must be at least 3"),
        (("lift", "{missing}", "--kind", "simplex", "--max-dim", "-1"),
         "max_dim must be non-negative"),
        (("lift", "{missing}", "--kind", "cell", "--max-ring", "2"),
         "max_ring must be at least 3"),
        (("families", "{missing}", "--max-ring", "2"),
         "max_ring must be at least 3"),
    ])
    def test_bad_lift_parameter_is_a_usage_error(self, capsys, srg_specs,
                                                 tmp_path, argv, message):
        spec = srg_specs["SR(16,6,2,2)"]
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            f"{spec.name} {spec.path} {spec.n} {spec.k} {spec.lam} {spec.mu}\n"
        )
        paths = {"manifest": manifest, "missing": tmp_path / "missing.g6"}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (1, "")
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("flags", [
        ("--method", "wl1", "--max-dim", "-1", "--max-ring", "2"),
        ("--method", "pwl", "--max-ring", "2"),
        ("--method", "cwl", "--max-dim", "-1"),
    ])
    def test_a_flag_the_method_does_not_lift_with_is_ignored(self, capsys,
                                                             files, flags):
        code, out, _ = run(capsys, "test", files["c6"], files["kk"], *flags)
        assert code == 0
        assert out.startswith(("DISTINGUISHED", "NOT-DISTINGUISHED"))


class TestHelp:
    def test_every_config_key_has_a_flag(self, capsys):
        for sub in ("lift", "test", "bench", "families", "time-lift"):
            with pytest.raises(SystemExit):
                main([sub, "--help"])
            out = capsys.readouterr().out
            for flag in ("--config", "--boundary-mode", "--member-cap",
                         "--hidden-dim", "--embed-dim", "--epsilon",
                         "--seeds", "--threads", "--output-format"):
                assert flag in out, (sub, flag)


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys, files):
        _, out1, _ = run(capsys, "test", files["c6"], files["kk"],
                         "--method", "pwl", "--max-dim", "2", "--histograms")
        _, out2, _ = run(capsys, "test", files["c6"], files["kk"],
                         "--method", "pwl", "--max-dim", "2", "--histograms")
        assert out1 == out2


def test_installed_entry_point(tmp_path):
    p4 = tmp_path / "p4.edges"
    p4.write_text("n 4\n0 1\n1 2\n2 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pathcomplex.cli", str(p4), "--max-dim", "3"],
        capture_output=True, text=True,
    )
    # module invocation without a subcommand is a usage error, exit 1
    assert proc.returncode == 1
    proc = subprocess.run(
        [sys.executable, "-m", "pathcomplex.cli", "lift", str(p4),
         "--max-dim", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4 3 2 1"


@pytest.mark.parametrize("method", ["pcn", "pwl"])
def test_negative_seed_is_refused_before_any_input_is_read(capsys, tmp_path, method):
    missing = tmp_path / "missing.g6"  # reading it would exit 2
    code, out, err = run(capsys, "test", missing, missing, "--method", method,
                         "--seeds=-1")
    assert (code, out) == (1, "")
    assert "seed must be non-negative" in err


def test_bench_negative_seed_is_a_usage_error(capsys, srg_specs, tmp_path):
    spec = srg_specs["SR(16,6,2,2)"]
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        f"{spec.name} {spec.path} {spec.n} {spec.k} {spec.lam} {spec.mu}\n"
    )
    code, out, err = run(capsys, "bench", manifest, "--methods", "pcn,pwl",
                         "--seeds=-1", "--layers", "1", "--output-format", "csv")
    assert (code, out) == (1, "")
    assert "seed must be non-negative" in err
