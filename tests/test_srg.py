"""Strongly-regular constructions and the generated corpus files."""

import numpy as np
import pytest

from generate_srg_data import (
    chang_graphs,
    cyclic_latin_square,
    dedupe_by_fingerprint,
    find_regular_switch_sets,
    latin_square_graph,
    noncyclic_latin_square_order5,
    paley_graph,
    seidel_switch,
    shrikhande_graph,
    steiner_block_graph,
    steiner_triple_system_15,
    switched_extension,
    triangular_graph,
    two_graph_descendants,
)
from pathcomplex.bench import load_family
from pathcomplex.complexes import lift_path_complex
from pathcomplex.graphs import (
    apply_permutation,
    complete_graph,
    cycle_graph,
    path_graph,
    random_permutation,
)
from pathcomplex.refine import stable_fingerprint
from pathcomplex.srg import is_strongly_regular, rook_graph_4x4, srg_parameters


class TestConstructions:
    def test_sixteen_vertex_pair(self):
        assert srg_parameters(rook_graph_4x4()) == (16, 6, 2, 2)
        assert srg_parameters(shrikhande_graph()) == (16, 6, 2, 2)

    def test_triangular_and_chang(self):
        assert srg_parameters(triangular_graph(8)) == (28, 12, 6, 4)
        for g in chang_graphs():
            assert srg_parameters(g) == (28, 12, 6, 4)

    def test_paley(self):
        assert srg_parameters(paley_graph(25)) == (25, 12, 5, 6)
        assert srg_parameters(paley_graph(29)) == (29, 14, 6, 7)

    def test_paley_needs_one_mod_four(self):
        with pytest.raises(ValueError):
            paley_graph(7)

    def test_latin_square_graphs(self):
        cyc = latin_square_graph(cyclic_latin_square(5))
        assert srg_parameters(cyc) == (25, 12, 5, 6)
        other = latin_square_graph(noncyclic_latin_square_order5())
        assert srg_parameters(other) == (25, 12, 5, 6)
        assert stable_fingerprint(lift_path_complex(cyc, 3)) != stable_fingerprint(
            lift_path_complex(other, 3)
        )

    def test_steiner_block_graphs(self):
        for variant in ("projective", "cyclic", "doubled", "doubled-swapped"):
            blocks = steiner_triple_system_15(variant)
            assert srg_parameters(steiner_block_graph(blocks)) == (35, 18, 9, 9)

    def test_switching_is_involutive(self):
        g = rook_graph_4x4()
        assert seidel_switch(seidel_switch(g, [0, 1, 2]), [0, 1, 2]) == g

    def test_descendants_preserve_parameters(self):
        g = paley_graph(25)
        descendants = two_graph_descendants(g)
        assert len(descendants) == 26
        for d in descendants:
            assert is_strongly_regular(d, 25, 12, 5, 6)

    def test_switch_set_search_builds_members_one_vertex_up(self):
        g = paley_graph(25)
        sols = find_regular_switch_sets(g, 10, limit=2, time_budget=30.0)
        assert sols
        for s in sols:
            assert is_strongly_regular(switched_extension(g, s), 26, 10, 3, 4)


class TestDedupe:
    def test_permuted_copies_collapse(self):
        rng = np.random.default_rng(1)
        g = rook_graph_4x4()
        copies = [g] + [
            apply_permutation(g, random_permutation(g.n, rng)) for _ in range(3)
        ]
        assert len(dedupe_by_fingerprint(copies, dim=2)) == 1

    def test_distinct_graphs_survive(self):
        kept = dedupe_by_fingerprint([rook_graph_4x4(), shrikhande_graph()], dim=3)
        assert len(kept) == 2

    def test_keeps_first_occurrence_order(self):
        rng = np.random.default_rng(4)
        graphs = [complete_graph(4), cycle_graph(5), rook_graph_4x4(), path_graph(5),
                  shrikhande_graph(), cycle_graph(4)]
        graphs += [apply_permutation(g, random_permutation(g.n, rng)) for g in graphs]
        assert dedupe_by_fingerprint(graphs, dim=3) == graphs[:6]

    def test_constructions_dedupe_to_committed_files(self, srg_specs):
        blocks = [
            steiner_block_graph(steiner_triple_system_15(v))
            for v in ("projective", "cyclic", "doubled", "doubled-swapped")
        ]
        for name, graphs in (
            ("SR(16,6,2,2)", [rook_graph_4x4(), shrikhande_graph()]),
            ("SR(28,12,6,4)", [triangular_graph(8)] + chang_graphs()),
            ("SR(35,18,9,9)", blocks),
        ):
            assert dedupe_by_fingerprint(graphs, dim=3) == load_family(srg_specs[name])


class TestCorpusData:
    EXPECTED_MIN = {
        "SR(16,6,2,2)": 2,
        "SR(25,12,5,6)": 2,
        "SR(26,10,3,4)": 2,
        "SR(28,12,6,4)": 4,
        "SR(29,14,6,7)": 1,
        "SR(35,18,9,9)": 2,
        "SR(35,16,6,8)": 2,
    }

    def test_families_load_and_validate(self, srg_specs):
        for name, minimum in self.EXPECTED_MIN.items():
            spec = srg_specs[name]
            graphs = load_family(spec)  # validates every member
            assert len(graphs) >= minimum

    def test_complete_families_have_exact_counts(self, srg_specs):
        assert len(load_family(srg_specs["SR(16,6,2,2)"])) == 2
        assert len(load_family(srg_specs["SR(28,12,6,4)"])) == 4

    def test_members_pairwise_distinct(self, srg_specs):
        for name in ("SR(16,6,2,2)", "SR(26,10,3,4)", "SR(28,12,6,4)"):
            graphs = load_family(srg_specs[name])
            prints = [stable_fingerprint(lift_path_complex(g, 3)) for g in graphs]
            assert len(set(prints)) == len(prints)
