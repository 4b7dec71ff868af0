"""Tests for coding graphs: construction, validation, decomposition, growth."""

import math
from pathlib import Path

import pytest

import hypstat as hs
from conftest import build_mirror_coding, build_z2z3_coding

# dump_coding(build_free_group_coding(2)) as written before codings dropped
# the absorbing "0" vertex: the legacy "augmented" document form
LEGACY_FREE2 = Path(__file__).parent / "data" / "free2_augmented.json"

# [DERIVED] brute-force reduced-word counts from tests/oracles.py
FREE2_COUNTS = [1, 4, 12, 36, 108, 324, 972, 2916, 8748]


class TestFreeCoding:
    def test_generators_and_vertices(self, free2):
        assert free2.generators == ("a", "A", "b", "B")
        assert set(free2.vertices) == {"*", "a", "A", "b", "B"}
        assert set(free2.core_vertices) == {"a", "A", "b", "B"}

    def test_edge_structure(self, free2):
        by_source = {v: len(free2.out_edges[v]) for v in free2.vertices}
        # star reaches the four letters; each letter has three reduced
        # continuations
        assert by_source["*"] == 4
        assert by_source["a"] == 3
        labels = {e.label for e in free2.edges}
        assert labels == {"a", "A", "b", "B"}

    @pytest.mark.parametrize("n", range(9))
    def test_sphere_counts(self, free2, n):
        assert hs.sphere_counts(free2, n)[n] == FREE2_COUNTS[n]

    def test_count_words_formula(self, free2):
        assert hs.sphere_counts(free2, 12)[12] == 4 * 3**11

    def test_rank_one_counts(self, free1):
        assert hs.sphere_counts(free1, 5) == [1, 2, 2, 2, 2, 2]

    def test_invalid_rank(self):
        with pytest.raises(hs.InvalidArgumentError):
            hs.build_free_group_coding(0)


class TestLoadAndDump:
    def test_round_trip(self, free2):
        doc = hs.dump_coding(free2)
        again = hs.load_coding(doc)
        assert again.generators == free2.generators
        assert set(again.vertices) == set(free2.vertices)
        assert {(e.source, e.target, e.label) for e in again.edges} == {
            (e.source, e.target, e.label) for e in free2.edges
        }

    def test_load_from_path(self, tmp_path, free2):
        import json

        target = tmp_path / "coding.json"
        target.write_text(json.dumps(hs.dump_coding(free2)), encoding="utf-8")
        again = hs.load_coding(target)
        assert hs.sphere_counts(again, 4) == FREE2_COUNTS[:5]

    @pytest.mark.parametrize(
        "name", ["free:1", "free:2", "free:3", "free:5", "mirror", "z2z3"]
    )
    def test_dump_load_is_identity(self, name):
        if name.startswith("free:"):
            coding = hs.build_free_group_coding(int(name[len("free:") :]))
        else:
            coding = {"mirror": build_mirror_coding, "z2z3": build_z2z3_coding}[name]()
        doc = hs.dump_coding(coding)
        assert "augmented" not in doc
        assert hs.load_coding(doc) == coding

    def test_legacy_augmented_document_loads(self, free2):
        assert hs.load_coding(LEGACY_FREE2) == free2

    def test_legacy_labelled_edge_into_zero_rejected(self):
        doc = {
            "generators": ["a"],
            "vertices": ["*", "0", "p"],
            "edges": [
                {"from": "*", "to": "p", "label": "a"},
                {"from": "p", "to": "0", "label": "a"},
            ],
            "augmented": True,
        }
        with pytest.raises(hs.ValidationError, match="unknown target vertex '0'"):
            hs.load_coding(doc)

    def test_zero_is_an_ordinary_vertex_name(self):
        doc = {
            "generators": ["a"],
            "vertices": ["*", "0", "p"],
            "edges": [
                {"from": "*", "to": "0", "label": "a"},
                {"from": "0", "to": "p", "label": "a"},
                {"from": "p", "to": "0", "label": "a"},
            ],
        }
        coding = hs.load_coding(doc)
        assert coding.core_vertices == ("0", "p")
        assert hs.sphere_counts(coding, 4) == [1, 1, 1, 1, 1]

    def test_duplicate_vertex_rejected(self):
        doc = {
            "generators": ["a"],
            "vertices": ["*", "p", "p"],
            "edges": [{"from": "*", "to": "p", "label": "a"}],
        }
        with pytest.raises(hs.ValidationError):
            hs.load_coding(doc)

    def test_unknown_label_rejected(self):
        doc = {
            "generators": ["a"],
            "vertices": ["*", "p"],
            "edges": [{"from": "*", "to": "p", "label": "q"}],
        }
        with pytest.raises(hs.ValidationError):
            hs.load_coding(doc)

    def test_missing_star_rejected(self):
        doc = {
            "generators": ["a"],
            "vertices": ["p"],
            "edges": [],
        }
        with pytest.raises(hs.ValidationError):
            hs.load_coding(doc)

    def test_edge_to_unknown_vertex_rejected(self):
        doc = {
            "generators": ["a"],
            "vertices": ["*", "p"],
            "edges": [{"from": "*", "to": "x", "label": "a"}],
        }
        with pytest.raises(hs.ValidationError):
            hs.load_coding(doc)


class TestValidateCoding:
    def test_free2_bijection(self, free2):
        report = hs.validate_coding(free2, 6)
        assert report.ok
        assert report.failures == ()
        assert list(report.paths_per_depth) == FREE2_COUNTS[:7]

    def test_mirror_is_not_injective_on_words(self, mirror):
        # two copies spell every reduced word twice, so the word map is not
        # injective; the validator must say so rather than crash
        report = hs.validate_coding(mirror, 3)
        assert not report.ok


class TestDecomposition:
    def test_free2_single_maximal(self, free2_decomp):
        decomp = free2_decomp
        assert decomp.lam == pytest.approx(3.0, abs=1e-9)
        assert decomp.entropy == pytest.approx(math.log(3.0), abs=1e-9)
        assert len(decomp.maximal_indices) == 1
        comp = decomp.components[decomp.maximal_indices[0]]
        assert set(comp.vertices) == {"a", "A", "b", "B"}
        assert comp.maximal
        assert comp.period == 1
        assert not decomp.elementary

    def test_free2_mask_keeps_all_core(self, free2, free2_decomp):
        mask = free2_decomp.mask_for(free2_decomp.maximal_indices[0])
        assert set(mask) == set(free2.core_vertices)

    def test_mask_for_non_maximal_rejected(self, mirror_decomp):
        non_maximal = [
            i
            for i, comp in enumerate(mirror_decomp.components)
            if not comp.maximal
        ]
        with pytest.raises(hs.InvalidArgumentError):
            mirror_decomp.mask_for(non_maximal[0])

    def test_mirror_two_maximal(self, mirror_decomp):
        decomp = mirror_decomp
        assert decomp.lam == pytest.approx(3.0, abs=1e-9)
        assert len(decomp.maximal_indices) == 2
        vertex_sets = {
            frozenset(decomp.components[i].vertices) for i in decomp.maximal_indices
        }
        assert vertex_sets == {
            frozenset({"a1", "A1", "b1", "B1"}),
            frozenset({"a2", "A2", "b2", "B2"}),
        }

    def test_mirror_masks_exclude_other_maximal(self, mirror_decomp):
        decomp = mirror_decomp
        first, second = decomp.maximal_indices
        mask1 = set(decomp.mask_for(first))
        assert set(decomp.components[second].vertices).isdisjoint(mask1)
        assert set(decomp.components[first].vertices) <= mask1
        assert {"t1", "t2"} <= mask1

    def test_mirror_t_cycle_period_two(self, mirror_decomp):
        decomp = mirror_decomp
        t_index = [
            i
            for i, comp in enumerate(decomp.components)
            if set(comp.vertices) == {"t1", "t2"}
        ]
        assert len(t_index) == 1
        comp = decomp.components[t_index[0]]
        assert not comp.maximal
        assert comp.spectral_radius == pytest.approx(1.0, abs=1e-9)
        assert comp.period == 2

    def test_rank_one_elementary(self, free1_decomp):
        assert free1_decomp.elementary
        assert free1_decomp.lam == pytest.approx(1.0, abs=1e-9)

    def test_acyclic_component_period_zero(self):
        doc = {
            "generators": ["a", "b"],
            "vertices": ["*", "p", "q"],
            "edges": [
                {"from": "*", "to": "p", "label": "a"},
                {"from": "p", "to": "q", "label": "b"},
                {"from": "q", "to": "q", "label": "a"},
            ],
        }
        decomp = hs.decompose_components(hs.load_coding(doc))
        by_vertices = {comp.vertices: comp for comp in decomp.components}
        assert by_vertices[("p",)].period == 0
        assert by_vertices[("q",)].period == 1

    def test_z2z3_single_component_period_two(self):
        coding = build_z2z3_coding()
        decomp = hs.decompose_components(coding)
        (comp,) = decomp.components
        assert comp.vertices == ("s", "t", "T")
        assert comp.maximal and comp.period == 2
        assert decomp.lam == pytest.approx(math.sqrt(2.0), abs=1e-12)
        expected = [1] + [
            3 * 2 ** ((n - 1) // 2) if n % 2 else 2 ** (n // 2 + 1) for n in range(1, 31)
        ]
        assert hs.sphere_counts(coding, 30) == expected

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([], "no core vertex is reachable"),
            ([("*", "p"), ("p", "q")], "every reachable component is transient"),
            (
                [("*", "p"), ("p", "p"), ("p", "q"), ("q", "q")],
                r"two maximal-growth components are connected .*\(components 1 and 0\)",
            ),
        ],
        ids=["unreachable-core", "all-transient", "joined-maximal"],
    )
    def test_structure_errors(self, edges, message):
        doc = {
            "generators": ["a"],
            "vertices": ["*", "p", "q"],
            "edges": [{"from": u, "to": v, "label": "a"} for u, v in edges],
        }
        coding = hs.load_coding(doc)
        with pytest.raises(hs.StructureError, match=message):
            hs.decompose_components(coding)


class TestGrowth:
    def test_free2_growth(self, free2):
        report = hs.growth_rate(free2, horizon=24)
        assert report.lam == pytest.approx(3.0, abs=1e-9)
        assert report.entropy == pytest.approx(math.log(3.0), abs=1e-9)
        assert not report.elementary

    def test_mirror_growth(self, mirror):
        report = hs.growth_rate(mirror, horizon=24)
        assert report.lam == pytest.approx(3.0, abs=1e-9)

    def test_rank_one_growth_elementary(self, free1):
        report = hs.growth_rate(free1, horizon=24)
        assert report.lam == pytest.approx(1.0, abs=1e-9)
        assert report.elementary
