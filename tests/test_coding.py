"""Tests for coding graphs: construction, validation, decomposition, growth."""

import inspect
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypstat as hs
import oracles
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

    def test_coding_is_an_immutable_value(self, free2):
        coding = hs.build_free_group_coding(2)
        assert coding is not free2
        assert coding == free2 and hash(coding) == hash(free2)
        for field in ("generators", "vertices", "edges"):
            with pytest.raises(AttributeError):
                setattr(coding, field, ())
            with pytest.raises(AttributeError):
                delattr(coding, field)
        with pytest.raises(AttributeError):
            coding.extra = ()
        assert coding == free2

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

    # coding and weights files go through one reader, which names the document
    @pytest.mark.parametrize("what", ["coding", "weights"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "document parse error at line 1, column 2: Expecting property name"),
            ("[1, 2]", "document must be a JSON object"),
        ],
        ids=["malformed", "array"],
    )
    def test_file_reader_names_the_document(self, tmp_path, free2, what, text, message):
        target = tmp_path / f"{what}.json"
        target.write_text(text, encoding="utf-8")
        load = hs.load_coding if what == "coding" else lambda path: hs.load_weights(path, free2)
        with pytest.raises(hs.ValidationError, match=f"^{what} {message}"):
            load(target)


FAILURE = re.compile(r"depth (\d+): label word ('.*') spelled by paths (.+) and (.+)")


def first_depth(failures):
    return int(FAILURE.fullmatch(failures[0]).group(1))


@st.composite
def small_codings(draw):
    """1-5 core vertices over 1-3 labels, at most one edge per vertex pair;
    a deterministic coding repeats no label at a vertex."""
    core = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    labels = "xyz"[: draw(st.integers(1, 3))]
    deterministic = draw(st.booleans())
    edges = []
    for source in ["*", *core]:
        used = set()
        for target in core:
            label = draw(st.sampled_from(["", *labels]))
            if label and not (deterministic and label in used):
                used.add(label)
                edges.append(hs.CodingEdge(source, target, label))
    return hs.MarkovCoding(tuple(labels), ("*", *core), tuple(edges))


class TestValidateCoding:
    def test_free2_bijection(self, free2):
        report = hs.validate_coding(free2, 6)
        assert report.ok
        assert report.failures == ()
        assert list(report.paths_per_depth) == FREE2_COUNTS[:7]

    def test_free2_bijection_at_depth_200(self, free2):
        report = hs.validate_coding(free2, 200)
        assert report.ok
        assert report.paths_per_depth[200] == 4 * 3**199

    def test_mirror_is_not_injective_on_words(self, mirror):
        # two copies spell every reduced word twice, so the word map is not
        # injective; the validator names the four repeated labels at "*",
        # where every colliding pair of paths parts
        report = hs.validate_coding(mirror, 3)
        assert not report.ok
        assert report.paths_per_depth == (1, 9, 25, 73)
        assert report.failures == tuple(
            f"depth 1: label word {x!r} spelled by paths * -> {x}1 and * -> {x}2"
            for x in "aAbB"
        )

    @settings(settings.get_profile("hypstat"), max_examples=300)
    @given(small_codings(), st.integers(0, 6))
    def test_matches_the_path_enumeration(self, coding, depth):
        ok, counts, failures = oracles.validate_by_paths(coding, depth)
        report = hs.validate_coding(coding, depth)
        assert (report.ok, report.paths_per_depth) == (ok, counts)
        if failures:
            assert first_depth(report.failures) == first_depth(failures)
        label = {(e.source, e.target): e.label for e in coding.edges}
        for line in report.failures:
            level, word, *paths = FAILURE.fullmatch(line).groups()
            one, two = (path.split(" -> ") for path in paths)
            assert one != two
            assert len(one) == len(two) == int(level) + 1
            for path in (one, two):
                assert path[0] == "*"
                assert repr("".join(map(label.get, zip(path, path[1:])))) == word


@pytest.fixture
def dp_lines():
    """The source lines ``_path_totals`` runs while the fixture is active,
    and the line of its level loop."""
    function = hs.coding._path_totals
    source, start = inspect.getsourcelines(function)
    loop = start + next(i for i, text in enumerate(source) if "for _ in range(n_max)" in text)
    lines = []

    def local(frame, event, arg):
        if event == "line":
            lines.append(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is function.__code__ else None)
    try:
        yield lines, loop
    finally:
        sys.settrace(previous)


class TestCountBudget:
    # every exact count reads the path totals, which refuse before their
    # first level when the counts could outgrow the budget; free:2 to length
    # 8 needs over 600 bytes by that estimate
    @pytest.mark.parametrize(
        "count",
        [
            lambda free2: hs.sphere_counts(free2, 8),
            lambda free2: hs.growth_rate(free2, 8),
            lambda free2: hs.validate_coding(free2, 8),
            lambda free2: hs.distribution(
                free2, hs.weights_from_homomorphism(free2, {"a": 1, "b": 0}), 8
            ),
        ],
        ids=["sphere_counts", "growth_rate", "validate_coding", "distribution"],
    )
    def test_lowered_budget_refuses_before_the_first_level(
        self, monkeypatch, free2, dp_lines, count
    ):
        monkeypatch.setattr(hs.coding, "BYTE_BUDGET", 100)
        with pytest.raises(hs.ResourceError, match="over the 100-byte budget"):
            count(free2)
        lines, loop = dp_lines
        assert lines and max(lines) < loop

    def test_the_budget_admits_long_counts(self, free2):
        assert hs.sphere_counts(free2, 8000)[8000] == 4 * 3**7999


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

    # a maximal component's transfer matrix lives on its mask: the reachable
    # core minus the other maximal components, in core vertex order
    def test_free2_mask_keeps_all_core(self, free2, aexp):
        assert hs.pressure(free2, aexp).vertices == ("a", "A", "b", "B")
        z2z3 = build_z2z3_coding()
        assert hs.pressure(z2z3, hs.weights_word_length(z2z3)).vertices == ("s", "t", "T")

    def test_mask_for_non_maximal_rejected(self, mirror, mirror_hom, mirror_decomp):
        non_maximal = [
            i
            for i, comp in enumerate(mirror_decomp.components)
            if not comp.maximal
        ]
        message = f"component {non_maximal[0]} is not maximal; masks exist only for maximal"
        with pytest.raises(hs.InvalidArgumentError, match=message):
            hs.pressure(mirror, mirror_hom, non_maximal[0])

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

    def test_mirror_masks_exclude_other_maximal(self, mirror, mirror_hom, mirror_decomp):
        decomp = mirror_decomp
        masks = {i: hs.pressure(mirror, mirror_hom, i).vertices for i in decomp.maximal_indices}
        assert masks == {
            1: ("a2", "A2", "b2", "B2", "t1", "t2"),
            2: ("a1", "A1", "b1", "B1", "t1", "t2"),
        }
        first, second = decomp.maximal_indices
        for own, other in ((first, second), (second, first)):
            assert set(decomp.components[other].vertices).isdisjoint(masks[own])
            assert set(decomp.components[own].vertices) <= set(masks[own])
            assert {"t1", "t2"} <= set(masks[own])

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
