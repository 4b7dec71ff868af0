"""Tests for weight assignments: constructors, lattice detection, serialization."""

import json

import pytest

import hypstat as hs


class TestHomomorphism:
    def test_edge_values_follow_entered_letter(self, aexp):
        assert aexp.dim == 1
        assert aexp.edge_values[("*", "a")] == (1,)
        assert aexp.edge_values[("b", "a")] == (1,)
        assert aexp.edge_values[("b", "A")] == (-1,)
        assert aexp.edge_values[("a", "b")] == (0,)
        assert hs.lattice_scale(aexp) == 1

    def test_uppercase_key_is_equivalent(self, free2, aexp):
        alt = hs.weights_from_homomorphism(free2, {"A": -1, "b": 0})
        assert alt.edge_values == aexp.edge_values

    def test_inverse_suffix_key(self, free2, aexp):
        alt = hs.weights_from_homomorphism(free2, {"a^-1": -1, "b": 0})
        assert alt.edge_values == aexp.edge_values

    def test_conflicting_inverse_values_rejected(self, free2):
        with pytest.raises(hs.InvalidArgumentError):
            hs.weights_from_homomorphism(free2, {"a": 1, "A": 1, "b": 0})

    def test_missing_generator_rejected(self, free2):
        with pytest.raises(hs.InvalidArgumentError):
            hs.weights_from_homomorphism(free2, {"a": 1})

    def test_unknown_generator_rejected(self, free2):
        with pytest.raises(hs.InvalidArgumentError):
            hs.weights_from_homomorphism(free2, {"a": 1, "b": 0, "c": 2})

    def test_vector_values(self, abel):
        assert abel.dim == 2
        assert abel.edge_values[("b", "a")] == (1, 0)
        assert abel.edge_values[("a", "B")] == (0, -1)

    def test_mixed_dimension_rejected(self, free2):
        with pytest.raises(hs.InvalidArgumentError):
            hs.weights_from_homomorphism(free2, {"a": (1, 0), "b": 1})


class TestWordLength:
    def test_all_edges_weigh_one(self, free2, wordlen):
        assert wordlen.dim == 1
        assert set(wordlen.edge_values.values()) == {(1.0,)}
        assert len(wordlen.edge_values) == len(free2.edges)
        assert hs.lattice_scale(wordlen) == 1


class TestEdgeTable:
    def test_indicator_table(self, aind):
        assert aind.edge_values[("b", "a")] == (1,)
        assert aind.edge_values[("B", "A")] == (0,)
        assert hs.lattice_scale(aind) == 1

    def test_missing_edges_rejected(self, free2):
        with pytest.raises(hs.InvalidArgumentError, match="misses"):
            hs.weights_from_edge_table(free2, {("*", "a"): 1})

    def test_unknown_edges_rejected(self, free2, aind):
        table = {key: vec[0] for key, vec in aind.edge_values.items()}
        table[("a", "A")] = 7
        with pytest.raises(hs.InvalidArgumentError, match="unknown"):
            hs.weights_from_edge_table(free2, table)


class TestLatticeScale:
    def test_integer_weights(self, aexp, wordlen, abel):
        assert hs.lattice_scale(aexp) == 1
        assert hs.lattice_scale(wordlen) == 1
        assert hs.lattice_scale(abel) == 1

    def test_rational_weights(self, free2):
        w = hs.weights_from_homomorphism(free2, {"a": 0.5, "b": 0.25})
        assert hs.lattice_scale(w) == 4

    def test_irrational_weights(self, proj):
        assert hs.lattice_scale(proj) is None

    def test_scaled_integer_values(self, free2):
        w = hs.weights_from_homomorphism(free2, {"a": 0.5, "b": 0.25})
        ints = hs.scaled_integer_values(w, 4)
        assert ints[("b", "a")] == (2,)
        assert ints[("a", "b")] == (1,)
        assert ints[("*", "B")] == (-1,)

    def test_scale_that_misses_a_denominator_raises(self, free2):
        # an explicit error, not an assert, so it also holds under python -O
        w = hs.weights_from_homomorphism(free2, {"a": 0.5, "b": 0.25})
        with pytest.raises(hs.InvalidArgumentError, match="1/2 lattice"):
            hs.scaled_integer_values(w, 2)


class TestInverseName:
    @pytest.mark.parametrize(
        "name, partner",
        [("a", "A"), ("A", "a"), ("g1^-1", "g1"), ("t", "T")],
    )
    def test_partners(self, name, partner):
        assert hs.inverse_name(name) == partner

    def test_no_convention(self):
        assert hs.inverse_name("g1") is None
        assert hs.inverse_name("x0") is None


class TestSerialization:
    def test_dump_then_load_round_trip(self, free2, aind):
        doc = hs.dump_weights(aind)
        again = hs.load_weights(doc, free2)
        assert again.edge_values == aind.edge_values
        assert again.dim == aind.dim

    def test_by_generator_document(self, free2, aexp):
        doc = {"dim": 1, "by_generator": {"a": 1, "b": 0}}
        assert hs.load_weights(doc, free2).edge_values == aexp.edge_values

    def test_load_from_path(self, tmp_path, free2, abel):
        target = tmp_path / "weights.json"
        target.write_text(json.dumps(hs.dump_weights(abel)), encoding="utf-8")
        assert hs.load_weights(target, free2).edge_values == abel.edge_values

    def test_dim_mismatch_rejected(self, free2):
        doc = {"dim": 2, "by_generator": {"a": 1, "b": 0}}
        with pytest.raises(hs.ValidationError):
            hs.load_weights(doc, free2)

    def test_both_forms_rejected(self, free2):
        doc = {"dim": 1, "by_generator": {}, "by_edge": []}
        with pytest.raises(hs.ValidationError):
            hs.load_weights(doc, free2)

    def test_malformed_json_file(self, tmp_path, free2):
        target = tmp_path / "broken.json"
        target.write_text("{not json", encoding="utf-8")
        with pytest.raises(hs.ValidationError, match="line 1"):
            hs.load_weights(target, free2)
