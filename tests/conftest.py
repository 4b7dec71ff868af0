"""Shared fixtures and the acceptance-criteria terminal summary."""

from __future__ import annotations

import math

import pytest
from hypothesis import settings

import hypstat as hs

# one hypothesis profile for every property test: reproducible examples and
# no per-example deadline (exact enumeration times vary with the example)
settings.register_profile("hypstat", derandomize=True, deadline=None)
settings.load_profile("hypstat")

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    """Store one acceptance outcome for the terminal summary."""
    ACCEPTANCE_RESULTS[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} {word}: {detail}")


def build_mirror_coding() -> hs.MarkovCoding:
    """Two disjoint copies of the rank-2 letter graph plus a period-2 t-cycle.

    Both copies are maximal components with identical spectra, so component
    consistency must hold exactly; the t-cycle is non-maximal and makes the
    overcounted path count H_n exceed #W_n by one per length.
    """
    letters = ["a", "A", "b", "B"]
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    vertices = ["*"]
    edges: list[dict[str, str]] = []
    for copy in ("1", "2"):
        names = {u: u + copy for u in letters}
        vertices.extend(names[u] for u in letters)
        for u in letters:
            edges.append({"from": "*", "to": names[u], "label": u})
            for v in letters:
                if v != inverse[u]:
                    edges.append({"from": names[u], "to": names[v], "label": v})
    vertices.extend(["t1", "t2"])
    edges.append({"from": "*", "to": "t1", "label": "t"})
    edges.append({"from": "t1", "to": "t2", "label": "t"})
    edges.append({"from": "t2", "to": "t1", "label": "t"})
    doc = {
        "generators": ["a", "A", "b", "B", "t"],
        "vertices": vertices,
        "edges": edges,
    }
    return hs.load_coding(doc)


def build_z2z3_coding() -> hs.MarkovCoding:
    """Z/2 * Z/3: ``s`` has order 2, ``t`` and ``T = t^-1`` generate the
    order-3 factor, so reduced words alternate ``s`` with ``t`` or ``T``; the
    one component has period 2."""
    edges = [
        ("*", "s"), ("*", "t"), ("*", "T"), ("s", "t"), ("s", "T"), ("t", "s"), ("T", "s")
    ]
    doc = {
        "generators": ["s", "t", "T"],
        "vertices": ["*", "s", "t", "T"],
        "edges": [{"from": u, "to": v, "label": v} for u, v in edges],
    }
    return hs.load_coding(doc)


def target_letter_weights(coding: hs.MarkovCoding, letters: dict) -> hs.WeightAssignment:
    """Each edge weighted by ``letters`` at the label of its target letter."""
    table = {(e.source, e.target): letters[e.label] for e in coding.edges}
    return hs.weights_from_edge_table(coding, table)


@pytest.fixture(scope="session")
def free2():
    return hs.build_free_group_coding(2)


@pytest.fixture(scope="session")
def free1():
    return hs.build_free_group_coding(1)


@pytest.fixture(scope="session")
def mirror():
    return build_mirror_coding()


@pytest.fixture(scope="session")
def one_edge():
    # one generator x with no inverse letter; the only word is x
    return hs.MarkovCoding(
        generators=("x",), vertices=("*", "x"), edges=(hs.CodingEdge("*", "x", "x"),)
    )


@pytest.fixture(scope="session")
def free2_decomp(free2):
    return hs.decompose_components(free2)


@pytest.fixture(scope="session")
def free1_decomp(free1):
    return hs.decompose_components(free1)


@pytest.fixture(scope="session")
def mirror_decomp(mirror):
    return hs.decompose_components(mirror)


@pytest.fixture(scope="session")
def aexp(free2):
    return hs.weights_from_homomorphism(free2, {"a": 1, "b": 0})


@pytest.fixture(scope="session")
def aind(free2):
    table = {
        (e.source, e.target): 1 if e.label == "a" else 0
        for e in free2.edges
    }
    return hs.weights_from_edge_table(free2, table)


@pytest.fixture(scope="session")
def wordlen(free2):
    return hs.weights_word_length(free2)


@pytest.fixture(scope="session")
def abel(free2):
    return hs.weights_from_homomorphism(free2, {"a": (1, 0), "b": (0, 1)})


@pytest.fixture(scope="session")
def rank1(free2):
    return hs.weights_from_homomorphism(free2, {"a": (1, 1), "b": (0, 0)})


@pytest.fixture(scope="session")
def proj(free2):
    return hs.weights_from_homomorphism(free2, {"a": 1.0, "b": math.sqrt(2)})


@pytest.fixture(scope="session")
def root_half(free2):
    """b = 1/sqrt 2 lies on no lattice: moment sums run in floats and
    distributions through bins."""
    return hs.weights_from_homomorphism(free2, {"a": 1, "b": math.sqrt(2) / 2})


@pytest.fixture(scope="session")
def mirror_hom(mirror):
    return hs.weights_from_homomorphism(mirror, {"a": 1, "b": 0, "t": 0})


@pytest.fixture(scope="session")
def aexp_stats(free2, aexp):
    return hs.limit_statistics(free2, aexp)


@pytest.fixture(scope="session")
def aind_stats(free2, aind):
    return hs.limit_statistics(free2, aind)


@pytest.fixture(scope="session")
def wordlen_stats(free2, wordlen):
    return hs.limit_statistics(free2, wordlen)


@pytest.fixture(scope="session")
def abel_stats(free2, abel):
    return hs.limit_statistics(free2, abel)


@pytest.fixture(scope="session")
def rank1_stats(free2, rank1):
    return hs.limit_statistics(free2, rank1)


@pytest.fixture(scope="session")
def proj_stats(free2, proj):
    return hs.limit_statistics(free2, proj)


@pytest.fixture(scope="session")
def root_half_stats(free2, root_half):
    return hs.limit_statistics(free2, root_half)


@pytest.fixture(scope="session")
def mirror_stats(mirror, mirror_hom):
    return hs.limit_statistics(mirror, mirror_hom)
