import hashlib
import math
from itertools import combinations

import pytest

from quasikernel import (
    Digraph,
    GenerationError,
    PreconditionError,
    has_qk_of_size_at_most,
    lift_domset,
    min_dominating_set,
    min_quasi_kernel,
    project_qk,
    reduce_dds_to_qk,
    serialize_instance,
)
from quasikernel import instances
from quasikernel.digraph import members

SINGLE_ARC = Digraph(2, [(0, 1)])


def all_three_vertex_digraphs():
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    for bits in range(64):
        yield Digraph(3, [pairs[i] for i in range(6) if bits >> i & 1])


def test_hosts_of_the_three_vertex_sources_are_pinned():
    # one digest over the 128 hosts at q = 1, 2, each serialized with its
    # names as comments: a change to the numbering or to an arc moves it
    digest = hashlib.sha256()
    for d in all_three_vertex_digraphs():
        for q in (1, 2):
            art = reduce_dds_to_qk(d, q)
            digest.update(serialize_instance(art.host, art.names).encode())
    assert digest.hexdigest() == "1cd0fbdb20f04c894b296f07c310dce157f1fba1889d465508e2ab759bd7757d"


def test_counts_on_single_arc_q1():
    art = reduce_dds_to_qk(SINGLE_ARC, 1)
    assert art.b == 5
    assert art.host.graph.n == 14
    assert len(art.host.graph.arcs) == 28


def test_count_formulas_hold_generally():
    for q in (1, 2, 3):
        for d in (SINGLE_ARC, Digraph(3, [(0, 1), (1, 2), (2, 0)]), Digraph(4)):
            art = reduce_dds_to_qk(d, q)
            n, m, b = d.n, len(d.arcs), 2 * q + 3
            assert art.b == b and b % 2 == 1
            assert art.host.graph.n == n + m + 2 * b + 1
            assert len(art.host.graph.arcs) == math.comb(m + b, 2) + 3 * m + 2 * b


def test_host_is_an_orientation_of_a_split_graph():
    art = reduce_dds_to_qk(Digraph(3, [(0, 1), (1, 2)]), 2)
    flags = art.host.classify()
    assert flags.orientation
    sub, _, _ = art.host.graph.induced(members(art.host.clique))
    assert sub.semicomplete_violation() is None


def test_labels_cover_all_host_vertices():
    art = reduce_dds_to_qk(SINGLE_ARC, 1)
    assert len(art.names) == art.host.graph.n
    n, m, b = art.source_n, art.source_m, art.b
    assert art.labels["s"] == 0
    assert art.labels["s1_0"] == 1
    assert art.labels["s1_1"] == 1 + 1
    assert art.labels["s2_1"] == 1 + n
    assert art.labels["s2_5"] == 1 + n + 4
    assert art.labels["k1_0_1"] == 1 + n + b
    assert art.labels["k2_1"] == 1 + n + b + m
    assert art.labels["k2_5"] == 1 + n + b + m + 4
    assert all(art.names[idx] == name for name, idx in art.labels.items())


def test_reduce_rejects_bad_q():
    with pytest.raises(ValueError):
        reduce_dds_to_qk(SINGLE_ARC, 0)


def test_reduce_checks_the_instance_caps_before_building(monkeypatch):
    # SINGLE_ARC at q=1 needs 14 vertices and 28 arcs
    def never(*args):
        raise AssertionError("the host was built")

    monkeypatch.setattr(instances, "Digraph", never)
    monkeypatch.setattr(instances, "MAX_ARCS", 27)
    with pytest.raises(GenerationError, match="28 arcs, over the cap MAX_ARCS=27"):
        reduce_dds_to_qk(SINGLE_ARC, 1)
    monkeypatch.setattr(instances, "MAX_ARCS", 28)
    monkeypatch.setattr(instances, "MAX_VERTICES", 13)
    with pytest.raises(GenerationError, match="14 vertices, over the cap MAX_VERTICES=13"):
        reduce_dds_to_qk(SINGLE_ARC, 1)
    monkeypatch.setattr(instances, "MAX_VERTICES", 14)
    with pytest.raises(AssertionError, match="the host was built"):
        reduce_dds_to_qk(SINGLE_ARC, 1)


def test_lift_single_arc():
    art = reduce_dds_to_qk(SINGLE_ARC, 1)
    lifted = lift_domset(art, {1})
    assert lifted == {art.labels["s"], art.labels["s1_1"]}
    assert art.host.graph.is_quasi_kernel(lifted)


def test_lift_whole_vertex_set():
    d = Digraph(3, [(0, 1)])
    art = reduce_dds_to_qk(d, 3)
    lifted = lift_domset(art, {0, 1, 2})
    assert len(lifted) == 4


def test_lift_rejects_non_dominating():
    art = reduce_dds_to_qk(SINGLE_ARC, 1)
    with pytest.raises(PreconditionError, match="dominating"):
        lift_domset(art, {0})


def test_project_rejects_oversized_or_invalid():
    art = reduce_dds_to_qk(SINGLE_ARC, 1)
    lifted = lift_domset(art, {1})
    with pytest.raises(PreconditionError, match="larger"):
        project_qk(art, lifted | {art.labels["s2_1"], art.labels["s2_2"]})
    with pytest.raises(PreconditionError, match="not a quasi-kernel"):
        project_qk(art, {art.labels["s"]})


def test_round_trip_on_three_vertex_sources():
    from quasikernel import is_dominating

    for d in all_three_vertex_digraphs():
        dom = min_dominating_set(d)
        q = max(1, len(dom))
        art = reduce_dds_to_qk(d, q)
        for cand in combinations(range(3), len(dom)):
            if not is_dominating(d, cand):
                continue
            lifted = lift_domset(art, cand)
            assert project_qk(art, lifted) == frozenset(cand)


def test_projected_oracle_solution_dominates():
    d = Digraph(3, [(0, 1), (2, 1)])
    art = reduce_dds_to_qk(d, 1)
    rep = min_quasi_kernel(art.host, budget=2)
    assert rep.certificate is not None
    dom = project_qk(art, rep.certificate.vertices)
    assert len(dom) <= 1


def test_equivalence_sample():
    # full 64 x {1,2} sweep runs in the acceptance suite; spot-check here
    for bits_graph in (Digraph(3), Digraph(3, [(0, 1), (1, 2), (2, 0)])):
        for q in (1, 2):
            art = reduce_dds_to_qk(bits_graph, q)
            has_dom = min_dominating_set(bits_graph, budget=q) is not None
            assert has_dom == has_qk_of_size_at_most(art.host, q + 1)
