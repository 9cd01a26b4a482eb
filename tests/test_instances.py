import pytest

from conftest import strongly_connected
from quasikernel import (
    GenerationError,
    family_labels,
    gen_dn,
    gen_dpn,
    gen_random_complete_split,
    gen_random_split,
    min_quasi_kernel,
)
from quasikernel import instances
from quasikernel.digraph import members


def test_dn1_exact_structure():
    sd = gen_dn(1)
    assert sd.graph.n == 6
    expected = {(0, 1), (1, 2), (2, 0), (3, 0), (4, 1), (5, 2)}
    assert sd.graph.arcs == expected
    assert sd.clique == 0b111


def test_dn_vertex_count_formula():
    for n in range(1, 5):
        assert gen_dn(n).graph.n == 2 * n * n + 3 * n + 1


def test_dn_flags_and_circulant_degrees():
    for n in range(1, 5):
        sd = gen_dn(n)
        flags = sd.classify()
        assert flags.one_way and flags.sink_free and flags.orientation
        sub, _, _ = sd.graph.induced(members(sd.clique))
        assert sub.semicomplete_violation() is None
        assert all(row.bit_count() == n for row in sub.out_masks)


def test_dn_rejects_zero():
    with pytest.raises(ValueError):
        gen_dn(0)
    with pytest.raises(ValueError):
        gen_dpn(0)


def test_dn_minimum_sizes():
    assert min_quasi_kernel(gen_dn(1)).certificate.size == 2
    assert min_quasi_kernel(gen_dn(2)).certificate.size == 5


def test_dpn1_adds_two_arcs():
    base, strong = gen_dn(1), gen_dpn(1)
    assert strong.graph.arcs - base.graph.arcs == {(0, 4), (0, 5)}


def test_dpn_connectivity_structure():
    # The displayed arc set leaves s_0j without in-arcs, so the digraph is
    # not strongly connected as a whole; it is strongly connected once those
    # n source vertices are removed (see the decisions ledger).
    for n in range(1, 4):
        sd = gen_dpn(n)
        g = sd.graph
        kc = 2 * n + 1
        sources = {v for v in range(g.n) if not g.in_masks[v]}
        assert sources == {kc + 0 * n + (j - 1) for j in range(1, n + 1)}
        assert not strongly_connected(g)
        core, _, _ = g.induced(set(range(g.n)) - sources)
        assert strongly_connected(core)
    assert not strongly_connected(gen_dn(1).graph)


def test_dpn_minimums():
    assert min_quasi_kernel(gen_dpn(1)).certificate.size == 2
    n = 2
    size = min_quasi_kernel(gen_dpn(n)).certificate.size
    assert n * (n - 1) + 1 <= size <= n * n + 1
    assert size == 3


def test_family_labels():
    labels = family_labels(1)
    assert labels[:3] == ("k0", "k1", "k2")
    assert labels[4] == "s1_1"
    assert len(labels) == 6


def test_random_split_deterministic():
    a = gen_random_split(7, 4, 9, sink_free=True)
    b = gen_random_split(7, 4, 9, sink_free=True)
    assert a == b
    c = gen_random_split(8, 4, 9, sink_free=True)
    assert a != c


def test_random_split_requested_flags():
    for seed in range(40):
        sd = gen_random_split(seed, 2 + seed % 6, 1 + seed % 9, one_way=True, sink_free=True)
        flags = sd.classify()
        assert flags.one_way and flags.sink_free


def test_random_split_small_clique_sink_free():
    sd1 = gen_random_split(3, 1, 4, sink_free=True)
    assert sd1.classify().sink_free
    sd2 = gen_random_split(3, 2, 4, one_way=True, sink_free=True)
    assert sd2.classify().sink_free and sd2.classify().one_way


def test_random_split_unsatisfiable_options():
    with pytest.raises(GenerationError):
        gen_random_split(1, 0, 1, sink_free=True)
    with pytest.raises(GenerationError):
        gen_random_split(1, 1, 3, one_way=True, sink_free=True)
    with pytest.raises(GenerationError):
        gen_random_split(1, 1, 0, sink_free=True)


def test_random_split_empty_is_fine():
    sd = gen_random_split(1, 0, 0, sink_free=True)
    assert sd.graph.n == 0


def test_random_complete_split_flags():
    for seed in range(30):
        sd = gen_random_complete_split(seed, 2 + seed % 5, 1 + seed % 7, sink_free=True)
        flags = sd.classify()
        assert flags.complete_split and flags.sink_free


def test_random_complete_split_deterministic():
    assert gen_random_complete_split(5, 3, 4) == gen_random_complete_split(5, 3, 4)


def test_random_complete_split_resampling_cap():
    # two clique vertices, no digons possible: one of them is always a sink
    with pytest.raises(GenerationError, match="resampling cap"):
        gen_random_complete_split(0, 2, 0, p_digon=0.0, sink_free=True)


def test_random_generators_reject_negative_sizes():
    with pytest.raises(ValueError):
        gen_random_split(0, -1, 2)
    with pytest.raises(ValueError):
        gen_random_complete_split(0, 2, -1)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda p: gen_random_split(0, 2, 2, p_k_to_i=p), "p_k_to_i"),
        (lambda p: gen_random_split(0, 2, 2, p_i_to_k=p), "p_i_to_k"),
        (lambda p: gen_random_split(0, 2, 2, p_digon_k=p), "p_digon_k"),
        (lambda p: gen_random_complete_split(0, 2, 2, p_digon=p), "p_digon"),
    ],
)
def test_random_generators_reject_non_probabilities(call, name):
    for p in (float("nan"), -0.5, 1.5, 7.0, float("inf")):
        with pytest.raises(ValueError, match=f"{name} must be a probability"):
            call(p)
    for p in (0.0, 1.0):
        call(p)


def never(*args):
    raise AssertionError("the digraph was built")


def test_families_check_the_instance_caps_before_building(monkeypatch):
    # gen_dn(1) has 6 vertices and 6 arcs, gen_dpn(1) 6 vertices and 8 arcs
    monkeypatch.setattr(instances, "Digraph", never)
    monkeypatch.setattr(instances, "MAX_ARCS", 5)
    with pytest.raises(GenerationError, match=r"gen_dn\(1\) needs 6 arcs, over the cap MAX_ARCS=5"):
        gen_dn(1)
    monkeypatch.setattr(instances, "MAX_ARCS", 7)
    with pytest.raises(GenerationError, match=r"gen_dpn\(1\) needs 8 arcs, over the cap MAX_ARCS=7"):
        gen_dpn(1)
    monkeypatch.setattr(instances, "MAX_ARCS", 8)
    monkeypatch.setattr(instances, "MAX_VERTICES", 5)
    for gen in (gen_dn, gen_dpn):
        with pytest.raises(GenerationError, match="6 vertices, over the cap MAX_VERTICES=5"):
            gen(1)
    monkeypatch.setattr(instances, "MAX_VERTICES", 6)
    for gen in (gen_dn, gen_dpn):
        with pytest.raises(AssertionError, match="the digraph was built"):
            gen(1)
    # the formulas hold up to n = 4
    monkeypatch.undo()
    for n in range(1, 5):
        kc = 2 * n + 1
        assert len(gen_dn(n).graph.arcs) == 2 * kc * n
        assert len(gen_dpn(n).graph.arcs) == 2 * kc * n + (kc - 1) * n
        assert gen_dpn(n).graph.n == kc * (n + 1)


def test_random_models_check_the_instance_caps(monkeypatch):
    split = gen_random_split(3, 4, 7, sink_free=True)
    complete = gen_random_complete_split(4, 3, 5, p_digon=0.5)
    m_split, m_complete = len(split.graph.arcs), len(complete.graph.arcs)
    # 3 clique pairs and 15 clique-independent pairs take at least 18 arcs
    assert m_complete > 18
    monkeypatch.setattr(instances, "MAX_ARCS", m_split)
    assert gen_random_split(3, 4, 7, sink_free=True) == split
    monkeypatch.setattr(instances, "MAX_ARCS", m_complete)
    assert gen_random_complete_split(4, 3, 5, p_digon=0.5) == complete

    monkeypatch.setattr(instances, "Digraph", never)
    monkeypatch.setattr(instances, "MAX_ARCS", m_split - 1)
    with pytest.raises(GenerationError, match=f"arc count over the cap MAX_ARCS={m_split - 1}"):
        gen_random_split(3, 4, 7, sink_free=True)
    monkeypatch.setattr(instances, "MAX_ARCS", 17)
    with pytest.raises(GenerationError, match="needs 18 arcs, over the cap MAX_ARCS=17"):
        gen_random_complete_split(4, 3, 5, p_digon=0.5)
    monkeypatch.setattr(instances, "MAX_ARCS", m_complete - 1)
    with pytest.raises(GenerationError, match=f"arc count over the cap MAX_ARCS={m_complete - 1}"):
        gen_random_complete_split(4, 3, 5, p_digon=0.5)
    monkeypatch.setattr(instances, "MAX_ARCS", 100)
    monkeypatch.setattr(instances, "MAX_VERTICES", 10)
    for gen in (gen_random_split, gen_random_complete_split):
        with pytest.raises(GenerationError, match="11 vertices, over the cap MAX_VERTICES=10"):
            gen(0, 4, 7)
