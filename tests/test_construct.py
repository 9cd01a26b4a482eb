import pytest

from conftest import random_digraph, random_semicomplete
from quasikernel import (
    Digraph,
    PreconditionError,
    dominate_two_serf,
    quasi_kernel_cl,
    quasi_kernel_rooted,
)
from quasikernel.construct import _dominate, _max_in_degree, _rank
from quasikernel.digraph import reach_within

THREE_CYCLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])


def test_rooted_single_vertex():
    assert quasi_kernel_rooted(Digraph(1), 0) == {0}


def test_rooted_single_arc():
    assert quasi_kernel_rooted(Digraph(2, [(0, 1)]), 0) == {1}


def test_rooted_three_cycle():
    assert quasi_kernel_rooted(THREE_CYCLE, 0) == {1}


def test_rooted_out_of_range():
    with pytest.raises(ValueError):
        quasi_kernel_rooted(Digraph(2, [(0, 1)]), 2)


def test_rooted_property_campaign():
    for seed in range(300):
        d = random_digraph(seed, max_n=20)
        for r in (0, d.n - 1):
            q = quasi_kernel_rooted(d, r)
            assert d.is_quasi_kernel(q)
            assert r in q or d.out_masks[r] & d.mask_of(q)


def test_cl_empty_and_basic():
    assert quasi_kernel_cl(Digraph(0)) == frozenset()
    assert quasi_kernel_cl(Digraph(2, [(0, 1)])) == {1}


def max_in_degree(t: Digraph) -> int:
    return _max_in_degree(t.in_masks, t.full_mask, _rank(t.in_masks, t.full_mask), 0)


def test_two_serf_transitive_tournament():
    t = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert max_in_degree(t) == 2
    assert t.is_two_serf(2)


def test_two_serf_three_cycle_tie_rule():
    assert max_in_degree(THREE_CYCLE) == 0
    assert THREE_CYCLE.is_two_serf(0)


def test_two_serf_sink_always_wins():
    # sink of a semicomplete digraph has strictly maximal in-degree
    for seed in range(60):
        t = random_semicomplete(seed, max_n=8)
        sinks = t.sinks()
        if sinks:
            assert 1 << max_in_degree(t) == sinks


def test_two_serf_rejects_non_semicomplete():
    with pytest.raises(PreconditionError, match="not semicomplete"):
        dominate_two_serf(Digraph(2), 0)


def test_two_serf_campaign():
    # a maximum in-degree vertex of a semicomplete digraph is a 2-serf
    for seed in range(300):
        t = random_semicomplete(seed, max_n=12)
        assert t.is_two_serf(max_in_degree(t))


def test_dominate_transitive():
    t = Digraph(3, [(0, 1), (1, 2), (0, 2)])
    assert dominate_two_serf(t, 0) == 2


def test_dominate_source_over_transitive_rest():
    # 0 is a source; the rest is transitive with sink 4
    arcs = [(0, v) for v in (1, 2, 3, 4)]
    arcs += [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    t = Digraph(5, arcs)
    assert dominate_two_serf(t, 0) == 4


def test_dominate_rejects_two_serf_input():
    with pytest.raises(PreconditionError, match="already a 2-serf"):
        dominate_two_serf(THREE_CYCLE, 0)


def test_dominate_campaign():
    for seed in range(200):
        t = random_semicomplete(seed, max_n=10)
        for v in range(t.n):
            if t.is_two_serf(v):
                continue
            u = dominate_two_serf(t, v)
            assert t.is_two_serf(u)
            assert not (t.in_masks[v] | 1 << v) & ~t.in_masks[u]


class CountingRows(list):
    """Rows that count how many times one is read by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_dominate_reads_a_few_in_rows_per_vertex_on_a_near_transitive_tournament():
    # the one-way ladder's clique: i -> j for i < j with (k-3, k-1) reversed,
    # so 0..k-4 are not 2-serfs; scanning every vertex of each rest would
    # read about k^2/2 in-rows, the ranked scan a few per vertex
    k = 200
    arcs = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) != (k - 3, k - 1)]
    t = Digraph(k, [*arcs, (k - 1, k - 3)])
    ranking = _rank(t.in_masks, t.full_mask)
    inn = CountingRows(t.in_masks)
    picks = []
    for v in range(k):
        reach_v = reach_within(t.in_masks, v, t.full_mask)
        if reach_v != t.full_mask:
            picks.append(_dominate(inn, t.out_masks, v, t.full_mask, reach_v, ranking))
    assert picks == [k - 3] * (k - 3)
    assert inn.reads < 4 * k


def test_semicomplete_quasi_kernels_are_singletons():
    # any independent set in a semicomplete digraph has size <= 1
    for seed in range(100):
        t = random_semicomplete(seed, max_n=10)
        q = quasi_kernel_cl(t)
        assert len(q) == 1
