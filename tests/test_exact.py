import random
from itertools import combinations

import pytest

from conftest import (
    distinct_class_split,
    fpt_by_clique_reference,
    gnp,
    qk_by_bfs,
    random_digraph,
    relabel,
    relabel_split,
)
from quasikernel import exact
from quasikernel import (
    CapExceededError,
    Digraph,
    SplitDigraph,
    fpt_by_clique,
    fpt_by_independent,
    gen_dn,
    gen_dpn,
    gen_random_split,
    has_qk_of_size_at_most,
    min_dominating_set,
    min_quasi_kernel,
)
from quasikernel.digraph import members

THREE_CYCLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])


def test_min_qk_dn1():
    rep = min_quasi_kernel(gen_dn(1))
    assert rep.certificate is not None
    assert rep.certificate.size == 2
    assert rep.certificate.sorted_vertices() == (0, 4)  # lexicographically least


def test_min_qk_dpn1():
    rep = min_quasi_kernel(gen_dpn(1))
    assert rep.certificate.size == 2


def test_min_qk_single_arc():
    rep = min_quasi_kernel(Digraph(2, [(0, 1)]))
    assert rep.certificate.sorted_vertices() == (1,)


def test_min_qk_empty():
    rep = min_quasi_kernel(Digraph(0))
    assert rep.certificate.size == 0


def test_min_qk_budget_refusal_reports_none():
    rep = min_quasi_kernel(gen_dn(1), budget=1)
    assert rep.certificate is None
    assert rep.explored > 0


def _budget_edges(n: int, minimum: int) -> list[int | None]:
    return [-1, 0, minimum - 1, minimum, n + 3, None]


@pytest.mark.parametrize("seed", range(4))
def test_min_qk_and_dominating_set_at_the_budget_edges(seed):
    # below the minimum each search finds none; at or above it, the answer
    # it gives with no budget, explored count included
    d = gnp(10, 0.25, seed)
    unbounded = min_quasi_kernel(d)
    for budget in _budget_edges(d.n, unbounded.certificate.size):
        rep = min_quasi_kernel(d, budget)
        if budget is not None and budget < unbounded.certificate.size:
            assert rep.certificate is None
        else:
            assert rep == unbounded
    dominating = min_dominating_set(d)
    for budget in _budget_edges(d.n, len(dominating)):
        below = budget is not None and budget < len(dominating)
        assert min_dominating_set(d, budget) == (None if below else dominating)


@pytest.mark.parametrize(
    "sd", [gen_dn(2), gen_dpn(1), gen_random_split(5, 4, 6)], ids=["dn2", "dpn1", "split5"]
)
def test_fpt_by_independent_at_the_budget_edges(sd):
    # k takes no None, so k = n stands for no budget: a quasi-kernel of a
    # split digraph has at most one clique vertex and at most n vertices
    n = sd.graph.n
    unbounded = fpt_by_independent(sd, n)
    assert unbounded.size == min_quasi_kernel(sd).certificate.size
    for k in _budget_edges(n, unbounded.size)[:-1]:
        cert = fpt_by_independent(sd, k)
        assert cert is None if k < unbounded.size else cert == unbounded


def test_min_qk_caps(monkeypatch):
    # gen_dpn(6) takes about 5.8k steps, as a Digraph and as a SplitDigraph
    monkeypatch.setattr(exact, "MAX_SEARCH_STEPS", 1_000)
    sd = gen_dpn(6)
    for inst in (sd, sd.graph):
        with pytest.raises(CapExceededError, match="MAX_SEARCH_STEPS=1000"):
            min_quasi_kernel(inst)


def test_min_qk_on_45_vertices():
    # |I| = 36; the search takes about 1k of MAX_SEARCH_STEPS
    for inst in (gen_dn(4), gen_dn(4).graph):
        rep = min_quasi_kernel(inst)
        assert rep.certificate is not None
        assert rep.certificate.size == 17


def test_a_relabelled_union_is_solved_as_its_parts():
    # independence and reach within two arcs both follow arcs, so the least
    # minimum of a disjoint union is the union of its parts' least minima,
    # each part numbered in the order of its labels in the union
    parts = [gnp(40, 0.08, s) for s in range(3)]
    labels = list(range(sum(part.n for part in parts)))
    random.Random(5).shuffle(labels)
    arcs, expected, total = [], set(), 0
    for k, part in enumerate(parts):
        own = labels[40 * k:40 * (k + 1)]
        arcs += [(own[t], own[h]) for t, h in part.arcs]
        ascending = sorted(own)
        least = min_quasi_kernel(relabel(part, [ascending.index(v) for v in own])).certificate
        expected |= {ascending[v] for v in least.vertices}
        total += least.size
    cert = min_quasi_kernel(Digraph(len(labels), arcs)).certificate
    assert cert.size == total == 14
    assert cert.vertices == expected


def test_search_steps_are_shared_by_the_scans_of_one_call(monkeypatch):
    used = []
    core = exact._decide

    def recording(need, tables, free, cover, full, steps):
        hit, nodes, left = core(need, tables, free, cover, full, steps)
        used.append(steps - left)
        return hit, nodes, left

    monkeypatch.setattr(exact, "_decide", recording)
    assert min_quasi_kernel(gen_dpn(3)).certificate.size == 7
    # every scan fits in the limit on its own, and all of them do not
    assert 2 * max(used) < sum(used)
    monkeypatch.setattr(exact, "MAX_SEARCH_STEPS", 2 * max(used))
    with pytest.raises(CapExceededError, match="MAX_SEARCH_STEPS"):
        min_quasi_kernel(gen_dpn(3))


def test_search_steps_are_pinned(monkeypatch):
    # what the first decision is handed, the limit less two steps per arc
    # for the tables (none for the dominating set), and what the whole call
    # takes, tables included
    handed = []
    core = exact._decide

    def recording(need, tables, free, cover, full, steps):
        hit, nodes, left = core(need, tables, free, cover, full, steps)
        handed.append((steps, left))
        return hit, nodes, left

    monkeypatch.setattr(exact, "_decide", recording)
    limit = exact.MAX_SEARCH_STEPS
    for solve, first, total in (
        (lambda: min_quasi_kernel(gen_dpn(3)), 120, 562),
        (lambda: fpt_by_independent(gen_dpn(6), 31), 456, 3069),
        (lambda: min_dominating_set(gen_dpn(2).graph), 0, 148),
    ):
        handed.clear()
        solve()
        assert (limit - handed[0][0], limit - handed[-1][1]) == (first, total)


def test_fpt_and_dominating_set_searches_stop_at_the_step_limit(monkeypatch):
    monkeypatch.setattr(exact, "MAX_SEARCH_STEPS", 1_000)
    message = "MAX_SEARCH_STEPS=1000"
    # gen_dn(5) has no quasi-kernel of 25 vertices; the cut scan takes about
    # 3k steps to prove it.  fpt_by_independent takes about 3.3k steps to
    # find gen_dpn(6)'s 31, and min_dominating_set about 2.3k
    with pytest.raises(CapExceededError, match=message):
        fpt_by_clique(gen_dn(5), 25)
    with pytest.raises(CapExceededError, match=message):
        fpt_by_independent(gen_dpn(6), 31)
    with pytest.raises(CapExceededError, match=message):
        min_dominating_set(gen_dpn(6).graph)
    # the same searches within the limit
    assert fpt_by_clique(gen_dn(1), 2).size == 2
    assert fpt_by_independent(gen_dn(1), 2).size == 2
    assert min_dominating_set(gen_dn(1).graph) == {0, 1, 2}


def test_min_qk_decides_sizes_from_the_budget_down(monkeypatch):
    # gen_dpn(10), 231 vertices: each witness sets the next size, so the one
    # failed decision is at 90 and the search takes about 39k steps; deciding
    # each size from 0 up, 90 of them failed, would take about 0.76M
    monkeypatch.setattr(exact, "MAX_SEARCH_STEPS", 100_000)
    rep = min_quasi_kernel(gen_dpn(10))
    assert rep.certificate.size == 91


def test_fpt_by_independent_decides_no_refused_group_again(monkeypatch):
    # a "no" at a size is a "no" at every smaller one, so once a group hits,
    # the groups before it are not decided at the smaller sizes: gen_dpn(6)
    # at k = 31 takes 57 decisions, and deciding every group again took 65
    decisions = []
    core = exact._decide

    def recording(*args):
        decisions.append(args[0])
        return core(*args)

    monkeypatch.setattr(exact, "_decide", recording)
    assert fpt_by_independent(gen_dpn(6), 31).size == 31
    assert len(decisions) <= 57


def test_tables_are_charged_to_the_step_limit_before_they_are_built(monkeypatch):
    # two steps per arc: 80k for the digraph and about 20k for the split one
    rng = random.Random(7)
    arcs = set()
    while len(arcs) < 40_000:
        t, h = rng.randrange(2_000), rng.randrange(2_000)
        if t != h:
            arcs.add((t, h))
    big = Digraph(2_000, arcs)
    built = []
    monkeypatch.setattr(exact, "reach_within", lambda *args: built.append(args))
    monkeypatch.setattr(exact, "MAX_SEARCH_STEPS", 1_000)
    with pytest.raises(CapExceededError, match="MAX_SEARCH_STEPS=1000"):
        min_quasi_kernel(big)
    with pytest.raises(CapExceededError, match="MAX_SEARCH_STEPS=1000"):
        fpt_by_independent(gen_random_split(1, 100, 100), 1)
    assert built == []


def test_split_and_general_modes_agree():
    for seed in range(50):
        rng = random.Random(seed * 31 + 2)
        sd = gen_random_split(
            seed,
            rng.randint(1, 5),
            rng.randint(0, 10),
            p_k_to_i=rng.uniform(0, 0.5),
            p_i_to_k=rng.uniform(0, 0.6),
            p_digon_k=rng.uniform(0, 0.5),
        )
        if sd.graph.n == 0:
            continue
        r_split = min_quasi_kernel(sd)
        r_general = min_quasi_kernel(sd.graph)
        assert r_split.certificate.size == r_general.certificate.size


def test_first_hit_is_optimal_descending_confirmation():
    # secondary check: enumerate size-(m-1) subsets in descending order
    for seed in range(40):
        d = random_digraph(seed, max_n=9)
        rep = min_quasi_kernel(d)
        m = rep.certificate.size
        if m == 0:
            continue
        for cand in sorted(combinations(range(d.n), m - 1), reverse=True):
            assert not qk_by_bfs(d, cand)


def test_has_qk_of_size_at_most():
    assert not has_qk_of_size_at_most(gen_dn(1), 1)
    assert has_qk_of_size_at_most(gen_dn(1), 2)
    assert has_qk_of_size_at_most(Digraph(2, [(0, 1)]), 1)
    assert has_qk_of_size_at_most(Digraph(0), 0)


def test_min_dominating_set_examples():
    assert min_dominating_set(THREE_CYCLE) == {0, 1}
    assert min_dominating_set(Digraph(2, [(0, 1)])) == {1}
    assert min_dominating_set(Digraph(3, [(0, 1), (0, 2), (1, 2)])) == {2}
    assert min_dominating_set(THREE_CYCLE, budget=1) is None


def test_fpt_by_clique_examples():
    assert fpt_by_clique(gen_dn(1), 2).size == 2
    assert fpt_by_clique(gen_dn(1), 1) is None
    fpt_by_clique(gen_dn(1), 2).check(gen_dn(1).graph)


def test_fpt_by_independent_examples():
    assert fpt_by_independent(gen_dn(1), 2).size == 2
    assert fpt_by_independent(gen_dn(1), 1) is None
    single = SplitDigraph(Digraph(2, [(0, 1)]), [1], [0])
    assert fpt_by_independent(single, 1).sorted_vertices() == (1,)


def test_fpt_whole_class_state():
    # all independent vertices equivalent; I itself is a quasi-kernel and
    # the whole-class state is tested before any representative or clique choice
    arcs = [(0, 1), (1, 0), (0, 2), (0, 3), (1, 2), (1, 3)]
    sd = SplitDigraph(Digraph(4, arcs), [0, 1], [2, 3])
    cert = fpt_by_clique(sd, 2)
    assert cert is not None and cert.sorted_vertices() == (2, 3)


def test_fpt_class_count_bound():
    for seed in range(60):
        rng = random.Random(seed * 37 + 4)
        sd = gen_random_split(
            seed,
            rng.randint(1, 4),
            rng.randint(1, 10),
            p_k_to_i=rng.uniform(0, 0.6),
            p_i_to_k=rng.uniform(0, 0.6),
        )
        d = sd.graph
        sigs = {(d.in_masks[s], d.out_masks[s]) for s in members(sd.independent)}
        assert len(sigs) <= 4 ** sd.clique.bit_count()


def test_fpt_agreement_campaign():
    for seed in range(60):
        rng = random.Random(seed * 41 + 6)
        nk = rng.randint(1, 5)
        sd = gen_random_split(
            seed,
            nk,
            rng.randint(1, 10),
            p_k_to_i=rng.uniform(0, 0.5),
            p_i_to_k=rng.uniform(0, 0.6),
            p_digon_k=rng.uniform(0, 0.4),
            sink_free=seed % 2 == 0 and nk >= 2,
        )
        for k in range(7):
            a = fpt_by_clique(sd, k)
            b = fpt_by_independent(sd, k)
            c = has_qk_of_size_at_most(sd, k)
            assert (a is not None) == (b is not None) == c
            for cert in (a, b):
                if cert is not None:
                    assert cert.size <= k
                    cert.check(sd.graph)


def test_fpt_by_clique_matches_its_uncut_reference():
    cases = [gen(n) for gen in (gen_dn, gen_dpn) for n in (1, 2, 3)]
    for seed in range(300):
        rng = random.Random(seed * 43 + 8)
        nk = rng.randint(0, 6)
        sd = gen_random_split(
            seed,
            nk,
            rng.randint(0, 10),
            p_k_to_i=rng.uniform(0, 0.6),
            p_i_to_k=rng.uniform(0, 0.6),
            p_digon_k=rng.uniform(0, 0.5),
            sink_free=seed % 3 == 0 and nk >= 2,
        )
        if seed % 2:
            # the clique is no longer a vertex prefix
            perm = list(range(sd.graph.n))
            rng.shuffle(perm)
            sd = relabel_split(sd, perm)
        cases.append(sd)
    for sd in cases:
        for k in range(8):
            cert = fpt_by_clique(sd, k)
            assert (cert and cert.vertices) == fpt_by_clique_reference(sd, k)


def test_fpt_by_clique_cuts_subtrees_that_cannot_cover_every_vertex(monkeypatch):
    # the uncut scan pops 90,577 nodes to refuse k = 16; the cut one takes
    # under 800 steps
    monkeypatch.setattr(exact, "MAX_SEARCH_STEPS", 2_000)
    dn4 = gen_dn(4)
    assert fpt_by_clique(dn4, 16) is None
    assert fpt_by_clique(dn4, 17).size == 17


def test_fpt_by_clique_depth_does_not_grow_with_classes():
    # 1500 singleton classes: a recursion per class would overflow the stack
    sd = distinct_class_split()
    assert fpt_by_clique(sd, 0) is None
    assert fpt_by_independent(sd, 0) is None
    cert = fpt_by_clique(sd, 1)
    assert cert.sorted_vertices() == fpt_by_independent(sd, 1).sorted_vertices() == (11,)


def test_cover_prune_bounds_the_exact_search():
    # a lexicographic scan without the cover prune tests 1,443,195
    # independent sets; the search visits 25 nodes
    rep = min_quasi_kernel(gen_dn(3))
    assert rep.certificate.size == 10
    assert rep.explored <= 30_000


def test_packing_bound_and_twins_bound_the_exact_search():
    # a lexicographic scan with the cover prune alone decides 30,813 sets;
    # the search, with no twin rule, visits 52 nodes
    rep = min_quasi_kernel(gen_dpn(3))
    assert rep.certificate.size == 7
    assert rep.explored <= 2_000


def test_fpt_by_independent_past_the_exact_caps():
    # |I| = 36; each search takes under 10^3 of MAX_SEARCH_STEPS
    dn4, dpn4 = gen_dn(4), gen_dpn(4)
    assert fpt_by_independent(dn4, 16) is None
    assert fpt_by_independent(dn4, 17).size == 17
    assert fpt_by_independent(dpn4, 12) is None
    assert fpt_by_independent(dpn4, 13).size == 13


def test_fpt_by_independent_clique_vertex_twin():
    # the clique vertex 0 and both independent vertices are isolated twins;
    # leaving the banned clique vertex out must not block them
    sd = SplitDigraph(Digraph(3), [0], [1, 2])
    assert fpt_by_independent(sd, 2) is None
    assert fpt_by_independent(sd, 3).sorted_vertices() == (0, 1, 2)


def test_fpt_by_clique_tests_combinations_on_masks(monkeypatch):
    calls = 0
    original = Digraph.is_quasi_kernel

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(Digraph, "is_quasi_kernel", counted)
    assert fpt_by_clique(gen_dn(3), 9) is None
    assert fpt_by_clique(gen_dn(3), 10).size == 10
    assert calls == 0


@pytest.mark.parametrize("n, p, seed, size", [(80, 0.04, 0, 8), (80, 0.04, 1, 9), (120, 0.03, 0, 11)])
def test_min_qk_size_matches_an_integer_program(n, p, seed, size):
    # an independent method: HiGHS minimises the sum of x subject to
    # x_u + x_v <= 1 per arc and, per vertex v, x_u >= 1 summed over the
    # vertices u that v reaches within two arcs, itself included
    scipy_optimize = pytest.importorskip("scipy.optimize")
    import numpy as np

    d = gnp(n, p, seed)
    arcs = d.arcs
    rows = []
    for t, h in arcs:
        row = np.zeros(n)
        row[[t, h]] = 1
        rows.append(row)
    heads = [{h for t, h in arcs if t == v} for v in range(n)]
    for v in range(n):
        row = np.zeros(n)
        row[list({v} | heads[v] | {w for u in heads[v] for w in heads[u]})] = 1
        rows.append(row)
    upper = [1] * len(arcs) + [np.inf] * n
    lower = [-np.inf] * len(arcs) + [1] * n
    result = scipy_optimize.milp(
        np.ones(n),
        constraints=scipy_optimize.LinearConstraint(np.array(rows), lower, upper),
        integrality=np.ones(n),
        bounds=scipy_optimize.Bounds(0, 1),
    )
    assert result.success
    report = min_quasi_kernel(d)
    assert report.certificate is not None
    assert round(result.fun) == report.certificate.size == size
