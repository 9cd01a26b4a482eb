"""Property tests for the structural invariants."""
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    arc_lists,
    digraphs,
    digraphs_with_subsets,
    dominating_by_scan,
    dominating_two_serf_by_scan,
    first_cover_reference,
    fpt_by_independent_by_bfs,
    induced_by_filter,
    qk_by_bfs,
    reaching_within_two,
    relabel_split,
    semicomplete,
    semicomplete_arc_lists,
    split_digraphs,
    twinned_digraphs,
    twinned_split_digraphs,
)
from quasikernel import (
    Digraph,
    NotQuasiKernelError,
    PreconditionError,
    dominate_two_serf,
    fpt_by_independent,
    gen_dn,
    gen_dpn,
    min_dominating_set,
    min_quasi_kernel,
    quasi_kernel_cl,
    quasi_kernel_rooted,
    two_serf_semicomplete,
)
from quasikernel import exact
from quasikernel.construct import _dominate
from quasikernel.digraph import members, or_rows


@given(digraphs_with_subsets())
def test_quasi_kernel_matches_bfs_oracle(case):
    d, s = case
    assert d.is_quasi_kernel(s) == qk_by_bfs(d, s)


@given(digraphs_with_subsets())
def test_kernel_implies_quasi_kernel(case):
    d, s = case
    if d.is_kernel(s):
        assert d.is_quasi_kernel(s)


@given(digraphs_with_subsets())
def test_second_in_set_disjointness(case):
    d, s = case
    second = d.second_in_set(s)
    assert not second & (s | d.in_set(s))
    assert not d.in_set(s) & s
    assert not d.out_set(s) & s


@given(digraphs_with_subsets())
def test_certify_iff_quasi_kernel(case):
    d, s = case
    if d.is_quasi_kernel(s):
        cert = d.certify(s, "prop")
        cert.check(d)
        assert cert.vertices == frozenset(s)
    else:
        try:
            d.certify(s, "prop")
            raise AssertionError("certify accepted a non-quasi-kernel")
        except NotQuasiKernelError as exc:
            assert 0 <= exc.vertex < d.n


@given(digraphs(max_n=8), st.randoms(use_true_random=False))
def test_rooted_quasi_kernel_property(d, rnd):
    if d.n == 0:
        assert quasi_kernel_cl(d) == frozenset()
        return
    r = rnd.randrange(d.n)
    q = quasi_kernel_rooted(d, r)
    assert qk_by_bfs(d, q)
    assert r in q or d.out_neighbors(r) & q


@given(semicomplete(min_n=1, max_n=8))
def test_semicomplete_two_serf(t):
    v = two_serf_semicomplete(t)
    assert t.is_two_serf(v)
    # independence forces singleton quasi-kernels in semicomplete digraphs
    assert len(quasi_kernel_cl(t)) == 1


@given(split_digraphs(), st.integers(0, 2**30))
@settings(max_examples=60)
def test_classify_stable_under_relabeling(sd, seed):
    n = sd.graph.n
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    assert relabel_split(sd, perm).classify() == sd.classify()


@given(split_digraphs())
@settings(max_examples=60)
def test_split_minimum_agrees_across_modes(sd):
    from quasikernel import min_quasi_kernel

    r_split = min_quasi_kernel(sd)
    r_general = min_quasi_kernel(sd.graph)
    if r_split.certificate is None:
        assert r_general.certificate is None
    else:
        assert r_split.certificate.size == r_general.certificate.size


@given(semicomplete_arc_lists(min_n=1, max_n=12), st.data())
@settings(max_examples=60)
def test_dominate_two_serf_matches_scan_reference(case, data):
    n, arcs = case
    t = Digraph(n, arcs)
    for v in range(n):
        if len(reaching_within_two(arcs, v)) == n:
            with pytest.raises(PreconditionError):
                dominate_two_serf(t, v)
            continue
        u = dominate_two_serf(t, v)
        assert u == dominating_two_serf_by_scan(n, arcs, v)
        in_u = {a for a, b in arcs if b == u}
        assert {v} | {a for a, b in arcs if b == v} <= in_u
    # inside a vertex subset, _dominate answers as dominate_two_serf does on
    # the induced copy, mapped back
    within = data.draw(st.frozensets(st.integers(0, n - 1), min_size=1))
    sub, old_of_new, new_of_old = t.induced(within)
    mask = t.mask_of(within)
    for v in sorted(within):
        reach_v = t.reach_in_two(v, mask)
        if reach_v == mask:
            with pytest.raises(PreconditionError):
                _dominate(t, v, mask, reach_v)
            continue
        assert _dominate(t, v, mask, reach_v) == old_of_new[dominate_two_serf(sub, new_of_old[v])]


@given(digraphs_with_subsets())
def test_semicomplete_violation_is_the_first_open_pair(case):
    d, s = case
    arcs = set(d.arcs)
    for within, vertices in ((None, range(d.n)), (d.mask_of(s), sorted(s))):
        open_pairs = [
            (u, v) for u, v in combinations(vertices, 2) if (u, v) not in arcs and (v, u) not in arcs
        ]
        assert d.semicomplete_violation(within) == (open_pairs[0] if open_pairs else None)


@given(
    st.lists(st.integers(0, 2**40), max_size=13).flatmap(
        lambda rows: st.tuples(
            st.just(rows), st.lists(st.integers(0, (1 << len(rows)) - 1), max_size=6)
        )
    )
)
@example(([], [0]))
@example(([0, 0, 5, 0, 0], [0, 31, 4]))
@example(([1, 2, 4, 8, 16, 32, 64, 128, 256], [0, 511, 256, 1]))
def test_or_rows_matches_a_member_loop(case):
    rows, selectors = case
    expected = []
    for sel in selectors:
        acc = 0
        for j in members(sel):
            acc |= rows[j]
        expected.append(acc)
    assert or_rows(rows, selectors) == expected
    with pytest.raises(ValueError):
        or_rows(rows, [1 << len(rows)])


@given(arc_lists(max_n=12))
def test_arcs_ascend_without_repeats(case):
    n, arcs = case
    assert list(Digraph(n, arcs).arcs) == sorted(set(arcs))


@given(arc_lists(max_n=12), st.data())
def test_induced_matches_arc_filter(case, data):
    n, arcs = case
    s = data.draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()
    sub, old_of_new, new_of_old = Digraph(n, arcs).induced(s)
    assert old_of_new == tuple(sorted(s))
    assert all(old_of_new[new] == old for old, new in new_of_old.items())
    assert sub.n == len(s)
    assert set(sub.arcs) == induced_by_filter(arcs, s)


def first_by_size(n: int, accept) -> frozenset[int] | None:
    """The lexicographically least of the smallest subsets of range(n) that accept takes."""
    for size in range(n + 1):
        for cand in combinations(range(n), size):
            if accept(cand):
                return frozenset(cand)
    return None


def twins_by_scan(n: int, arcs) -> list[set[int]]:
    """For each vertex, the other vertices with the same out- and
    in-neighbours, read off the arc list."""
    sides = [
        ({h for t, h in arcs if t == v}, {t for t, h in arcs if h == v}) for v in range(n)
    ]
    return [{u for u in range(n) if u != v and sides[u] == sides[v]} for v in range(n)]


def decided_by_prunes(n: int, arcs, cand) -> bool:
    """Whether the pruned lexicographic scan decides the independent
    candidate S = s_0 < ... < s_{k-1}.

    A vertex w is open after a prefix P at a floor f when w >= f, w is not
    adjacent to a member of P, and every twin of w below f is in P (a twin
    passed over takes its higher twins out of the scan).  S is decided iff
    every twin below a member is a member, and for every d <= k - 2:

    - cover: if S[:d] leaves a vertex uncovered, the lowest such vertex
      reaches within two arcs some w open after S[:d] at floor s_d;
    - packing: going up the vertices that S[:d+1] leaves uncovered, keep
      each one whose coverers (open after S[:d+1] at floor s_d + 1, and
      reached from it within two arcs) avoid the coverers of every vertex
      kept before it; no kept vertex lacks coverers, and at most k - d - 1
      are kept.
    """
    twins = twins_by_scan(n, arcs)
    if any(u not in cand for s in cand for u in twins[s] if u < s):
        return False

    def open_after(prefix, floor):
        return [
            w
            for w in range(floor, n)
            if not any((w, s) in arcs or (s, w) in arcs for s in prefix)
            and all(u in prefix for u in twins[w] if u < floor)
        ]

    def uncovered(prefix):
        covered = set().union(*(reaching_within_two(arcs, s) for s in prefix))
        return [u for u in range(n) if u not in covered]

    for d in range(len(cand) - 1):
        left = uncovered(cand[:d])
        if left and not any(
            left[0] in reaching_within_two(arcs, w) for w in open_after(cand[:d], cand[d])
        ):
            return False
        free = open_after(cand[: d + 1], cand[d] + 1)
        kept: list[set[int]] = []
        for u in uncovered(cand[: d + 1]):
            coverers = {w for w in free if u in reaching_within_two(arcs, w)}
            if all(coverers.isdisjoint(other) for other in kept):
                if not coverers:
                    return False
                kept.append(coverers)
        if len(kept) > len(cand) - d - 1:
            return False
    return True


def check_min_qk_by_brute_force(inst) -> None:
    """Both search modes return the least minimum quasi-kernel, and their
    explored count is the number of candidates that the prunes leave."""
    d = getattr(inst, "graph", inst)
    n = d.n
    arcs = set(d.arcs)
    least_qk = first_by_size(n, lambda cand: qk_by_bfs(d, cand))
    # the independent sets up to the hit, in (size, lexicographic) order
    last = tuple(sorted(least_qk))
    independent = [
        cand
        for size in range(len(last) + 1)
        for cand in combinations(range(n), size)
        if (size < len(last) or cand <= last) and not any(t in cand and h in cand for t, h in arcs)
    ]
    decided = sum(1 for cand in independent if decided_by_prunes(n, arcs, cand))
    for report in (min_quasi_kernel(inst), min_quasi_kernel(d)):
        assert report.certificate.vertices == least_qk
        assert report.explored == decided <= len(independent)


@pytest.mark.parametrize("family, n", [(gen_dn, 1), (gen_dn, 2), (gen_dpn, 1), (gen_dpn, 2)])
def test_family_searches_match_brute_force(family, n):
    # each row of the families' independent part is a class of n twins
    check_min_qk_by_brute_force(family(n))


@given(digraphs(max_n=8))
@example(Digraph(4, [(0, 2), (1, 3), (3, 0)]))  # after {0} no free vertex covers 2
@settings(max_examples=80)
def test_general_search_matches_brute_force(d):
    check_min_qk_by_brute_force(d)


@given(split_digraphs(), st.data())
@settings(max_examples=80)
def test_exhaustive_searches_match_brute_force(sd, data):
    sd = relabel_split(sd, data.draw(st.permutations(range(sd.graph.n))))
    check_min_qk_by_brute_force(sd)
    d = sd.graph
    n = d.n
    k = data.draw(st.integers(0, 6))
    cert = fpt_by_independent(sd, k)
    assert (cert and cert.vertices) == fpt_by_independent_by_bfs(sd, k)
    assert min_dominating_set(d) == first_by_size(n, lambda cand: dominating_by_scan(d, cand))


def exact_answers(d, sd, k):
    qk = min_quasi_kernel(d).certificate
    split_qk = min_quasi_kernel(sd).certificate
    fpt = fpt_by_independent(sd, k)
    return (
        qk.sorted_vertices(),
        min_dominating_set(d),
        split_qk.sorted_vertices(),
        fpt and fpt.sorted_vertices(),
    )


@given(twinned_digraphs(), twinned_split_digraphs(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_search_core_matches_reference_on_twins(d, sd, k):
    # the packing bound and the twin rule change how many sets the core
    # decides, never which set it returns
    def reference(k, tables, banned, cover, full, steps):
        conflict, reach, covers = tables.conflict, tables.reach, tables.covers
        return (*first_cover_reference(k, conflict, reach, covers, banned, cover, full), steps)

    with mock.patch.object(exact, "_first_cover", reference):
        expected = exact_answers(d, sd, k)
    assert exact_answers(d, sd, k) == expected
