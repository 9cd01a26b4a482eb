"""Property tests for the structural invariants."""
import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    arc_lists,
    certificate_check_reference,
    digraphs,
    digraphs_with_subsets,
    dominating_by_scan,
    dominating_two_serf_by_scan,
    first_cover_reference,
    fpt_by_independent_by_bfs,
    gnp,
    induced_by_filter,
    max_in_degree_by_scan,
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
    QkCertificate,
    VerificationError,
    dominate_two_serf,
    fpt_by_independent,
    gen_dn,
    gen_dpn,
    gen_random_split,
    has_qk_of_size_at_most,
    min_dominating_set,
    min_quasi_kernel,
    quasi_kernel_cl,
    quasi_kernel_rooted,
)
from quasikernel import construct, exact
from quasikernel.construct import _dominate, _max_in_degree, _rank
from quasikernel.digraph import LABELS, members, or_rows, reach_within


@given(digraphs_with_subsets())
def test_quasi_kernel_matches_bfs_oracle(case):
    d, s = case
    assert d.is_quasi_kernel(s) == qk_by_bfs(d, s)


@given(digraphs_with_subsets(), st.data())
def test_quasi_kernel_of_a_region_matches_bfs_on_its_copy(case, data):
    # the mask-level test the split constructions make on a region R: S is
    # a quasi-kernel of D[R], judged on a renumbered copy from the arc list
    d, s = case
    region = data.draw(st.frozensets(st.sampled_from(range(d.n)))) if d.n else frozenset()
    rank = {v: i for i, v in enumerate(sorted(region))}
    copy = Digraph(len(region), induced_by_filter(d.arcs, region))
    expected = s <= region and qk_by_bfs(copy, {rank[v] for v in s})
    assert d._quasi_kernel_mask(d.mask_of(s), d.mask_of(region)) == expected


@given(digraphs_with_subsets())
def test_kernel_implies_quasi_kernel(case):
    d, s = case
    independent = not any(t in s and h in s for t, h in d.arcs)
    if independent and dominating_by_scan(d, s):
        assert d.is_quasi_kernel(s)


@given(digraphs_with_subsets())
def test_second_in_set_disjointness(case):
    d, s = case
    mask = d.mask_of(s)
    first = d.in_set_mask(mask)
    assert first == d.mask_of({t for t, h in d.arcs if h in s} - s)
    assert not first & mask
    assert not d.in_set_mask(first) & first


@given(digraphs_with_subsets())
def test_certify_iff_quasi_kernel(case):
    d, s = case
    if d.is_quasi_kernel(s):
        cert = d.certify(s, "verify")
        cert.check(d)
        assert cert.vertices == frozenset(s)
    else:
        try:
            d.certify(s, "verify")
            raise AssertionError("certify accepted a non-quasi-kernel")
        except NotQuasiKernelError as exc:
            assert 0 <= exc.vertex < d.n


TAMPERS = (
    "delete key", "key -1", "key n", "length 1", "length 4", "last vertex", "middle vertex",
    "middle out of range", "bool entry", "set path", "list path", "extra vertex", "bound", "label",
)


def tamper(cert: QkCertificate, d: Digraph, kind: str, pick: int) -> QkCertificate:
    """cert with one change of the given kind; pick chooses where and what."""
    table, vertices, bound, label = dict(cert.witnesses), cert.vertices, cert.bound, cert.algorithm
    n, q = d.n, min(cert.vertices, default=0)
    v = list(table)[pick % len(table)] if table else n
    path = table.get(v)
    if type(path) not in (tuple, list) or not path:
        path = (v, q)
    if kind == "delete key":
        table.pop(v, None)
    elif kind in ("key -1", "key n"):
        w = -1 if kind == "key -1" else n
        table[w] = (w, q)
    elif kind == "length 1":
        table[v] = (v,)
    elif kind == "length 4":
        table[v] = (*path, *path)[:4]
    elif kind == "last vertex":
        table[v] = (*path[:-1], pick % (n + 2) - 1)
    elif kind == "middle vertex":
        table[v] = (v, pick % max(n, 1), path[-1])
    elif kind == "middle out of range":
        table[v] = (v, (-1, n)[pick % 2], path[-1])
    elif kind == "bool entry":
        table[v] = tuple(bool(u) if i == pick % len(path) else u for i, u in enumerate(path))
    elif kind == "set path":
        table[v] = set(path)
    elif kind == "list path":
        table[v] = list(path)
    elif kind == "extra vertex":
        vertices = vertices | {pick % (n + 2) - 1}
    elif kind == "bound":
        bound = Fraction(len(vertices) - 1)
    else:
        label = (*LABELS, "nonsense")[pick % (len(LABELS) + 1)]
    return QkCertificate(vertices, table, label, bound)


@given(digraphs(max_n=7), st.lists(st.tuples(st.sampled_from(TAMPERS), st.integers(0, 99)), max_size=3))
def test_certificate_check_matches_its_stage_by_stage_reference(d, changes):
    # a certificate of the rooted construction's set, tampered up to three
    # times: check refuses it exactly when the reference does, at the same
    # stage with the same message
    cert = d.certify(quasi_kernel_cl(d), "cl")
    for kind, pick in changes:
        cert = tamper(cert, d, kind, pick)
    expected = certificate_check_reference(cert, d)
    if expected is None:
        cert.check(d)
    else:
        with pytest.raises(VerificationError) as err:
            cert.check(d)
        assert str(err.value) == expected


@given(digraphs(max_n=8), st.randoms(use_true_random=False))
def test_rooted_quasi_kernel_property(d, rnd):
    if d.n == 0:
        assert quasi_kernel_cl(d) == frozenset()
        return
    r = rnd.randrange(d.n)
    q = quasi_kernel_rooted(d, r)
    assert qk_by_bfs(d, q)
    assert r in q or any((r, v) in d.arcs for v in q)


@given(semicomplete(min_n=1, max_n=8))
def test_semicomplete_two_serf(t):
    v = _max_in_degree(t.in_masks, t.full_mask, _rank(t.in_masks, t.full_mask), 0)
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
    ranking = _rank(t.in_masks, mask)
    for v in sorted(within):
        reach_v = t.reach_in_two(v, mask)
        if reach_v == mask:
            with pytest.raises(PreconditionError):
                _dominate(t.in_masks, t.out_masks, v, mask, reach_v, ranking)
            continue
        u = _dominate(t.in_masks, t.out_masks, v, mask, reach_v, ranking)
        assert u == old_of_new[dominate_two_serf(sub, new_of_old[v])]


def full_scan(inn, rest, ranking, floor, _original=_max_in_degree):
    """_max_in_degree with the floor 0, which names the full scan's vertex
    on any digraph: _dominate's floor holds only where within is semicomplete."""
    return _original(inn, rest, ranking, 0)


@given(digraphs_with_subsets(max_n=8))
@settings(max_examples=200)
def test_dominate_refuses_exactly_a_vertex_that_misses_the_rest(case):
    # on any digraph, semicomplete or not, _dominate scanning with the floor
    # 0 refuses its maximum in-degree vertex u as "not a 2-serf of the rest"
    # exactly when the arc scan inside the rest finds a vertex of the rest
    # that does not reach u within two arcs
    d, s = case
    within = d.mask_of(s)
    ranking = _rank(d.in_masks, within)
    arcs = d.arcs
    for v in s:
        reach_v = reach_within(d.in_masks, v, within)
        rest = within & ~reach_v
        if not rest:
            continue
        u = _max_in_degree(d.in_masks, rest, ranking, 0)
        inside = [(t, h) for t, h in arcs if rest >> t & 1 and rest >> h & 1]
        misses = reaching_within_two(inside, u) != set(members(rest))
        try:
            with mock.patch.object(construct, "_max_in_degree", full_scan):
                answer = str(_dominate(d.in_masks, d.out_masks, v, within, reach_v, ranking))
        except VerificationError as exc:
            answer = str(exc)
        assert (answer == f"max in-degree vertex {u} is not a 2-serf of the rest") == misses


def test_dominate_refuses_a_rest_with_no_arcs(monkeypatch):
    # the rest of 0 is {1, 2} with no arc: 1 wins the tie and misses 2
    d = Digraph(3)
    monkeypatch.setattr(construct, "_max_in_degree", full_scan)
    with pytest.raises(VerificationError, match="max in-degree vertex 1 is not a 2-serf of the rest"):
        _dominate(
            d.in_masks,
            d.out_masks,
            0,
            d.full_mask,
            reach_within(d.in_masks, 0, d.full_mask),
            _rank(d.in_masks, d.full_mask),
        )


def assert_ranked_scan_matches_brute_force(d: Digraph, s) -> None:
    # the floor is _dominate's, 1 + d(v), where within is semicomplete, as
    # _dominate's callers prove, and 0 elsewhere; every vertex of the rest
    # has at most its ranked degree minus that floor in-neighbours there,
    # and the scan names the arc scan's maximum in-degree vertex of the rest
    within = d.mask_of(s)
    ranking = _rank(d.in_masks, within)
    semicomplete = d.semicomplete_violation(within) is None
    assert ranking.order == sorted(s, key=lambda w: (-ranking.degree[w], w))
    arcs = d.arcs
    for v in s:
        rest = set(members(within & ~reach_within(d.in_masks, v, within)))
        if not rest:
            continue
        floor = 1 + ranking.degree[v] if semicomplete else 0
        for w in rest:
            assert sum(1 for t, h in arcs if h == w and t in rest) <= ranking.degree[w] - floor
        expected = max_in_degree_by_scan(arcs, rest)
        assert _max_in_degree(d.in_masks, d.mask_of(rest), ranking, floor) == expected
        assert _max_in_degree(d.in_masks, d.mask_of(rest), ranking, 0) == expected


@given(semicomplete(min_n=1, max_n=12), st.data())
@settings(max_examples=200)
def test_ranked_scan_names_the_maximum_in_degree_vertex_of_a_semicomplete_rest(t, data):
    s = data.draw(st.frozensets(st.integers(0, t.n - 1), min_size=1))
    assert_ranked_scan_matches_brute_force(t, s)


@given(digraphs_with_subsets(max_n=10))
@settings(max_examples=200)
def test_ranked_scan_names_the_maximum_in_degree_vertex_of_any_rest(case):
    assert_ranked_scan_matches_brute_force(*case)


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
# the one-way construction's class call: up to 13 class masks, and as few
# selectors as it uses 2-serfs, none at all included
@example(([1 << 3 * j for j in range(13)], []))
@example(([1 << 3 * j for j in range(13)], [1 << 12, 4095, 6]))
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


@given(arc_lists(max_n=12), st.data())
def test_reach_within_matches_an_arc_scan(case, data):
    # in-rows give what reaches v, out-rows what v reaches (the exact
    # search's covers), each within a vertex mask holding v
    n, arcs = case
    d = Digraph(n, arcs)
    tables, _ = exact._qk_tables(d)
    reversed_arcs = [(h, t) for t, h in arcs]
    for v in range(n):
        assert tables.reach[v] == d.mask_of(reaching_within_two(arcs, v))
        assert tables.covers[v] == d.mask_of(reaching_within_two(reversed_arcs, v))
        within = data.draw(st.frozensets(st.integers(0, n - 1))) | {v}
        inside = [(t, h) for t, h in arcs if t in within and h in within]
        mask = d.mask_of(within)
        assert reach_within(d.in_masks, v, mask) == d.mask_of(reaching_within_two(inside, v))
        assert reach_within(d.out_masks, v, mask) == d.mask_of(
            reaching_within_two([(h, t) for t, h in inside], v)
        )


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


def decided_by_prunes(n: int, arcs) -> tuple[frozenset[int], int]:
    """The least minimum quasi-kernel and the number of nodes that the
    exact search's decisions visit on the way to it, by a plain recursion
    over vertex sets read off the arc list.

    A decision for "at most `need` more members from `free`" visits a
    node, a set S of members: it stops with S when S covers every vertex.
    Otherwise, going up the vertices S leaves uncovered, it keeps each one
    whose coverers in `free` avoid the coverers of every vertex kept before
    it, and it stops with nothing at a kept vertex with no coverer or at
    more than `need` kept vertices.  Else u is the first uncovered vertex
    with the fewest coverers in `free`, and the children are S + v for
    each coverer v of u in ascending order, without the conflicts of v and
    without u's earlier coverers.  Sizes are decided from n down, each
    next size one below the last witness found, until a size has none; then
    each position j of the last witness W tries the open vertices v below
    W[j], each with a decision on the vertices above v, and any set found
    becomes W.
    Within one decision no node repeats, and every node is independent.
    """
    reach = [reaching_within_two(arcs, v) for v in range(n)]
    conflict = [{h for t, h in arcs if t == v} | {t for t, h in arcs if h == v} for v in range(n)]
    nodes = 0

    def decide(need, free, covered):
        seen = []

        def visit(members, free, covered, need):
            nonlocal nodes
            nodes += 1
            seen.append(frozenset(members))
            assert not any(conflict[a] & set(members) for a in members)
            missing = [u for u in range(n) if u not in covered]
            if not missing:
                return members
            claimed, kept, fewest = set(), 0, None
            for u in missing:
                coverers = {w for w in free if u in reach[w]}
                if not coverers & claimed:
                    if not coverers or kept == need:
                        return None
                    claimed |= coverers
                    kept += 1
                if fewest is None or len(coverers) < len(fewest):
                    fewest = coverers
            for v in sorted(fewest):
                free = free - {v}
                found = visit(members + (v,), free - conflict[v], covered | reach[v], need - 1)
                if found is not None:
                    return found
            return None

        found = visit((), free, covered, need)
        assert len(set(seen)) == len(seen)
        return found

    everything = set(range(n))
    witness, below = None, n
    while below >= 0:
        found = decide(below, everything, set())
        if found is None:
            break
        witness, below = sorted(found), len(found) - 1
    k = len(witness)
    free, covered = everything, set()
    for j in range(k):
        for v in sorted(w for w in free if w < witness[j]):
            above = {w for w in free - conflict[v] if w > v}
            found = decide(k - j - 1, above, covered | reach[v])
            if found is not None:
                witness[j:] = sorted((v, *found))
                break
        v = witness[j]
        free = {w for w in free - conflict[v] if w > v}
        covered |= reach[v]
    return frozenset(witness), nodes


def check_min_qk_by_brute_force(inst) -> None:
    """Both search modes return the least minimum quasi-kernel, and their
    explored count is the number of nodes that the search's decisions
    visit."""
    d = getattr(inst, "graph", inst)
    n = d.n
    arcs = set(d.arcs)
    least_qk = first_by_size(n, lambda cand: qk_by_bfs(d, cand))
    least, nodes = decided_by_prunes(n, arcs)
    assert least == least_qk
    for report in (min_quasi_kernel(inst), min_quasi_kernel(d)):
        assert report.certificate.vertices == least_qk
        assert report.explored == nodes


@pytest.mark.parametrize("family, n", [(gen_dn, 1), (gen_dn, 2), (gen_dpn, 1), (gen_dpn, 2)])
def test_family_searches_match_brute_force(family, n):
    # each row of the families' independent part is a class of n twins,
    # which the search does not tell apart
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


@pytest.mark.parametrize("seed", range(40))
def test_searches_from_the_budget_down_match_the_size_by_size_reference(seed):
    # the exact searches decide sizes from the budget down; the references
    # scan sizes from 0 up with the arc-list checks of conftest, and share
    # no code with them
    rng = random.Random(seed)
    d = gnp(rng.randint(6, 12), rng.uniform(0.05, 0.25), seed)
    sd = gen_random_split(
        seed, rng.randint(1, 4), rng.randint(2, 8), p_k_to_i=rng.uniform(0, 0.3), p_i_to_k=rng.uniform(0, 0.3)
    )
    perm = list(range(sd.graph.n))
    rng.shuffle(perm)
    sd = relabel_split(sd, perm)
    least_qk = first_by_size(d.n, lambda cand: qk_by_bfs(d, cand))
    least_split_qk = first_by_size(sd.graph.n, lambda cand: qk_by_bfs(sd.graph, cand))
    least_dominating = first_by_size(d.n, lambda cand: dominating_by_scan(d, cand))

    def within(least, budget):
        return least if budget is None or len(least) <= budget else None

    for inst, least in ((d, least_qk), (sd, least_split_qk)):
        for budget in (None, 0, len(least) - 1, len(least)):
            report = min_quasi_kernel(inst, budget)
            expected = within(least, budget)
            assert (report.certificate and report.certificate.vertices) == expected
            assert (report.certificate is not None) == (expected is not None)
    for budget in (None, 0, len(least_dominating) - 1, len(least_dominating)):
        assert min_dominating_set(d, budget) == within(least_dominating, budget)
    m = len(fpt_by_independent_by_bfs(sd, sd.graph.n))
    for k in (sd.graph.n, 0, m - 1, m):
        cert = fpt_by_independent(sd, k)
        assert (cert and cert.vertices) == fpt_by_independent_by_bfs(sd, k)


def exact_answers(d, sd, k):
    """The exact solvers' answers: minimum sets, optimality, budgets one
    below and at the minimum, the decision there, the dominating set and
    fpt_by_independent at k."""
    report = min_quasi_kernel(d)
    m = report.certificate.size
    below, at = min_quasi_kernel(d, budget=m - 1), min_quasi_kernel(d, budget=m)
    dominating = min_dominating_set(d)
    fpt = fpt_by_independent(sd, k)
    return (
        (report.certificate.sorted_vertices(), report.certificate is not None),
        (below.certificate, below.certificate is not None, at.certificate.sorted_vertices()),
        (has_qk_of_size_at_most(d, m - 1), has_qk_of_size_at_most(d, m)),
        (dominating, min_dominating_set(d, budget=len(dominating) - 1)),
        min_quasi_kernel(sd).certificate.sorted_vertices(),
        fpt and fpt.sorted_vertices(),
    )


def first_by_reference(tables, sizes, banned=0, cover=0):
    """The first hit of first_cover_reference over the given sizes."""
    full = (1 << len(tables.reach)) - 1
    for size in sizes:
        hit, _ = first_cover_reference(
            size, tables.conflict, tables.reach, tables.covers, banned, cover, full
        )
        if hit is not None:
            return tuple(sorted(hit))
    return None


def reference_answers(d, sd, k):
    """exact_answers by the lexicographic reference core, run size by size
    and, for fpt_by_independent, group by group."""
    tables, _ = exact._qk_tables(d)
    least = first_by_reference(tables, range(d.n + 1))
    m = len(least)
    closed = exact._Tables(
        [0] * d.n,
        [row | 1 << v for v, row in enumerate(d.in_masks)],
        [row | 1 << v for v, row in enumerate(d.out_masks)],
    )
    dominating = frozenset(first_by_reference(closed, range(d.n + 1)))
    split_tables, _ = exact._qk_tables(sd.graph)
    k_mask = sd.clique
    fpt = None
    for size in range(min(k, sd.graph.n) + 1):
        fpt = first_by_reference(split_tables, [size], k_mask)
        for c in members(k_mask) if fpt is None and size else ():
            banned = k_mask | split_tables.conflict[c]
            fpt = first_by_reference(split_tables, [size - 1], banned, split_tables.reach[c])
            if fpt is not None:
                fpt = tuple(sorted((*fpt, c)))
                break
        if fpt is not None:
            break
    return (
        (least, True),
        (None, False, least),
        (False, True),
        (dominating, None),
        first_by_reference(split_tables, range(sd.graph.n + 1)),
        fpt,
    )


@given(twinned_digraphs(), twinned_split_digraphs(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_search_core_matches_reference_on_twins(d, sd, k):
    # cover branching, the packing bound and prefix fixing change how many
    # sets the search visits, never which set it returns
    assert exact_answers(d, sd, k) == reference_answers(d, sd, k)
