"""Exact solvers: minimum quasi-kernel, minimum dominating set, and the
two fixed-parameter algorithms for split digraphs.

The minimum quasi-kernel, the minimum dominating set and fpt_by_independent
share one search, ``_decide``: is there a set of at most ``need`` vertices,
pairwise outside each other's conflict masks, whose reach masks cover every
vertex?  It branches on the uncovered vertex with the fewest free coverers,
one branch per coverer with the earlier ones excluded, and cuts a node on a
greedy packing bound.  One driver, ``_least_cover``, decides sizes from
the budget down for all three, each size over its caller's starts in order
(the groups of fpt_by_independent) from the last witness's on: each witness
sets the next size to one below its own, so the size below the minimum is
the only one where every start answers "no", and the last witness is a
minimum.  It then fixes the members one position at a time, lowest vertex
first, to return the lexicographically least minimum set, which is the
answer of an unpruned scan by (size, lexicographic) order.
fpt_by_clique scans the states of the independent classes depth first and
cuts every subtree whose classes left open can no longer cover every
vertex, so it returns the first answer of the uncut scan.
Bitmask arithmetic keeps a node's cost at a few integer operations per
uncovered vertex; a call refuses on the work it does past
MAX_SEARCH_STEPS, never on the input's size.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .digraph import Digraph, QkCertificate, SplitDigraph, lowest, members, reach_within

# The steps one exact search may take: nodes of _decide, bits their scans
# take off the uncovered mask, stack pops of fpt_by_clique and one per
# class each of its clique choices leaves open, and two per arc for the
# tables of min_quasi_kernel and fpt_by_independent, each a bounded number
# of mask operations at any n.  On a 2-vCPU VM, gen_dpn(10) (231 vertices)
# takes about 39k steps (0.02 s), gen_dpn(20) (861 vertices) about 0.59M
# (0.2-0.4 s) and G(120, 0.03) about 0.11M (0.04 s).
# The limit stops min_quasi_kernel on G(200, 0.02) after about 4.5 s and on
# G(2000, 0.002) after about 8 s, and fpt_by_clique on gen_dn(12) (325
# vertices) at k = 144 after about 9 s.
MAX_SEARCH_STEPS = 10_000_000


class CapExceededError(ValueError):
    """An exact search ran past MAX_SEARCH_STEPS steps."""


def _over_limit() -> CapExceededError:
    return CapExceededError(f"exact search over the step limit MAX_SEARCH_STEPS={MAX_SEARCH_STEPS}")


class SolveReport(NamedTuple):
    """Outcome of an exact search.

    ``certificate`` is a quasi-kernel the search proves minimum, or None
    when none fits the budget.  ``explored`` counts the nodes of every
    decision search of the call, the ones that descend from the budget to
    one below the minimum and the prefix-fixing ones: each node is one
    candidate set whose cover the search decided or branched on.
    """

    certificate: QkCertificate | None
    explored: int


class _Tables(NamedTuple):
    """The per-vertex masks of one exhaustive search.

    ``conflict[u]``: the vertices that may not join a set holding u.
    ``reach[v]``: the vertices that v covers.  ``covers[u]``: the mirror,
    the vertices v with u in ``reach[v]``.
    """

    conflict: list[int]
    reach: list[int]
    covers: list[int]


def _scan(covers: list[int], free: int, missing: int, need: int) -> tuple[int, int]:
    """One node's ascending scan of its uncovered vertices ``missing``: the
    free coverers of the vertex with the fewest of them (the lowest such
    vertex on ties), or 0 when the node is cut or nothing is uncovered; and
    the bits scanned.

    The scan keeps each vertex whose free coverers are disjoint from those
    of the vertices already kept.  Each kept vertex needs a member of its
    own, so the node is cut when more than ``need`` are kept, or at a
    vertex with no free coverer.
    """
    claimed = kept = best = 0
    fewest = free.bit_count() + 1
    rest = missing
    while rest:
        low = rest & -rest
        rest ^= low
        coverers = covers[low.bit_length() - 1] & free
        if not coverers & claimed:
            if not coverers or kept == need:
                return 0, (missing ^ rest).bit_count()
            claimed |= coverers
            kept += 1
        count = coverers.bit_count()
        if count < fewest:
            fewest, best = count, coverers
    return best, missing.bit_count()


def _decide(
    need: int, tables: _Tables, free: int, cover: int, full: int, steps: int
) -> tuple[tuple[int, ...] | None, int, int]:
    """A set of at most ``need`` vertices from ``free``, no member inside
    ``conflict[u]`` of another member u, such that ``cover`` OR'ed with
    ``reach[v]`` over the set equals ``full``, or None; the number of
    search nodes; and what is left of ``steps``.

    This is the package's one exhaustive search.  At a node, _scan picks
    the uncovered vertex u with the fewest free coverers, or cuts the node
    on its packing bound.  The node branches over u's coverers in ascending
    order; branch i excludes the earlier ones, so no set is reached twice.
    The first set found in that order is returned.  An explicit stack holds
    one frame per depth (the free mask, the cover and u's untried
    coverers), so memory and depth never depend on the number of vertices;
    it starts empty, the root at depth -1.  One block visits every node,
    the root too, and charges it a step plus one per bit its scan takes
    off the uncovered mask; a node that takes ``steps`` below zero raises
    CapExceededError.
    """
    conflict, reach, covers = tables
    nodes = 0
    chosen = [0] * need
    # at each depth: the vertices still free there, the cover of the members
    # above it, and the coverers of its branching vertex not yet tried
    free_at, cov_at, todo_at = [0] * need, [0] * need, [0] * need
    depth = -1
    while True:
        # visit the node that holds chosen[: depth + 1]
        nodes += 1
        missing = full & ~cover
        todo, scanned = _scan(covers, free, missing, need - depth - 1)
        steps -= 1 + scanned
        if steps < 0:
            raise _over_limit()
        if not missing:
            return tuple(chosen[: depth + 1]), nodes, steps
        if todo:
            depth += 1
            free_at[depth] = free
            cov_at[depth] = cover
            todo_at[depth] = todo
        while depth >= 0 and not todo_at[depth]:
            depth -= 1
        if depth < 0:
            return None, nodes, steps
        todo = todo_at[depth]
        low = todo & -todo
        todo_at[depth] = todo ^ low
        free = free_at[depth] = free_at[depth] ^ low
        v = low.bit_length() - 1
        chosen[depth] = v
        cover = cov_at[depth] | reach[v]
        free &= ~conflict[v]


def _least_cover(
    tables: _Tables, starts: list[tuple[int, int, tuple[int, ...]]], budget: int | None, steps: int
) -> tuple[tuple[int, ...] | None, int]:
    """The least set of the least size up to ``budget`` (every size when
    None) that a start completes, or None; and the nodes of all the
    decisions.  This is the one loop over sizes of the exact searches.

    A start ``(free, cover, fixed)`` completes a set of a size s as
    ``fixed`` plus the lexicographically least set of s - len(fixed)
    vertices from ``free`` that _decide accepts with ``cover`` already
    covered; a start with more than s members fixed is skipped.  Sizes
    are decided from the budget down, and the starts of a size in the
    order given: a witness W found at a size sets the next size to |W| - 1,
    and the starts before W's are dropped, since each answered "no" at a
    size at least the next, and a "no" at a size is a "no" at every
    smaller one.  The search stops at the first size where every start
    left answers "no", so the last witness is a minimum, and its start is
    by construction the first with a minimum set.  All the decisions share
    ``steps``.

    Prefix fixing: with W the last set found, position j tries the free
    vertices v above the fixed prefix in ascending order, and asks whether
    a set holds the prefix, v and k - j - 1 vertices above v.  W answers
    "yes" with no search once v is its j-th member; each set a search finds
    becomes W.
    """
    conflict, reach, _ = tables
    n = len(reach)
    full = (1 << n) - 1
    explored = 0
    found = None
    size = n if budget is None else min(budget, n)
    while size >= 0:
        for i, (free, cover, fixed) in enumerate(starts):
            k = size - len(fixed)
            if k < 0:
                continue
            hit, nodes, steps = _decide(k, tables, free, cover, full, steps)
            explored += nodes
            if hit is not None:
                found = free, cover, fixed, sorted(hit)
                size = len(fixed) + len(hit) - 1
                starts = starts[i:]
                break
        else:
            break
    if found is None:
        return None, explored
    free, cover, fixed, witness = found
    k = len(witness)
    for j in range(k):
        cand = free & (1 << witness[j]) - 1
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            above = free & ~conflict[v] & -(low << 1)
            hit, nodes, steps = _decide(k - j - 1, tables, above, cover | reach[v], full, steps)
            explored += nodes
            if hit is not None:
                witness[j:] = sorted((v, *hit))
                break
        v = witness[j]
        free &= ~conflict[v] & -(2 << v)
        cover |= reach[v]
    return (*fixed, *witness), explored


def _qk_tables(d: Digraph) -> tuple[_Tables, int]:
    """Per-vertex conflict masks (out | in), reach-in-two masks and their
    mirror (the vertices each vertex reaches in at most two arcs): an
    independent set is a quasi-kernel iff its reach masks OR to full_mask;
    and the steps MAX_SEARCH_STEPS leaves.  The reach masks and their
    mirror are two arc scans, charged a step per arc each before anything
    is built, so a digraph too large for the limit is refused first."""
    out, inn = d.out_masks, d.in_masks
    steps = MAX_SEARCH_STEPS - 2 * sum(row.bit_count() for row in out)
    if steps < 0:
        raise _over_limit()
    full = d.full_mask
    return _Tables(
        [o | i for o, i in zip(out, inn)],
        [reach_within(inn, v, full) for v in range(d.n)],
        [reach_within(out, u, full) for u in range(d.n)],
    ), steps


def min_quasi_kernel(d: Digraph | SplitDigraph, budget: int | None = None) -> SolveReport:
    """Minimum-cardinality quasi-kernel (ties broken to the lexicographically
    least vertex set), or a none-within-budget report.

    One start, every vertex free, goes to _least_cover; all its searches
    share MAX_SEARCH_STEPS with the building of their tables.  A
    SplitDigraph is searched as its plain graph.
    """
    d = d.graph if isinstance(d, SplitDigraph) else d
    tables, steps = _qk_tables(d)
    hit, explored = _least_cover(tables, [(d.full_mask, 0, ())], budget, steps)
    return SolveReport(None if hit is None else d.certify(hit, "exact"), explored)


def has_qk_of_size_at_most(d: Digraph | SplitDigraph, q: int) -> bool:
    """Does a quasi-kernel of size <= q exist?  One decision search, whose
    witness is certified."""
    d = d.graph if isinstance(d, SplitDigraph) else d
    if q < 0:
        return False
    tables, steps = _qk_tables(d)
    hit, _, _ = _decide(min(q, d.n), tables, d.full_mask, 0, d.full_mask, steps)
    if hit is None:
        return False
    d.certify(hit, "exact")
    return True


def is_dominating(d: Digraph, s: Iterable[int]) -> bool:
    """True iff every vertex is in s or has an out-neighbor in s."""
    mask = d.mask_of(s)
    return mask | d.in_set_mask(mask) == d.full_mask


def min_dominating_set(d: Digraph, budget: int | None = None) -> frozenset[int] | None:
    """Minimum dominating set by exhaustive search, sizes descending from
    the budget (ties broken to the lexicographically least vertex set).

    It runs the quasi-kernel search core with no adjacency conflicts, the
    closed in-neighbourhoods as reach masks and the closed
    out-neighbourhoods as their mirror, and MAX_SEARCH_STEPS applies as it
    does there.
    """
    closed_in = [row | 1 << v for v, row in enumerate(d.in_masks)]
    closed_out = [row | 1 << v for v, row in enumerate(d.out_masks)]
    tables = _Tables([0] * d.n, closed_in, closed_out)
    hit, _ = _least_cover(tables, [(d.full_mask, 0, ())], budget, MAX_SEARCH_STEPS)
    return None if hit is None else frozenset(hit)


def _independent_classes(sd: SplitDigraph) -> list[tuple[int, int]]:
    """Equivalence classes of the independent part under equal (N-, N+),
    as (representative, class mask) pairs ordered by representative, the
    least member."""
    d = sd.graph
    groups: dict[tuple[int, int], int] = {}
    # in ascending order, so the classes enter in the order of their least members
    for s in members(sd.independent):
        key = (d.in_masks[s], d.out_masks[s])
        groups[key] = groups.get(key, 0) | 1 << s
    return [(lowest(cls), cls) for cls in groups.values()]


def fpt_by_clique(sd: SplitDigraph, k: int) -> QkCertificate | None:
    """Quasi-kernel of size <= k, or None, via independent-part equivalence classes.

    Each class contributes one of three states (excluded, whole class,
    representative only), combined with at most one clique vertex c; a
    depth-first scan with a size budget and an explicit stack tests the
    combinations, c in the order None, then the clique ascending, the
    classes by representative and the states in the order above.  A state
    is a member mask with the OR of its members' reach-in-two masks, so a
    combination is a quasi-kernel iff its masks OR to full_mask: it is
    independent by construction, because only the classes c leaves open,
    those not adjacent to it, are scanned.

    A reachability cut drops only subtrees that cannot cover every vertex,
    so the answer is the uncut scan's.  Per c, ``rest[p]`` is the OR of the
    whole-class masks of the open classes from position p on.  A c whose
    reach with ``rest[0]`` falls short of full_mask is skipped, a child is
    pushed only if it and ``rest`` of the next position can still cover
    every vertex, and the first node that covers every vertex is returned:
    the uncut scan reaches its all-excluded completion next.  Each stack
    pop is a step, and so is each class a clique choice leaves open,
    charged before its ``rest`` is built; all clique choices share
    MAX_SEARCH_STEPS.
    """
    d = sd.graph
    full = d.full_mask
    classes = _independent_classes(sd)
    # each class's states by representative, in scan order: excluded, whole
    # class, representative only, as (member mask, OR of the members'
    # reach-in-two, size); members share their in-neighbours, so the class's
    # OR is its mask | rep's reach
    states = {}
    for rep, cls in classes:
        reach = d.reach_in_two(rep)
        size = cls.bit_count()
        whole = (cls, cls | reach, size)
        rep_only = (1 << rep, reach, 1)
        states[rep] = ((0, 0, 0), whole, rep_only) if size > 1 else ((0, 0, 0), whole)
    reps = d.mask_of(states)

    steps = MAX_SEARCH_STEPS
    for c in [None, *members(sd.clique)]:
        room = k - (0 if c is None else 1)
        if room < 0:
            continue
        if c is None:
            open_reps, mask, cov = reps, 0, 0
        else:
            open_reps = reps & ~(d.in_masks[c] | d.out_masks[c])
            mask, cov = 1 << c, d.reach_in_two(c)
        steps -= open_reps.bit_count()
        if steps < 0:
            raise _over_limit()
        opened = [states[rep] for rep in members(open_reps)]
        rest = [0] * (len(opened) + 1)
        for p in range(len(opened) - 1, -1, -1):
            rest[p] = rest[p + 1] | opened[p][1][1]
        if cov | rest[0] != full:
            continue
        # every node on the stack can still cover every vertex, so one at the
        # end of the open classes covers them all
        stack = [(0, mask, cov, room)]
        while stack:
            steps -= 1
            if steps < 0:
                raise _over_limit()
            p, mask, cov, left = stack.pop()
            if cov == full:
                return d.certify(members(mask), "fpt-k")
            if left == 0:
                continue
            later = cov | rest[p + 1]
            for opt, opt_cov, size in reversed(opened[p]):
                if size <= left and later | opt_cov == full:
                    stack.append((p + 1, mask | opt, cov | opt_cov, left - size))
    return None


def fpt_by_independent(sd: SplitDigraph, k: int) -> QkCertificate | None:
    """Quasi-kernel of size <= k, or None, by independent-part subset enumeration.

    At most one clique vertex joins a subset of the independent part, so
    the groups are _least_cover's starts: I alone first, then each clique
    vertex c in ascending order, fixed, with the vertices of I outside its
    conflict mask free.  Total sizes are decided from k down, so the last
    hit is a minimum one, and its group, the first with a hit at that
    size, is fixed to its lexicographically least subset.  All the
    searches share MAX_SEARCH_STEPS with the building of their tables.
    """
    d = sd.graph
    tables, steps = _qk_tables(d)
    indep = sd.independent
    starts = [(indep, 0, ())] + [
        (indep & ~tables.conflict[c], tables.reach[c], (c,)) for c in members(sd.clique)
    ]
    hit, _ = _least_cover(tables, starts, k, steps)
    return None if hit is None else d.certify(hit, "fpt-i")
