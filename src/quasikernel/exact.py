"""Exact solvers: minimum quasi-kernel, minimum dominating set, and the
two fixed-parameter algorithms for split digraphs.

The minimum quasi-kernel, the minimum dominating set and fpt_by_independent
share one enumeration, ``_first_cover``: candidate sets by ascending
cardinality and then lexicographically, so the first verified hit is
provably minimum and deterministic.  It prunes on adjacency, on cover
(some member must cover the lowest vertex still uncovered), on a packing
bound (uncovered vertices with disjoint coverers need a member each) and
on twins (vertices with equal in- and out-neighbourhoods are taken lowest
first).  No prune ever skips the first hit, so the answers are those of an
unpruned scan.  Bitmask arithmetic keeps the per-candidate cost at a few
integer operations; a call refuses on the work it does past
MAX_SEARCH_STEPS, never on the input's size.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .digraph import Digraph, QkCertificate, SplitDigraph, members

# The steps one exact search may take: iterations of _first_cover's loop,
# bits its scans take off a mask, stack pops of fpt_by_clique, and two per
# arc for the tables of min_quasi_kernel and fpt_by_independent, each a
# bounded number of mask operations at any n.  gen_dpn(10) takes 1.9M
# (0.8 s).  On a 2-vCPU VM the limit stops min_quasi_kernel on G(2000,
# 0.002) after about 5.5 s, and fpt_by_clique at k = 3 on 12 clique and
# 1,500 distinct independent classes after about 4 s.
MAX_SEARCH_STEPS = 10_000_000


class CapExceededError(ValueError):
    """An exact search ran past MAX_SEARCH_STEPS steps."""


def _over_limit() -> CapExceededError:
    return CapExceededError(f"exact search over the step limit MAX_SEARCH_STEPS={MAX_SEARCH_STEPS}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an exact search.

    ``optimal`` is True only when the enumeration order proves no smaller
    quasi-kernel exists; ``explored`` counts the independent candidate
    sets whose cover was decided: at the last member, each choice the twin
    rule allows up to the first hit.  Subtrees skipped by the cover prune,
    children cut by the packing bound and sets the twin rule excludes add
    nothing.
    """

    certificate: QkCertificate | None
    optimal: bool
    explored: int
    algorithm: str


class _Tables(NamedTuple):
    """The per-vertex masks of one exhaustive search.

    ``conflict[u]``: the vertices that may not join a set holding u.
    ``reach[v]``: the vertices that v covers.  ``covers[u]``: the mirror,
    the vertices v with u in ``reach[v]``.  ``twins[v]``: the other vertices
    with v's in- and out-neighbourhoods; ``paired``: the vertices that have
    one.
    """

    conflict: list[int]
    reach: list[int]
    covers: list[int]
    twins: list[int]
    paired: int


def _tables(d: Digraph, conflict: list[int], reach: list[int], covers: list[int]) -> _Tables:
    """Bundle a search's masks with the twin classes of d."""
    keys = list(zip(d.out_masks, d.in_masks))
    classes: dict[tuple[int, int], int] = {}
    for v, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | 1 << v
    twins = [classes[key] ^ 1 << v for v, key in enumerate(keys)]
    paired = sum(1 << v for v, mask in enumerate(twins) if mask)
    return _Tables(conflict, reach, covers, twins, paired)


def _first_cover(
    k: int, tables: _Tables, banned: int, cover: int, full: int, steps: int
) -> tuple[tuple[int, ...] | None, int, int]:
    """The lexicographically first k-set S of vertices outside ``banned``,
    with no v in S inside ``conflict[u]`` of another member u, such that
    ``cover`` OR'ed with ``reach[v]`` over S equals ``full``; the number
    of k-sets whose cover was decided; and what is left of ``steps``.

    This is the package's one exhaustive enumeration.  It walks the sets in
    lexicographic order without recursion, keeping one entry per chosen
    member, so its memory and depth never depend on the number of vertices.
    Its prunes never skip the first hit, so it is the same as an unpruned
    scan's:

    - a depth backtracks when fewer free vertices are left than still
      needed, or when no free vertex covers u, the lowest vertex its prefix
      leaves uncovered;
    - a child depth is not entered when its packing bound rules it out:
      scanning its uncovered vertices in ascending order, it keeps each one
      whose free coverers (``covers[u]`` within the child's free set) are
      disjoint from those of the vertices already kept.  Each kept vertex
      needs a member of its own among its free coverers, so the child is
      cut when more vertices are kept than members are still to choose, or
      when a kept vertex has no free coverer;
    - two twins outside ``banned`` are swapped by an automorphism of the
      digraph that fixes every caller's ``banned`` and ``cover``, so the
      first hit holds such a twin only with all of its lower ones: once a
      vertex is passed over at a depth, its twins leave that depth's free
      set, and at the last depth only the lowest free vertex of each twin
      class is a choice.

    At the last depth the hits are the choices that cover every uncovered
    vertex, found by AND'ing their ``covers`` masks; each choice there up
    to the first hit counts as one decided k-set.
    Each loop iteration and each bit a scan takes off its mask is a step;
    an iteration that finds ``steps`` spent raises CapExceededError.
    """
    if k == 0:
        return (() if cover == full else None), 1, steps
    conflict, reach, covers, twins, paired = tables
    last = k - 1
    tested = 0
    chosen = [0] * k
    # at each depth: the vertices still free to choose there, and the cover
    # of the vertices chosen above it
    free_at = [0] * k
    cov_at = [0] * k
    free_at[0] = ~banned & (1 << len(reach)) - 1
    cov_at[0] = cover
    depth = 0
    while depth >= 0:
        steps -= 1
        if steps < 0:
            raise _over_limit()
        free = free_at[depth]
        missing = full & ~cov_at[depth]
        if depth == last:
            # the lowest free vertex of each twin class is its only choice
            rest = free & paired
            steps -= rest.bit_count()
            while rest:
                low = rest & -rest
                others = twins[low.bit_length() - 1]
                free &= ~others
                rest &= ~(others | low)
            cand = free
            todo = missing
            while missing and cand:
                low = missing & -missing
                cand &= covers[low.bit_length() - 1]
                missing ^= low
            steps -= (todo ^ missing).bit_count()
            if cand:
                hit = cand & -cand
                tested += (free & (hit << 1) - 1).bit_count()
                chosen[last] = hit.bit_length() - 1
                return tuple(chosen), tested, steps
            tested += free.bit_count()
            depth -= 1
        elif free.bit_count() < k - depth:
            depth -= 1
        elif missing and not free & covers[(missing & -missing).bit_length() - 1]:
            # every completion needs a member that covers the lowest uncovered vertex
            depth -= 1
        else:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            # the siblings after v skip its twins; the child under v keeps them
            free_at[depth] = free & ~twins[v]
            after = free & ~conflict[v]
            need = last - depth
            if after.bit_count() >= need:
                # the packing bound of the child: need ends below 0 to cut it
                cov = cov_at[depth] | reach[v]
                missing = todo = full & ~cov
                claimed = 0
                while missing and need >= 0:
                    low = missing & -missing
                    missing ^= low
                    coverers = covers[low.bit_length() - 1] & after
                    if coverers & claimed:
                        continue
                    if not coverers:
                        need = -1
                        break
                    claimed |= coverers
                    need -= 1
                steps -= (todo ^ missing).bit_count()
                if need >= 0:
                    chosen[depth] = v
                    depth += 1
                    free_at[depth] = after
                    cov_at[depth] = cov
    return None, tested, steps


def _steps_after_tables(d: Digraph) -> int:
    """MAX_SEARCH_STEPS less the two per-arc scans of _qk_tables(d), a step
    per arc each, taken before they run: a digraph too large for the
    limit is refused before its tables are built."""
    steps = MAX_SEARCH_STEPS - 2 * sum(row.bit_count() for row in d.out_masks)
    if steps < 0:
        raise _over_limit()
    return steps


def _qk_tables(d: Digraph) -> _Tables:
    """Per-vertex conflict masks (out | in), reach-in-two masks and their
    mirror (the vertices each vertex reaches in at most two arcs): an
    independent set is a quasi-kernel iff its reach masks OR to full_mask.
    The mirror and the reach masks take one scan of the arcs each."""
    out = d.out_masks
    covers = []
    for u, near in enumerate(out):
        mask = near | 1 << u
        for w in members(near):
            mask |= out[w]
        covers.append(mask)
    return _tables(
        d,
        [o | i for o, i in zip(out, d.in_masks)],
        [d.reach_in_two(v) for v in range(d.n)],
        covers,
    )


def min_quasi_kernel(d: Digraph | SplitDigraph, budget: int | None = None) -> SolveReport:
    """Minimum-cardinality quasi-kernel (ties broken to the lexicographically
    least vertex set), or a none-within-budget report.

    Sizes are tried in ascending order, each by one pruned scan of the
    independent sets of that size; all of them share MAX_SEARCH_STEPS with
    the building of the search's tables.  A SplitDigraph is searched as its
    plain graph.
    """
    d = d.graph if isinstance(d, SplitDigraph) else d
    steps = _steps_after_tables(d)
    tables = _qk_tables(d)
    explored = 0
    max_k = d.n if budget is None else min(budget, d.n)
    for k in range(max_k + 1):
        hit, tested, steps = _first_cover(k, tables, 0, 0, d.full_mask, steps)
        explored += tested
        if hit is not None:
            return SolveReport(d.certify(hit, "exact"), True, explored, "exact")
    return SolveReport(None, False, explored, "exact")


def has_qk_of_size_at_most(d: Digraph | SplitDigraph, q: int) -> bool:
    """Decision wrapper: does a quasi-kernel of size <= q exist?"""
    return min_quasi_kernel(d, budget=q).certificate is not None


def is_dominating(d: Digraph, s: Iterable[int]) -> bool:
    """True iff every vertex is in s or has an out-neighbor in s."""
    mask = d.mask_of(s)
    return mask | d.in_set_mask(mask) == d.full_mask


def min_dominating_set(d: Digraph, budget: int | None = None) -> frozenset[int] | None:
    """Minimum dominating set by exhaustive cardinality-ascending search
    (ties broken to the lexicographically least vertex set).

    It runs the quasi-kernel search core with no adjacency conflicts, the
    closed in-neighbourhoods as reach masks and the closed
    out-neighbourhoods as their mirror, so the packing bound and the twin
    rule apply as they do there, and so does MAX_SEARCH_STEPS.
    """
    closed_in = [row | 1 << v for v, row in enumerate(d.in_masks)]
    closed_out = [row | 1 << v for v, row in enumerate(d.out_masks)]
    tables = _tables(d, [0] * d.n, closed_in, closed_out)
    steps = MAX_SEARCH_STEPS
    max_k = d.n if budget is None else min(budget, d.n)
    for k in range(max_k + 1):
        hit, _, steps = _first_cover(k, tables, 0, 0, d.full_mask, steps)
        if hit is not None:
            return frozenset(hit)
    return None


def _independent_classes(sd: SplitDigraph) -> list[tuple[int, frozenset[int]]]:
    """Equivalence classes of the independent part under equal (N-, N+),
    as (representative, class) pairs ordered by representative."""
    d = sd.graph
    groups: dict[tuple[int, int], set[int]] = {}
    for s in sorted(sd.independent):
        groups.setdefault((d.in_masks[s], d.out_masks[s]), set()).add(s)
    classes = [(min(members), frozenset(members)) for members in groups.values()]
    classes.sort(key=lambda rc: rc[0])
    return classes


def fpt_by_clique(sd: SplitDigraph, k: int) -> QkCertificate | None:
    """Quasi-kernel of size <= k, or None, via independent-part equivalence classes.

    Each class contributes one of three states (excluded, whole class,
    representative only), combined with at most one clique vertex; a
    depth-first scan with a size budget and an explicit stack tests the
    combinations.  A state is a member mask with the OR of its members'
    reach-in-two masks, so a combination is a quasi-kernel iff its masks OR
    to full_mask: it is independent by construction, because the classes
    adjacent to the clique vertex are always excluded.  Each stack pop is a
    step, and the scans of all clique vertices share MAX_SEARCH_STEPS.
    """
    d = sd.graph
    full = d.full_mask
    classes = _independent_classes(sd)
    adj = [d.in_masks[rep] | d.out_masks[rep] for rep, _ in classes]
    # each class's states in scan order: excluded, whole class, representative
    # only, as (member mask, OR of the members' reach-in-two, size); members
    # share their in-neighbours, so the class's OR is its mask | rep's reach
    states = []
    for rep, cls in classes:
        reach = d.reach_in_two(rep)
        cls_mask = d.mask_of(cls)
        whole = (cls_mask, cls_mask | reach, len(cls))
        rep_only = (1 << rep, reach, 1)
        states.append(((0, 0, 0), whole, rep_only) if len(cls) > 1 else ((0, 0, 0), whole))

    steps = MAX_SEARCH_STEPS
    for c in [None, *sorted(sd.clique)]:
        room = k - (0 if c is None else 1)
        if room < 0:
            continue
        stack = [(0, 0, 0, room) if c is None else (0, 1 << c, d.reach_in_two(c), room)]
        while stack:
            steps -= 1
            if steps < 0:
                raise _over_limit()
            idx, mask, cov, left = stack.pop()
            # with no room left every remaining class can only be excluded
            if idx == len(classes) or left == 0:
                if cov == full:
                    return d.certify(members(mask), "fpt-k")
                continue
            if c is not None and adj[idx] >> c & 1:
                stack.append((idx + 1, mask, cov, left))
                continue
            for opt, opt_cov, size in reversed(states[idx]):
                if size <= left:
                    stack.append((idx + 1, mask | opt, cov | opt_cov, left - size))
    return None


def fpt_by_independent(sd: SplitDigraph, k: int) -> QkCertificate | None:
    """Quasi-kernel of size <= k, or None, by independent-part subset enumeration.

    At most one clique vertex joins a subset of the independent part.
    Candidates are tested in ascending total size, so the first hit is a
    minimum one; within a size, the subsets of I alone come first, then
    those with each clique vertex c in ascending order, each group in
    lexicographic order.  All the scans share MAX_SEARCH_STEPS with the
    building of the search's tables.
    """
    d = sd.graph
    steps = _steps_after_tables(d)
    tables = _qk_tables(d)
    full = d.full_mask
    clique = sorted(sd.clique)
    k_mask = d.mask_of(clique)
    for size in range(min(k, d.n) + 1):
        hit, _, steps = _first_cover(size, tables, k_mask, 0, full, steps)
        if hit is None and size >= 1:
            for c in clique:
                hit, _, steps = _first_cover(
                    size - 1, tables, k_mask | tables.conflict[c], tables.reach[c], full, steps
                )
                if hit is not None:
                    hit = (*hit, c)
                    break
        if hit is not None:
            return d.certify(hit, "fpt-i")
    return None
