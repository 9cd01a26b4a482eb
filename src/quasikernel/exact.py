"""Exact solvers: minimum quasi-kernel, minimum dominating set, and the
two fixed-parameter algorithms for split digraphs.

The minimum searches enumerate candidate sets by ascending cardinality and
then lexicographically, so the first verified hit is provably minimum and
deterministic.  Bitmask arithmetic keeps the per-candidate cost at a few
integer operations; practical size caps turn hopeless instances into a
refusal instead of a silent slow run.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .digraph import Digraph, QkCertificate, SplitDigraph

GENERAL_VERTEX_CAP = 24
SPLIT_INDEPENDENT_CAP = 24


class CapExceededError(ValueError):
    """The instance exceeds the practical exhaustive-search limits."""


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an exact search.

    ``optimal`` is True only when the enumeration order proves no smaller
    quasi-kernel exists; ``explored`` counts the independent candidate
    sets whose coverage was tested.
    """

    certificate: QkCertificate | None
    optimal: bool
    explored: int
    algorithm: str


def _independent_k_subsets(adj: list[int], n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Independent k-subsets in lexicographic order, pruning on adjacency."""
    chosen: list[int] = []

    def rec(start: int, banned: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) == k:
            yield tuple(chosen)
            return
        need = k - len(chosen)
        for v in range(start, n - need + 1):
            if banned >> v & 1:
                continue
            chosen.append(v)
            yield from rec(v + 1, banned | adj[v] | (1 << v))
            chosen.pop()

    yield from rec(0, 0)


def min_quasi_kernel(d: Digraph | SplitDigraph, budget: int | None = None) -> SolveReport:
    """Minimum-cardinality quasi-kernel (ties broken to the lexicographically
    least vertex set), or a none-within-budget report.

    Passing a SplitDigraph switches to the split-aware enumeration (at most
    one clique vertex combined with independent-part subsets); passing its
    plain ``graph`` forces the general enumeration.
    """
    if isinstance(d, SplitDigraph):
        return _min_qk_split(d, budget)
    return _min_qk_general(d, budget)


def _min_qk_general(d: Digraph, budget: int | None) -> SolveReport:
    if d.n > GENERAL_VERTEX_CAP:
        raise CapExceededError(
            f"general search refused for n={d.n} > {GENERAL_VERTEX_CAP};"
            " supply a split partition or a budget-free smaller instance"
        )
    adj = [o | i for o, i in zip(d.out_masks, d.in_masks)]
    reach2 = [d.reach_in_two(v) for v in range(d.n)]
    full = d.full_mask
    explored = 0
    max_k = d.n if budget is None else min(budget, d.n)
    for k in range(max_k + 1):
        for cand in _independent_k_subsets(adj, d.n, k):
            explored += 1
            cover = 0
            for v in cand:
                cover |= reach2[v]
            if cover == full:
                cert = d.certify(cand, "exact")
                return SolveReport(cert, True, explored, "exact")
    return SolveReport(None, False, explored, "exact")


def _min_qk_split(sd: SplitDigraph, budget: int | None) -> SolveReport:
    d = sd.graph
    indep = sorted(sd.independent)
    if len(indep) > SPLIT_INDEPENDENT_CAP:
        raise CapExceededError(
            f"split-aware search refused for |I|={len(indep)} > {SPLIT_INDEPENDENT_CAP}"
        )
    adj = [o | i for o, i in zip(d.out_masks, d.in_masks)]
    reach2 = [d.reach_in_two(v) for v in range(d.n)]
    full = d.full_mask
    explored = 0
    n = d.n
    max_k = n if budget is None else min(budget, n)

    def first_hit(pool: list[int], size: int, base: tuple[int, ...], base_cover: int) -> tuple[int, ...] | None:
        nonlocal explored
        for rest in combinations(pool, size):
            explored += 1
            cover = base_cover
            for v in rest:
                cover |= reach2[v]
            if cover == full:
                return tuple(sorted(base + rest))
        return None

    for k in range(max_k + 1):
        hits: list[tuple[int, ...]] = []
        hit = first_hit(indep, k, (), 0)
        if hit is not None:
            hits.append(hit)
        if k >= 1:
            for c in sorted(sd.clique):
                pool = [s for s in indep if not (adj[c] >> s & 1)]
                hit = first_hit(pool, k - 1, (c,), reach2[c])
                if hit is not None:
                    hits.append(hit)
        if hits:
            cert = d.certify(min(hits), "exact")
            return SolveReport(cert, True, explored, "exact")
    return SolveReport(None, False, explored, "exact")


def has_qk_of_size_at_most(d: Digraph | SplitDigraph, q: int) -> bool:
    """Decision wrapper: does a quasi-kernel of size <= q exist?"""
    return min_quasi_kernel(d, budget=q).certificate is not None


def is_dominating(d: Digraph, s: Iterable[int]) -> bool:
    """True iff every vertex is in s or has an out-neighbor in s."""
    mask = d.mask_of(s)
    return mask | d.in_set_mask(mask) == d.full_mask


def min_dominating_set(d: Digraph, budget: int | None = None) -> frozenset[int] | None:
    """Minimum dominating set by exhaustive cardinality-ascending search."""
    if d.n > GENERAL_VERTEX_CAP:
        raise CapExceededError(f"dominating-set search refused for n={d.n} > {GENERAL_VERTEX_CAP}")
    full = d.full_mask
    max_k = d.n if budget is None else min(budget, d.n)
    for k in range(max_k + 1):
        for cand in combinations(range(d.n), k):
            mask = 0
            for v in cand:
                mask |= 1 << v
            if mask | d.in_set_mask(mask) == full:
                return frozenset(cand)
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
    depth-first scan with a size budget tests the combinations.
    """
    d = sd.graph
    if k < 0:
        return None
    classes = _independent_classes(sd)
    reps = [rc[0] for rc in classes]
    members = [rc[1] for rc in classes]
    adj = [d.in_masks[rep] | d.out_masks[rep] for rep in reps]

    def options(idx: int, c: int | None) -> list[frozenset[int]]:
        rep, cls = reps[idx], members[idx]
        if c is not None and adj[idx] >> c & 1:
            return [frozenset()]
        opts = [frozenset(), cls]
        if len(cls) > 1:
            opts.append(frozenset({rep}))
        return opts

    def dfs(idx: int, acc: frozenset[int], room: int, c: int | None) -> frozenset[int] | None:
        if idx == len(classes):
            cand = acc if c is None else acc | {c}
            if d.is_quasi_kernel(cand):
                return cand
            return None
        for opt in options(idx, c):
            if len(opt) > room:
                continue
            found = dfs(idx + 1, acc | opt, room - len(opt), c)
            if found is not None:
                return found
        return None

    for c in [None, *sorted(sd.clique)]:
        room = k - (0 if c is None else 1)
        if room < 0:
            continue
        found = dfs(0, frozenset(), room, c)
        if found is not None:
            return d.certify(found, "fpt-k")
    return None


def fpt_by_independent(sd: SplitDigraph, k: int) -> QkCertificate | None:
    """Quasi-kernel of size <= k, or None, by independent-part subset enumeration.

    At most one clique vertex joins a subset of the independent part;
    candidates are tested in ascending total size, so the first hit is a
    minimum one.
    """
    d = sd.graph
    if k < 0:
        return None
    indep = sorted(sd.independent)
    cliques: list[int | None] = [None, *sorted(sd.clique)]
    for size in range(k + 1):
        for c in cliques:
            rest = size if c is None else size - 1
            if rest < 0:
                continue
            for part in combinations(indep, rest):
                cand = frozenset(part) if c is None else frozenset(part) | {c}
                if d.is_quasi_kernel(cand):
                    return d.certify(cand, "fpt-i")
    return None
