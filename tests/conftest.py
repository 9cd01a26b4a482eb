"""Shared fixtures, independent re-implementations used as oracles, and
hypothesis strategies.

The checkers here deliberately work from the raw arc set (arc-scan BFS,
naive domination) so they share no code path with the package's own
predicates.
"""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

import quasikernel
from quasikernel import Digraph, GenerationError, SplitDigraph, instances
from quasikernel.digraph import Arc, SplitError, lowest, members
from quasikernel.files import INSTANCE_MAGIC, MAX_ARCS, MAX_VERTICES, InstanceParseError


# the command that the qkdg entry point, quasikernel.cli:app, runs
QKDG = ("-c", "from quasikernel.cli import app; app()")


def run_python(*args: str, cwd=None, address_space: int | None = None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports the
    quasikernel under test, and capture its output as text.
    address_space caps the child's memory (RLIMIT_AS) in bytes."""
    package_root = str(Path(quasikernel.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    preexec_fn = None
    if address_space is not None:
        import resource

        def preexec_fn():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        preexec_fn=preexec_fn,
    )


def qk_by_bfs(d: Digraph, s) -> bool:
    """Independent quasi-kernel check: arc-scan independence + depth-2 BFS."""
    members = set(s)
    for t, h in d.arcs:
        if t in members and h in members:
            return False
    for v in range(d.n):
        if v in members:
            continue
        frontier = {v}
        found = False
        for _ in range(2):
            frontier = {h for (t, h) in d.arcs if t in frontier}
            if frontier & members:
                found = True
                break
        if not found:
            return False
    return True


def dominating_by_scan(d: Digraph, s) -> bool:
    members = set(s)
    for v in range(d.n):
        if v in members:
            continue
        if not any(t == v and h in members for (t, h) in d.arcs):
            return False
    return True


def strongly_connected(d: Digraph) -> bool:
    if d.n <= 1:
        return True

    arcs = list(d.arcs)

    def reach(start: int, forward: bool) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            nbrs = [h for t, h in arcs if t == v] if forward else [t for t, h in arcs if h == v]
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    return len(reach(0, True)) == d.n and len(reach(0, False)) == d.n


def random_digraph(seed: int, max_n: int = 12) -> Digraph:
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    p = rng.uniform(0.05, 0.5)
    arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p]
    return Digraph(n, arcs)


def gnp(n: int, p: float, seed: int) -> Digraph:
    """G(n, p): each arc (u, v), u != v, in row order, drawn when
    random.Random(seed).random() < p."""
    rng = random.Random(seed)
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])


def random_semicomplete(seed: int, max_n: int = 10) -> Digraph:
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    p_digon = rng.uniform(0.0, 0.5)
    arcs = []
    for a in range(n):
        for b in range(a + 1, n):
            arcs.append((a, b) if rng.random() < 0.5 else (b, a))
            if rng.random() < p_digon:
                arcs.append((arcs[-1][1], arcs[-1][0]))
    return Digraph(n, arcs)


def reaching_within_two(arcs, v: int) -> set[int]:
    """Vertices with a path of at most two arcs to v, by scanning the arc list."""
    first = {t for t, h in arcs if h == v}
    return {v} | first | {t for t, h in arcs if h in first}


def dominating_two_serf_by_scan(n: int, arcs, v: int) -> int:
    """Reference for dominate_two_serf: among the vertices that do not reach v
    within two arcs, the one with the most in-neighbors among them, smallest
    index on ties."""
    rest = set(range(n)) - reaching_within_two(arcs, v)
    return min(rest, key=lambda w: (-sum(1 for t, h in arcs if h == w and t in rest), w))


def max_in_degree_by_scan(arcs, rest) -> int:
    """Reference for _max_in_degree: the vertex of the set rest with the most
    in-arcs from rest, smallest index on ties."""
    return min(rest, key=lambda w: (-sum(1 for t, h in arcs if h == w and t in rest), w))


def induced_by_filter(arcs, s) -> set[tuple[int, int]]:
    """Arcs of the subdigraph on s, relabelled by rank in sorted(s)."""
    rank = {v: i for i, v in enumerate(sorted(s))}
    return {(rank[t], rank[h]) for t, h in arcs if t in rank and h in rank}


def distinct_class_split(nk: int = 12, ni: int = 1500) -> SplitDigraph:
    """Transitive-tournament clique 0..nk-1 (i -> j for i < j) and ni
    independent vertices with pairwise distinct out-neighbourhoods: vertex
    nk + j has arcs to the clique vertices at the set bits of j + 1.  Every
    independent vertex is its own class, and {nk - 1} is the only minimum
    quasi-kernel."""
    arcs = [(i, j) for i in range(nk) for j in range(i + 1, nk)]
    for j in range(ni):
        arcs += [(nk + j, c) for c in range(nk) if (j + 1) >> c & 1]
    return SplitDigraph(Digraph(nk + ni, arcs), range(nk), range(nk, nk + ni))


def fpt_by_independent_by_bfs(sd: SplitDigraph, k: int) -> frozenset[int] | None:
    """Reference for fpt_by_independent's tie-break: by ascending size, the
    subsets of I alone, then each clique vertex ascending joined with subsets
    of I, each group in lexicographic order; the first quasi-kernel wins."""
    indep = members(sd.independent)
    for size in range(k + 1):
        for c in [None, *members(sd.clique)]:
            rest = size if c is None else size - 1
            if rest < 0:
                continue
            for part in combinations(indep, rest):
                cand = set(part) if c is None else set(part) | {c}
                if qk_by_bfs(sd.graph, cand):
                    return frozenset(cand)
    return None


def fpt_by_clique_reference(sd: SplitDigraph, k: int) -> frozenset[int] | None:
    """Reference for fpt_by_clique's tie-break: a depth-first scan with no
    cut, on frozensets and the arc list.  The independent vertices with
    equal in- and out-neighbours form a class; the classes are ordered by
    least member.  For at most one clique vertex c (None first, then
    ascending), each class in turn is excluded, taken whole or, if larger
    than one, by its least member alone, in that order; a class adjacent to
    c is only excluded.  The first combination of at most k vertices that
    reaches every vertex within two arcs wins."""
    arcs = frozenset(sd.graph.arcs)
    everything = frozenset(range(sd.graph.n))
    groups: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
    for s in members(sd.independent):
        key = (frozenset(t for t, h in arcs if h == s), frozenset(h for t, h in arcs if t == s))
        groups.setdefault(key, []).append(s)
    classes = sorted(groups.values())
    reached = {v: reaching_within_two(arcs, v) for v in everything}
    for c in [None, *members(sd.clique)]:
        start = frozenset() if c is None else frozenset({c})
        if len(start) > k:
            continue
        stack = [(0, start)]
        while stack:
            idx, chosen = stack.pop()
            if idx == len(classes) or len(chosen) == k:
                if set().union(*(reached[v] for v in chosen)) == everything:
                    return chosen
                continue
            cls = classes[idx]
            options = [frozenset()]
            if c is None or not {(c, cls[0]), (cls[0], c)} & arcs:
                options.append(frozenset(cls))
                if len(cls) > 1:
                    options.append(frozenset(cls[:1]))
            for opt in reversed(options):
                if len(chosen) + len(opt) <= k:
                    stack.append((idx + 1, chosen | opt))
    return None


def near_transitive_ladder(k: int) -> SplitDigraph:
    """Clique i->j for i<j with (k-3, k-1) reversed; independent k+i -> i."""
    arcs = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) != (k - 3, k - 1)]
    arcs.append((k - 1, k - 3))
    arcs += [(k + i, i) for i in range(k)]
    return SplitDigraph(Digraph(2 * k, arcs), range(k), range(k, 2 * k))


def relabel(d: Digraph, perm: list[int]) -> Digraph:
    return Digraph(d.n, [(perm[t], perm[h]) for (t, h) in d.arcs])


def relabel_split(sd: SplitDigraph, perm: list[int]) -> SplitDigraph:
    return SplitDigraph(
        relabel(sd.graph, perm),
        [perm[v] for v in members(sd.clique)],
        [perm[v] for v in members(sd.independent)],
    )


def split_by_filter(sd: SplitDigraph, s) -> tuple[SplitDigraph, list[int]]:
    """The split subdigraph on s, from the arc list, relabelled by rank in
    sorted(s), and the old index of each new one."""
    old_of_new = sorted(s)
    rank = {v: i for i, v in enumerate(old_of_new)}
    sub = Digraph(len(rank), induced_by_filter(sd.graph.arcs, old_of_new))
    clique = [rank[v] for v in members(sd.clique) if v in rank]
    independent = [rank[v] for v in members(sd.independent) if v in rank]
    return SplitDigraph(sub, clique, independent), old_of_new


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def digraphs(draw, max_n: int = 7) -> Digraph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    if not pairs:
        return Digraph(n)
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Digraph(n, arcs)


@st.composite
def digraphs_with_subsets(draw, max_n: int = 7) -> tuple[Digraph, frozenset[int]]:
    d = draw(digraphs(max_n=max_n))
    subset = draw(st.frozensets(st.integers(0, max(d.n - 1, 0)), max_size=d.n)) if d.n else frozenset()
    return d, subset


@st.composite
def arc_lists(draw, max_n: int = 12) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count and an arc list in arbitrary order, repeats allowed."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    if not pairs:
        return n, []
    return n, draw(st.lists(st.sampled_from(pairs), max_size=2 * len(pairs)))


@st.composite
def semicomplete_arc_lists(draw, min_n: int = 1, max_n: int = 7) -> tuple[int, list[tuple[int, int]]]:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    arcs: list[tuple[int, int]] = []
    for a in range(n):
        for b in range(a + 1, n):
            kind = draw(st.integers(0, 2))
            if kind in (0, 2):
                arcs.append((a, b))
            if kind in (1, 2):
                arcs.append((b, a))
    return n, arcs


def semicomplete(min_n: int = 1, max_n: int = 7):
    return semicomplete_arc_lists(min_n, max_n).map(lambda case: Digraph(*case))


@st.composite
def split_digraphs(draw, max_k: int = 4, max_i: int = 5) -> SplitDigraph:
    nk = draw(st.integers(0, max_k))
    ni = draw(st.integers(0, max_i))
    arcs: list[tuple[int, int]] = []
    for a in range(nk):
        for b in range(a + 1, nk):
            kind = draw(st.integers(0, 2))
            if kind in (0, 2):
                arcs.append((a, b))
            if kind in (1, 2):
                arcs.append((b, a))
    for k in range(nk):
        for s in range(nk, nk + ni):
            kind = draw(st.integers(0, 3))
            if kind in (1, 3):
                arcs.append((k, s))
            if kind in (2, 3):
                arcs.append((s, k))
    return SplitDigraph(Digraph(nk + ni, arcs), range(nk), range(nk, nk + ni))


def with_twins(d: Digraph, originals) -> Digraph:
    """d with one new vertex per entry of originals, each taking the in- and
    out-neighbours of its original: a twin of it."""
    arcs = set(d.arcs)
    n = d.n
    for original in originals:
        arcs |= {(n, h) for t, h in d.arcs if t == original}
        arcs |= {(t, n) for t, h in d.arcs if h == original}
        n += 1
    return Digraph(n, arcs)


@st.composite
def twinned_digraphs(draw, max_base: int = 10, max_n: int = 20) -> Digraph:
    """A random digraph on at most max_base vertices with twins of some of
    its vertices, up to max_n vertices in all, relabelled at random."""
    base = draw(digraphs(max_n=max_base))
    originals = []
    if base.n:
        originals = draw(st.lists(st.integers(0, base.n - 1), max_size=max_n - base.n))
    d = with_twins(base, originals)
    return relabel(d, draw(st.permutations(range(d.n))))


@st.composite
def twinned_split_digraphs(draw, max_n: int = 20) -> SplitDigraph:
    """A split digraph with twins of some independent vertices, up to max_n
    vertices in all, relabelled at random."""
    sd = draw(split_digraphs())
    n = sd.graph.n
    independent = members(sd.independent)
    originals = []
    if independent:
        originals = draw(st.lists(st.sampled_from(independent), max_size=max_n - n))
    d = with_twins(sd.graph, originals)
    twinned = SplitDigraph(d, members(sd.clique), [*independent, *range(n, d.n)])
    return relabel_split(twinned, draw(st.permutations(range(d.n))))


# The lexicographic exhaustive-search core from before the packing bound,
# the twin rule and cover branching, kept unchanged as the answer oracle
# that test_properties compares the exact solvers against.
def first_cover_reference(
    k: int,
    conflict: list[int],
    reach: list[int],
    covers: list[int],
    banned: int,
    cover: int,
    full: int,
) -> tuple[tuple[int, ...] | None, int]:
    """The lexicographically first k-set S of vertices outside ``banned``,
    with no v in S inside ``conflict[u]`` of another member u, such that
    ``cover`` OR'ed with ``reach[v]`` over S equals ``full``; and the number
    of k-sets whose cover was decided.

    ``covers`` mirrors ``reach``: ``covers[u]`` is the mask of the vertices
    v with u in ``reach[v]``.  This was the package's exhaustive
    enumeration.  It walks the sets in lexicographic order without
    recursion, keeping one entry per chosen member, so its memory and depth
    never depend on the number of vertices.  Two prunes skip only subtrees
    that hold no hit, so the first hit is the same as an unpruned scan's:
    a depth backtracks when fewer free vertices are left than still needed,
    or when no free vertex covers u, the lowest vertex its prefix leaves
    uncovered.  At the last depth the hits are the free vertices that cover
    every uncovered vertex, found by AND'ing their ``covers`` masks; each
    free vertex there up to the first hit counts as one decided k-set.
    """
    if k == 0:
        return (() if cover == full else None), 1
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
        free = free_at[depth]
        missing = full & ~cov_at[depth]
        if depth == last:
            cand = free
            while missing and cand:
                low = missing & -missing
                cand &= covers[low.bit_length() - 1]
                missing ^= low
            if cand:
                hit = cand & -cand
                tested += (free & (hit << 1) - 1).bit_count()
                chosen[last] = hit.bit_length() - 1
                return tuple(chosen), tested
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
            free_at[depth] = free
            v = low.bit_length() - 1
            after = free & ~conflict[v]
            if after.bit_count() >= last - depth:
                chosen[depth] = v
                depth += 1
                free_at[depth] = after
                cov_at[depth] = cov_at[depth - 1] | reach[v]
    return None, tested


# QkCertificate.check stage by stage, from the arc set: the message of the
# first stage that fails, or None if the certificate holds.  The stages, their
# order and their messages are check's; the tests compare its verdicts with
# this one's on tampered witness tables.
def certificate_check_reference(cert, d: Digraph) -> str | None:
    arcs = set(d.arcs)
    for v in cert.vertices:
        if type(v) is not int:
            return f"certificate vertex {v!r} is not an int (bool is rejected)"
        if not 0 <= v < d.n:
            return f"certificate vertex {v} out of range"
    for v in cert.vertices:
        if any((v, u) in arcs for u in cert.vertices):
            return f"certificate set not independent at vertex {v}"
    table = cert.witnesses
    for v, path in table.items():
        if type(path) not in (tuple, list):
            return f"witness for {v} is {path!r}, not an int tuple or list"
    for entry in [*table, *(u for path in table.values() for u in path)]:
        if type(entry) is not int:
            return f"witness entry {entry!r} is not an int (bool is rejected)"
    if set(table) != set(range(d.n)) - cert.vertices:
        return "witness table does not cover exactly the outside vertices"
    for v, path in table.items():
        if len(path) not in (2, 3):
            return f"witness for {v} has invalid length {len(path)}"
        if path[0] != v or path[-1] not in cert.vertices:
            return f"witness for {v} has wrong endpoints"
        for a, b in [(path[i], path[i + 1]) for i in range(len(path) - 1)]:
            if (a, b) not in arcs:
                return f"witness arc ({a},{b}) for {v} not in the digraph"
    if cert.bound is not None and len(cert.vertices) > cert.bound:
        return f"certificate size {len(cert.vertices)} exceeds its bound {cert.bound}"
    return None


# one_way_qk and two_thirds_qk as they were before the tournament, the
# induced digraphs and the reach masks were built from mask rows: the
# tournament and the one-way classes through an arc list, the dominating
# 2-serf of each non-2-serf clique vertex by an arc scan
# (dominating_two_serf_by_scan), and a copy of the clique.  Kept as the references that test_split_qk compares the
# constructions' vertex sets against.
def one_way_reference(sd: SplitDigraph) -> frozenset[int]:
    d = sd.graph
    if d.n == 0:
        return frozenset()
    order = tuple(members(sd.clique))
    pos = {k: idx for idx, k in enumerate(order)}
    out, inn = d.out_masks, d.in_masks
    arcs = [
        (pos[u], pos[w])
        for u in order
        for w in members(out[u] & sd.clique & ~(inn[u] & ((1 << u) - 1)))
    ]
    t = Digraph(len(order), arcs)
    t_sinks = set(range(len(order))) - {u for u, _ in arcs}
    if t_sinks:
        return frozenset({order[min(t_sinks)]})
    # each independent vertex's class is its smallest out-neighbour
    smallest_head: dict[int, int] = {}
    for u, w in d.arcs:
        smallest_head[u] = min(w, smallest_head.get(u, w))
    classes = [0] * len(order)
    for s in members(sd.independent):
        classes[pos[smallest_head[s]]] |= 1 << s
    t_out = t.out_masks
    nk = len(order)
    reached = []
    for i in range(nk):
        union = 0
        for j in members(t_out[i]):
            union |= classes[j]
        reached.append(union)
    prelim = [(reached[i] | 1 << order[i]) & ~inn[order[i]] for i in range(nk)]
    candidates = [
        prelim[i if t.is_two_serf(i) else dominating_two_serf_by_scan(nk, arcs, i)] for i in range(nk)
    ]
    best = min(range(nk), key=lambda i: (candidates[i].bit_count(), i))
    return frozenset(members(candidates[best]))


def two_thirds_reference(sd: SplitDigraph) -> frozenset[int]:
    d = sd.graph
    if d.n == 0:
        return frozenset()
    out, inn = d.out_masks, d.in_masks
    clique, indep = sd.clique, sd.independent
    k_m = i_m = 0
    for u in members(clique):
        free = out[u] & indep & ~i_m
        if free:
            k_m |= 1 << u
            i_m |= 1 << lowest(free)
    n_im = d.in_set_mask(i_m)
    nii = d.in_set_mask(n_im) & indep & ~i_m
    region_b = d.full_mask & ~(i_m | n_im | nii)
    if region_b.bit_count() <= 1:
        return frozenset(members(i_m))
    bk = region_b & clique
    bi = region_b & indep
    b_sinks = 0
    for v in members(region_b):
        if not out[v] & region_b:
            b_sinks |= 1 << v
    if b_sinks:
        q1 = b_sinks & -b_sinks
    else:
        sub, old_of_new = split_by_filter(sd, members(region_b))
        q1 = d.mask_of(old_of_new[v] for v in one_way_reference(sub))
    cand_q = (q1 | i_m | nii) & ~d.in_set_mask(q1)
    v = next((u for u in members(bk) if not out[u] & n_im), None)
    if v is None:
        cand_qp = i_m | bi
    else:
        k_order = members(clique)
        k_arcs = induced_by_filter(d.arcs, k_order)
        kt = Digraph(len(k_order), k_arcs)
        pos = {k: idx for idx, k in enumerate(k_order)}
        if not kt.is_two_serf(pos[v]):
            v = k_order[dominating_two_serf_by_scan(len(k_order), k_arcs, pos[v])]
        cand_qp = 1 << v | (indep & ~(nii | inn[v]))
    chosen = cand_q if cand_q.bit_count() <= cand_qp.bit_count() else cand_qp
    return frozenset(members(chosen))


# peel_split as it was before the two-thirds construction ran on regions of
# the host: the peel loop on frozensets and the arc list, each sink-free
# residue copied into a renumbered split digraph (split_by_filter) and solved
# there by two_thirds_reference.  The reference shares neither the peel loop
# nor the construction code with the package.
def peel_reference(sd: SplitDigraph) -> frozenset[int]:
    d = sd.graph
    arcs = list(d.arcs)

    def sinks_of(vertices: frozenset[int]) -> frozenset[int]:
        return vertices - {t for t, h in arcs if t in vertices and h in vertices}

    def into(vertices: frozenset[int]) -> frozenset[int]:
        return frozenset(t for t, h in arcs if h in vertices) - vertices

    def oracle(vertices: frozenset[int]) -> frozenset[int]:
        if not vertices:
            return frozenset()
        sub, old_of_new = split_by_filter(sd, vertices)
        return frozenset(old_of_new[v] for v in two_thirds_reference(sub))

    result: set[int] = set()
    remaining = frozenset(range(d.n))
    while True:
        cur = sinks_of(remaining)
        if not cur:
            result |= oracle(remaining)
            break
        result |= cur
        r1 = remaining - cur - into(cur)
        s1 = sinks_of(r1)
        if not s1:
            result |= oracle(r1)
            break
        # peel once more when the new sinks outnumber their in-neighbors
        n1 = into(s1) & r1
        remaining = r1 if len(s1) <= len(n1) else r1 - s1
    return frozenset(result)


# A plain instance parser with the checks, messages and line numbers of
# files.parse_instance: the reference that test_files compares it against.
def parse_instance_reference(text: str) -> Digraph | SplitDigraph:
    header_seen = False
    n: int | None = None
    clique: list[int] | None = None
    arcs: list[tuple[int, int]] = []
    seen_arcs: set[tuple[int, int]] = set()
    arcs_started = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != INSTANCE_MAGIC:
                raise InstanceParseError(f"expected header '{INSTANCE_MAGIC}'", lineno)
            header_seen = True
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "n":
            if n is not None:
                raise InstanceParseError("duplicate n line", lineno)
            digits = fields[1].removeprefix("-") if len(fields) == 2 else ""
            # str.isdigit alone also takes digits such as '²' that int() refuses
            if not (digits.isascii() and digits.isdigit()):
                raise InstanceParseError("n line must be 'n <count>'", lineno)
            if fields[1].startswith("-") and digits.strip("0"):
                raise InstanceParseError("vertex count must be nonnegative", lineno)
            # the length test comes first: int() refuses over 4300 digits
            if len(digits.lstrip("0")) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
                raise InstanceParseError(
                    f"vertex count over the cap MAX_VERTICES={MAX_VERTICES}", lineno
                )
            n = int(digits)
        elif tag == "k":
            if n is None:
                raise InstanceParseError("k line before n line", lineno)
            if clique is not None:
                raise InstanceParseError("duplicate k line", lineno)
            if arcs_started:
                raise InstanceParseError("k line must precede arc lines", lineno)
            try:
                clique = [int(f) for f in fields[1:]]
            except ValueError:
                raise InstanceParseError("k line indices must be integers", lineno) from None
            if len(set(clique)) != len(clique):
                raise InstanceParseError("duplicate index in k line", lineno)
            for v in clique:
                if not 0 <= v < n:
                    raise InstanceParseError(f"clique index {v} out of range", lineno)
        elif tag == "a":
            if n is None:
                raise InstanceParseError("arc line before n line", lineno)
            if len(arcs) == MAX_ARCS:
                raise InstanceParseError(f"arc count over the cap MAX_ARCS={MAX_ARCS}", lineno)
            arcs_started = True
            try:
                t, h = (int(f) for f in fields[1:])
            except ValueError:
                raise InstanceParseError("arc line must be 'a <tail> <head>'", lineno) from None
            if not (0 <= t < n and 0 <= h < n):
                raise InstanceParseError(f"arc ({t},{h}) endpoint out of range", lineno)
            if t == h:
                raise InstanceParseError(f"loop arc ({t},{t}) not allowed", lineno)
            if (t, h) in seen_arcs:
                raise InstanceParseError(f"duplicate arc ({t},{h})", lineno)
            seen_arcs.add((t, h))
            arcs.append((t, h))
        else:
            raise InstanceParseError(f"unknown directive '{tag}'", lineno)

    last = len((text + ".").splitlines())
    if not header_seen:
        raise InstanceParseError(f"missing header '{INSTANCE_MAGIC}'", 1)
    if n is None:
        raise InstanceParseError("missing n line", last)
    graph = Digraph(n, arcs)
    if clique is None:
        return graph
    independent = sorted(set(range(n)) - set(clique))
    try:
        return SplitDigraph(graph, clique, independent)
    except SplitError as exc:
        raise InstanceParseError(f"invalid split partition: {exc}", last) from exc


# The two random models as they were before they drew into mask rows: the
# arcs go into a set (the complete model: a dict of oriented pairs, with every
# pair scanned for each sink), and Digraph rebuilds the rows arc by arc.
# Kept verbatim, but for the names, as the references that test_instances
# compares the models' instances and refusals against.  The caps are read
# from quasikernel.instances at call time, so a patched cap binds both.
def _check_arc_set(what: str, arcs) -> None:
    if len(arcs) > instances.MAX_ARCS:
        raise GenerationError(f"{what}: arc count over the cap MAX_ARCS={instances.MAX_ARCS}")


def _orient_pair(rng: random.Random, a: int, b: int, p_digon: float) -> list[Arc]:
    arcs = [(a, b)] if rng.random() < 0.5 else [(b, a)]
    if rng.random() < p_digon:
        arcs.append((arcs[0][1], arcs[0][0]))
    return arcs


def gen_random_split_reference(
    seed: int,
    nk: int,
    ni: int,
    p_k_to_i: float = 0.25,
    p_i_to_k: float = 0.25,
    p_digon_k: float = 0.15,
    one_way: bool = False,
    sink_free: bool = False,
) -> SplitDigraph:
    if nk < 0 or ni < 0:
        raise ValueError("part sizes must be nonnegative")
    instances._check_probabilities(p_k_to_i=p_k_to_i, p_i_to_k=p_i_to_k, p_digon_k=p_digon_k)
    instances._check_caps("random split", nk + ni, 0)
    if sink_free:
        if nk == 0 and ni > 0:
            raise GenerationError("sink-free impossible: an isolated independent vertex is a sink")
        if nk == 1 and (one_way or ni == 0):
            raise GenerationError("sink-free impossible: the lone clique vertex has no legal out-arc")
    rng = random.Random(seed)
    indep = range(nk, nk + ni)
    arcs: set[Arc] = set()

    if sink_free and nk >= 3:
        for a in range(nk):
            b = (a + 1) % nk
            arcs.add((a, b))
            if rng.random() < p_digon_k:
                arcs.add((b, a))
    if sink_free and nk == 2:
        arcs.update(((0, 1), (1, 0)))
    # the pairs of that cycle or digon, (a, a + 1) and (0, nk - 1), are taken
    cycle = sink_free and nk >= 2
    for a in range(nk):
        for b in range(a + 1 + cycle, nk - (cycle and a == 0)):
            arcs.update(_orient_pair(rng, a, b, p_digon_k))
        _check_arc_set("random split", arcs)
    if sink_free and nk == 1:
        arcs.add((0, nk))
    if sink_free:
        for s in indep:
            arcs.add((s, rng.randrange(nk)))
    for k in range(nk):
        for s in indep:
            if not one_way and rng.random() < p_k_to_i:
                arcs.add((k, s))
            if rng.random() < p_i_to_k:
                arcs.add((s, k))
        _check_arc_set("random split", arcs)

    sd = SplitDigraph(Digraph(nk + ni, arcs), range(nk), indep)
    flags = sd.classify()
    if one_way and not flags.one_way:
        raise GenerationError("construction failed to be one-way")
    if sink_free and not flags.sink_free:
        raise GenerationError("construction failed to be sink-free")
    return sd


def gen_random_complete_split_reference(
    seed: int,
    nk: int,
    ni: int,
    p_digon: float = 0.15,
    sink_free: bool = False,
) -> SplitDigraph:
    if nk < 0 or ni < 0:
        raise ValueError("part sizes must be nonnegative")
    instances._check_probabilities(p_digon=p_digon)
    n = nk + ni
    # every adjacent pair takes at least one arc
    instances._check_caps("random complete split", n, math.comb(nk, 2) + nk * ni)
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(nk) for b in range(a + 1, nk)]
    pairs += [(k, s) for k in range(nk) for s in range(nk, n)]
    oriented: dict[tuple[int, int], tuple[Arc, ...]] = {
        pair: tuple(_orient_pair(rng, *pair, p_digon)) for pair in pairs
    }

    def build() -> SplitDigraph:
        arcs = [a for arcset in oriented.values() for a in arcset]
        _check_arc_set("random complete split", arcs)
        return SplitDigraph(Digraph(n, arcs), range(nk), range(nk, n))

    sd = build()
    if sink_free:
        attempts = 0
        while sd.graph.sinks():
            if attempts >= 100:
                raise GenerationError("resampling cap exceeded while enforcing sink-freeness")
            attempts += 1
            for v in members(sd.graph.sinks()):
                for pair in pairs:
                    if v in pair:
                        oriented[pair] = tuple(_orient_pair(rng, *pair, p_digon))
            sd = build()
    return sd
