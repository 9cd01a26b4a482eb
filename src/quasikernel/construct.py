"""Constructions that work in every digraph: peeling quasi-kernels and 2-serfs.

All outputs are post-verified before they are returned; a latent bug
surfaces as a VerificationError instead of a silently wrong answer.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .digraph import Digraph, PreconditionError, VerificationError, lowest, members


def quasi_kernel_rooted(d: Digraph, r: int) -> frozenset[int]:
    """Quasi-kernel Q with r in Q or an out-neighbor of r in Q.

    Peels closed in-neighborhoods starting at r (then at the smallest
    remaining index) and rebuilds the quasi-kernel backwards: a peeled
    root joins the set unless one of its out-neighbors already made it.
    Iterative, so the stack does not grow with the vertex count.
    """
    if not 0 <= r < d.n:
        raise ValueError(f"root {r} out of range for n={d.n}")
    out, inn = d.out_masks, d.in_masks
    order: list[int] = []
    remaining = d.full_mask
    root = r
    while remaining:
        order.append(root)
        remaining &= ~(inn[root] | 1 << root)
        if remaining:
            root = lowest(remaining)
    q = 0
    for v in reversed(order):
        if not out[v] & q:
            q |= 1 << v
    result = frozenset(members(q))
    if not d.is_quasi_kernel(result):
        raise VerificationError("rooted construction produced a non-quasi-kernel")
    if not q & (out[r] | 1 << r):
        raise VerificationError("rooted construction lost the root property")
    return result


def quasi_kernel_cl(d: Digraph) -> frozenset[int]:
    """Quasi-kernel of an arbitrary digraph (rooted at the smallest index)."""
    if d.n == 0:
        return frozenset()
    return quasi_kernel_rooted(d, 0)


class _Ranking(NamedTuple):
    """The vertices of a mask ``within`` by in-degree inside it, highest
    first and lowest index on ties, and those in-degrees."""

    order: list[int]
    degree: dict[int, int]


def _rank(inn: Sequence[int], within: int) -> _Ranking:
    """The ranking of ``within``, read from the in-rows."""
    degree = {w: (inn[w] & within).bit_count() for w in members(within)}
    return _Ranking(sorted(degree, key=degree.__getitem__, reverse=True), degree)


def _max_in_degree(inn: Sequence[int], rest: int, ranking: _Ranking, floor: int) -> int:
    """Vertex of mask ``rest`` whose in-row has the most bits inside it, smallest on ties.

    ``ranking`` ranks a mask that holds ``rest``, and each vertex w of the
    rest has at least ``floor`` in-neighbours there outside the rest, so at
    most its ranked degree minus ``floor`` inside it.  The rest is scanned in
    ranked order, and the scan stops at the first vertex whose bound, or
    whose bound and index, cannot beat the best found: every later vertex
    has a bound no higher, and on an equal bound a higher index.  Where the
    digraph is semicomplete inside ``rest``, this vertex is a 2-serf there:
    a king of the reversed digraph.
    """
    best = (-1, 0)
    for w in ranking.order:
        if rest >> w & 1:
            if (ranking.degree[w] - floor, -w) < best:
                break
            best = max(best, ((inn[w] & rest).bit_count(), -w))
    return -best[1]


def dominate_two_serf(t: Digraph, v: int) -> int:
    """For a non-2-serf v of a semicomplete digraph, a 2-serf u with N-[v] <= N-(u).

    u is a 2-serf of the subdigraph induced by the rest, the vertices that
    cannot reach v within two arcs: its maximum in-degree vertex there,
    smallest index on ties.  A t that is not semicomplete is refused with
    PreconditionError.  That u is a 2-serf of the rest, and both
    postconditions, are re-verified.
    """
    pair = t.semicomplete_violation()
    if pair is not None:
        raise PreconditionError(f"not semicomplete: vertices {pair[0]} and {pair[1]} are non-adjacent")
    if not 0 <= v < t.n:
        raise ValueError(f"vertex {v} out of range for n={t.n}")
    inn, out, full = t.in_masks, t.out_masks, t.full_mask
    u = _dominate(inn, out, v, full, t.reach_in_two(v), _rank(inn, full))
    if not t.is_two_serf(u):
        raise VerificationError(f"candidate {u} is not a 2-serf of the full digraph")
    return u


def _dominate(
    inn: Sequence[int], out: Sequence[int], v: int, within: int, reach_v: int, ranking: _Ranking
) -> int:
    """dominate_two_serf in the subdigraph that mask ``within`` induces, read
    from a digraph's in-rows ``inn`` and out-rows ``out``, in its own
    indices, building no digraph.

    ``reach_v`` must be ``reach_within(inn, v, within)`` and ``ranking``
    must be ``_rank(inn, within)``, which a caller builds once for all its
    calls.  The digraph must be semicomplete inside ``within``: the caller
    knows it, and checks that u reaches all of ``within`` in two arcs.  That
    the rest is nonempty, that u is a 2-serf of the rest, and that N-[v]
    within ``within`` lies in N-(u) are re-verified here.  u is a 2-serf of
    the rest when every vertex of the rest outside N-[u] has an out-arc into
    N-(u): that side is read, since u's in-row usually holds nearly all of
    the rest.

    u is found by ``_max_in_degree`` with the floor 1 + d(v), d the
    in-degree inside ``within``.  v and each in-neighbour of v point at
    every w of the rest, or else w would reach v within two arcs; none of
    them is in the rest, so w has at most d(w) - 1 - d(v) in-neighbours
    there.  The floor only stops the scan early, so u is the full scan's.
    """
    rest = within & ~reach_v
    if not rest:
        raise PreconditionError(f"vertex {v} is already a 2-serf")
    u = _max_in_degree(inn, rest, ranking, 1 + ranking.degree[v])
    in_u = inn[u]
    near = in_u & rest
    if any(not out[w] & near for w in members(rest & ~(near | 1 << u))):
        raise VerificationError(f"max in-degree vertex {u} is not a 2-serf of the rest")
    if (inn[v] | 1 << v) & within & ~in_u:
        raise VerificationError(f"closed in-neighborhood of {v} not dominated by {u}")
    return u
