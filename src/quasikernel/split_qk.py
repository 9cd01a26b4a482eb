"""Small quasi-kernels in split digraphs.

Four guarantees, each carried by a verified certificate:

* ``one_way_qk``      — sink-free one-way input, size <= (n+3)/2 - sqrt(n)
                        (hence <= floor(n/2) for n >= 3);
* ``two_thirds_qk``   — sink-free split input, size <= 2n/3;
* ``complete_split_min_qk`` — complete split biorientation, exact minimum
                        (all sinks if any, otherwise size <= 2; proved
                        for orientations, checked exhaustively for
                        biorientations up to n = 5);
* ``peel_sinks``      — digraphs with sinks, reduced to a sink-free oracle,
                        size <= alpha * (n + |S| - |N-(S)|) for the sink set S;
                        the oracle takes the host digraph and a region mask
                        and returns a mask of the host inside that region.

The one-way and two-thirds constructions run on regions of the host
digraph: a vertex mask, read through the host's own mask rows, stands for
the subdigraph it induces.  So two-thirds hands its remainder to the
one-way construction, and sink peeling its residues to two-thirds, with
no induced copy, and no digraph is built: the clique's spanning tournament
is two lists of mask rows.  Every certificate is re-verified against the
original digraph, never against a reduced or induced copy.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Callable

from .construct import _dominate, _rank
from .digraph import (
    Digraph,
    PreconditionError,
    QkCertificate,
    SplitDigraph,
    VerificationError,
    lowest,
    members,
    or_rows,
)

# Oracle protocol for peel_sinks: given the host digraph and a region mask
# of it inducing a sink-free subdigraph, return a quasi-kernel of that
# subdigraph as a mask of the host inside the region.
SinkFreeOracle = Callable[[Digraph, int], int]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise VerificationError(message)


def _class_masks(d: Digraph, order: tuple[int, ...], indep: int, region: int) -> list[int]:
    """The one-way classes of D[region]: mask i holds the vertices of
    ``indep`` whose smallest out-neighbor in the region is order[i]."""
    pos = {k: idx for idx, k in enumerate(order)}
    classes = [0] * len(order)
    out = d.out_masks
    for s in members(indep):
        row = out[s] & region
        if not row:
            raise PreconditionError(f"independent vertex {s} is a sink")
        classes[pos[lowest(row)]] |= 1 << s
    return classes


def _one_way_size_cap(n: int) -> int:
    """Largest integer size with size <= (n+3)/2 - sqrt(n), exactly."""
    s = math.isqrt(4 * n)
    if s * s < 4 * n:
        s += 1
    return (n + 3 - s) // 2


def _spanning_tournament(d: Digraph, clique: int) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Spanning tournament of the clique mask, each digon kept lower->higher,
    as row lists: the clique ascending, and the tournament's out- and
    in-rows over positions in it.

    Each row is squeezed out of one host row: out-row i from u's out-row
    without the digons to lower vertices, in-row j from v's in-row without
    the digons from higher ones.  When the clique is one run of bits, the
    squeeze is a shift down by its lowest index; otherwise one C-level
    gather of the row's binary digits at the clique's offsets.  So every
    row is listed at clique width, not host width.
    """
    order = tuple(members(clique))
    low, width = (order[0] if order else 0), clique.bit_length()
    if width - low == len(order):

        def squeeze(row: int) -> int:
            return row >> low

    else:
        # bin(row | top) is "0b1" then width digits, bit p at index width + 2 - p
        top = 1 << width
        pick = itemgetter(*[width + 2 - v for v in reversed(order)])

        def squeeze(row: int) -> int:
            return int("".join(pick(bin(row | top))), 2)

    out, inn = d.out_masks, d.in_masks
    t_out = [squeeze(out[u] & clique & ~(inn[u] & ((1 << u) - 1))) for u in order]
    t_in = [squeeze(inn[v] & clique & ~(out[v] & ~((2 << v) - 1))) for v in order]
    return order, t_out, t_in


def one_way_qk(sd: SplitDigraph) -> QkCertificate:
    """Quasi-kernel of size <= (n+3)/2 - sqrt(n) in a sink-free one-way split digraph.

    Works on a spanning tournament of the clique, kept as row lists, not a
    Digraph.  A tournament sink is a 2-serf outright; otherwise one
    candidate is built per clique vertex (its class plus the classes of its
    tournament out-neighbors, minus its in-neighborhood, steered through a
    dominating 2-serf when the vertex itself is not one) and the smallest
    candidate wins.  The input is tested here for one-wayness and sinks,
    and ``SplitDigraph`` proved the clique semicomplete; every vertex's
    reach-in-two mask comes from one bulk row-OR (``or_rows``).  A second
    row-OR builds the class unions of only the 2-serfs that the candidates
    use; a steered vertex's union is needed only for its size, which is
    read from bit planes of the class sizes.
    """
    d = sd.graph
    d_in = d.in_masks
    if any(d_in[s] for s in members(sd.independent)):
        raise PreconditionError("not one-way: an independent vertex has an in-arc")
    if 0 in d.out_masks:
        raise PreconditionError("has a sink: use two-thirds via sink peeling")
    q = _one_way(d, sd.clique, d.full_mask)
    return d.certify(members(q), "one-way", bound=Fraction(_one_way_size_cap(d.n) if d.n else 0))


def _one_way(d: Digraph, clique: int, region: int) -> int:
    """one_way_qk's set for D[region], whose clique part is clique & region,
    read from d's own rows and returned as a mask of d.

    The set is the one one_way_qk finds on the induced subdigraph: that
    numbers the region in ascending order, as d's indices do, so every
    lowest-index choice and tie-break agrees.  The caller proves D[region]
    one-way, and the clique semicomplete: one_way_qk, on a SplitDigraph, and
    ``_two_thirds`` for its remainder.  A sink is the tournament's, which is
    returned, or independent, which ``_class_masks`` refuses.  The per-vertex
    size inequality, the one-way bound and that the set is a quasi-kernel
    of D[region] are checked on the region.

    A clique vertex that is not a 2-serf of the tournament is steered
    through ``_dominate``, which finds its 2-serf by scanning the
    tournament's ranking (``_rank``, its positions by in-degree, highest
    first): built once, at the first such vertex, and only if there is one.
    Each position's 2-serf is found first, and then the classes are ORed for
    the distinct 2-serfs alone.  A steered vertex's own union enters only
    its size inequality, so it is sized, not built: the classes are
    disjoint, so the union of the classes of a position set S has
    sum_b 2^b |S & plane_b| members, plane_b holding the positions whose
    class size has bit b set.  The candidates, and so the choice among
    them, are the ones a union per position gives.
    """
    if not region:
        return 0
    order, t_out, t_in = _spanning_tournament(d, clique & region)
    if 0 in t_out:
        q = 1 << order[t_out.index(0)]
        _require(d._quasi_kernel_mask(q, region), "one-way set is not a quasi-kernel of its region")
        return q
    classes = _class_masks(d, order, region & ~clique, region)
    full = (1 << len(order)) - 1
    # reach[i]: the tournament vertices that reach i within two arcs
    reach = [
        row | second | 1 << i for i, (row, second) in enumerate(zip(t_in, or_rows(t_in, t_in)))
    ]
    # serf[i]: the 2-serf whose candidate stands for clique position i
    serf = list(range(len(order)))
    ranking = None
    for i, row in enumerate(reach):
        if row != full:
            ranking = ranking or _rank(t_in, full)
            u = serf[i] = _dominate(t_in, t_out, i, full, row, ranking)
            if reach[u] != full:
                raise VerificationError(f"candidate {u} is not a 2-serf of the tournament")
    # the used 2-serfs in order of first use, each with the union of the
    # classes of its tournament out-neighbors, which are disjoint
    used = list(dict.fromkeys(serf))
    unions = dict(zip(used, or_rows(classes, [t_out[u] for u in used])))
    candidates = {u: (unions[u] | 1 << order[u]) & ~d.in_masks[order[u]] for u in used}
    sizes = {u: q.bit_count() for u, q in candidates.items()}
    planes: list[int] = []
    if ranking is not None:
        # plane b, the positions whose class size has bit b set, from its
        # binary digits, the last position's first
        counts = [c.bit_count() for c in classes]
        planes = [
            int(bytes([48 | c >> b & 1 for c in reversed(counts)]), 2)
            for b in range(max(counts).bit_length())
        ]
    for i, u in enumerate(serf):
        if i == u:
            union = unions[u].bit_count()
        else:
            row = t_out[i]
            union = sum((row & plane).bit_count() << b for b, plane in enumerate(planes))
        if sizes[u] > union + 1:
            raise VerificationError(f"per-vertex size inequality violated at clique index {i}")
    # used runs in order of first use, so this is the candidate that a min
    # over the positions picks: the lowest position's of the fewest members
    q = candidates[min(used, key=sizes.__getitem__)]
    n, size = region.bit_count(), q.bit_count()
    _require(size <= _one_way_size_cap(n), f"one-way bound violated: size {size} for n={n}")
    _require(d._quasi_kernel_mask(q, region), "one-way set is not a quasi-kernel of its region")
    return q


def two_thirds_qk(sd: SplitDigraph) -> QkCertificate:
    """Quasi-kernel of size <= 2n/3 in any sink-free split digraph.

    A greedy maximal matching of clique-to-independent arcs splits the
    vertices into a matched region A and a remainder B with no arcs from
    B's clique side into the independent part; the better of two
    candidates built around the matching and around B wins.  The one-way
    construction runs on B, and the 2-serf step on the clique, as regions
    of the digraph's own masks: nothing is copied.
    """
    d = sd.graph
    if 0 in d.out_masks:
        raise PreconditionError("has a sink: use two-thirds via sink peeling")
    q = _two_thirds(d, sd.clique, d.full_mask)
    return d.certify(members(q), "two-thirds", bound=Fraction(2 * d.n, 3))


def _two_thirds(d: Digraph, clique: int, region: int) -> int:
    """two_thirds_qk's set for D[region], whose clique part is clique &
    region, read from d's own rows and returned as a mask of d.

    As with ``_one_way``, the set is the one two_thirds_qk finds on the
    induced subdigraph.  D[region] has no sink: two_thirds_qk tests so, and
    ``peel_sinks`` peels until none is left.  The 2/3 bound and that the
    set is a quasi-kernel of D[region] are checked on the region.
    """
    n = region.bit_count()
    out, inn = d.out_masks, d.in_masks
    clique &= region
    indep = region & ~clique

    # greedy matching over clique-to-independent arcs in ascending order
    k_m = i_m = 0
    for u in members(clique):
        free = out[u] & indep & ~i_m
        if free:
            k_m |= 1 << u
            i_m |= 1 << lowest(free)
    _require(
        not any(out[u] & indep & ~i_m for u in members(clique & ~k_m)),
        "matching not inclusion-maximal",
    )

    n_im = d.in_set_mask(i_m) & region
    nii = d.in_set_mask(n_im) & indep & ~i_m
    region_b = region & ~(i_m | n_im | nii)
    if region_b.bit_count() <= 1:
        _require(3 * i_m.bit_count() <= 2 * n, "two-thirds bound violated")
        _require(d._quasi_kernel_mask(i_m, region), "two-thirds set is not a quasi-kernel of its region")
        return i_m

    bk = region_b & clique
    bi = region_b & indep
    _require(
        not any(out[u] & indep for u in members(bk)),
        "arcs from the remainder clique side into the independent part",
    )

    # candidate around B: the one-way construction on D[B], whose only
    # possible sink, of its tournament, is the singleton _one_way returns
    q1 = _one_way(d, clique, region_b)
    cand_q = (q1 | i_m | nii) & ~d.in_set_mask(q1)

    # candidate around the matching
    v = next((u for u in members(bk) if not out[u] & n_im), None)
    if v is None:
        cand_qp = i_m | bi
    else:
        _require(
            not n_im & ~(inn[v] & ~out[v]),
            "matched in-neighborhood not dominated by the chosen vertex",
        )
        reach_v = d.reach_in_two(v, clique)
        if reach_v != clique:
            v = _dominate(inn, out, v, clique, reach_v, _rank(inn, clique))
            _require(d.reach_in_two(v, clique) == clique, f"{v} is not a 2-serf of the clique")
            _require(bk >> v & 1 == 1, "dominating 2-serf left the remainder clique side")
        cand_qp = 1 << v | (indep & ~(nii | inn[v]))

    chosen = cand_q if cand_q.bit_count() <= cand_qp.bit_count() else cand_qp
    _require(3 * chosen.bit_count() <= 2 * n, "two-thirds bound violated")
    _require(d._quasi_kernel_mask(chosen, region), "two-thirds set is not a quasi-kernel of its region")
    return chosen


def complete_split_min_qk(sd: SplitDigraph) -> QkCertificate:
    """Minimum quasi-kernel of a complete split biorientation.

    With sinks, the sink set is the unique minimum.  Without, a scan finds
    a 2-serf if one exists; otherwise the pair {x, t} is a minimum of size
    two, where x is a vertex of maximum clique in-degree and t the lowest
    other independent vertex that x reaches through a clique vertex not
    entering x.  The paper proves size <= 2 for orientations; that this
    pair attains it, for biorientations (digons allowed) too, is checked
    exhaustively up to n = 5 in the test suite.  An input without such a
    t raises VerificationError, and certify still tests the pair.
    """
    if not sd.classify().complete_split:
        raise PreconditionError("not a complete split biorientation")
    d = sd.graph
    n = d.n
    if n == 0:
        return d.certify((), "complete-split", bound=Fraction(0))
    sinks = d.sinks()
    if sinks:
        return d.certify(members(sinks), "complete-split", bound=Fraction(sinks.bit_count()))
    for v in range(n):
        if d.is_two_serf(v):
            return d.certify((v,), "complete-split", bound=Fraction(2))

    out, inn = d.out_masks, d.in_masks
    clique = sd.clique
    x = max(range(n), key=lambda v: (inn[v] & clique).bit_count())
    _require(sd.independent >> x & 1 == 1, "maximum clique in-degree vertex not independent")
    for t in members(sd.independent & ~(1 << x)):
        if out[x] & inn[t] & ~inn[x]:
            return d.certify((x, t), "complete-split", bound=Fraction(2))
    raise VerificationError("no partner t for the maximum clique in-degree vertex")


def peel_sinks(d: Digraph, oracle: SinkFreeOracle, alpha: Fraction) -> QkCertificate:
    """Quasi-kernel of size <= alpha*(n + |S| - |N-(S)|), S the sink set of d.

    Repeatedly keeps the current sink layer and removes it from the
    residue together with its in-neighbors.  A new layer that outnumbers
    its in-neighbors in the residue is removed without being kept.  The
    kept layers join the oracle's set for the final, sink-free residue,
    which the oracle gets as a region mask of d and answers with a mask
    of d inside it.  The final set is certified against d itself.
    """
    alpha = Fraction(alpha)
    if alpha < Fraction(1, 2):
        raise PreconditionError("alpha must be at least 1/2")
    residue = d.full_mask
    sinks = layer = d.sinks()
    acc = 0
    while layer:
        acc |= layer
        residue &= ~(layer | d.in_set_mask(layer))
        layer = d.sinks(residue)
        if layer.bit_count() > (d.in_set_mask(layer) & residue).bit_count():
            residue &= ~layer
            layer = d.sinks(residue)
    if residue:
        q = oracle(d, residue)
        _require(not q & ~residue, "oracle returned vertices outside its region")
        acc |= q
    into = d.in_set_mask(sinks)
    bound = alpha * (d.n + sinks.bit_count() - into.bit_count())
    cert = d.certify(members(acc), "peel", bound=bound)
    _require(not sinks & ~acc, "sink set not contained in the result")
    _require(not acc & into, "result contains an in-neighbor of the sink set")
    return cert


def peel_split(sd: SplitDigraph) -> QkCertificate:
    """peel_sinks over two_thirds_qk, so alpha = 2/3: each sink-free residue
    is solved as a region of the host's rows, with sd's clique mask."""
    return peel_sinks(
        sd.graph, lambda host, region: _two_thirds(host, sd.clique, region), Fraction(2, 3)
    )
