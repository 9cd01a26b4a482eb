"""Instance generators and the dominating-set-to-quasi-kernel reduction.

Two extremal split families whose smallest quasi-kernel approaches half
the vertices, two seeded random models used as test corpora, and the
parameterized-hardness gadget with both solution maps.  All generators
are deterministic for a given parameter tuple.
"""
from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Mapping, NamedTuple

from .digraph import Arc, Digraph, PreconditionError, SplitDigraph, VerificationError, members
from .exact import is_dominating
from .files import MAX_ARCS, MAX_VERTICES


class GenerationError(ValueError):
    """Requested generator options cannot be satisfied."""


def _check_caps(what: str, vertices: int, arcs: int) -> None:
    """Refuse, before building, what parse_instance would refuse to read back."""
    if arcs > MAX_ARCS:
        raise GenerationError(f"{what} needs {arcs} arcs, over the cap MAX_ARCS={MAX_ARCS}")
    if vertices > MAX_VERTICES:
        raise GenerationError(
            f"{what} needs {vertices} vertices, over the cap MAX_VERTICES={MAX_VERTICES}"
        )


def _check_arc_count(what: str, arcs: int) -> None:
    """Stop a random model once its running arc count passes the MAX_ARCS cap."""
    if arcs > MAX_ARCS:
        raise GenerationError(f"{what}: arc count over the cap MAX_ARCS={MAX_ARCS}")


def _check_probabilities(**named: float) -> None:
    for name, p in named.items():
        # also false for nan
        if not 0 <= p <= 1:
            raise ValueError(f"{name} must be a probability in [0, 1], got {p}")


# ---------------------------------------------------------------------------
# extremal families


def _family_sizes(n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError("family parameter n must be >= 1")
    kc = 2 * n + 1
    return kc, kc * n


def family_labels(n: int) -> tuple[str, ...]:
    """Vertex labels of the extremal families: k's first, then s's row-major."""
    kc, ic = _family_sizes(n)
    labels = [f"k{i}" for i in range(kc)]
    labels += [f"s{i}_{j}" for i in range(kc) for j in range(1, n + 1)]
    return tuple(labels)


def _dn_arcs(kc: int, n: int) -> list[Arc]:
    """gen_dn's arcs: k_i to the next n clique vertices, and s_ij to k_i."""
    arcs: list[Arc] = []
    for i in range(kc):
        for j in range(1, n + 1):
            arcs.append((i, (i + j) % kc))
            arcs.append((kc + i * n + (j - 1), i))
    return arcs


def gen_dn(n: int) -> SplitDigraph:
    """One-way circulant family on 2n^2+3n+1 vertices.

    Clique vertex k_i points to the next n clique vertices (indices modulo
    2n+1); each of the n independent vertices s_i1..s_in points only to
    k_i.  The smallest quasi-kernel has n^2+1 vertices, asymptotically
    half of the total.  Past MAX_VERTICES or MAX_ARCS it raises
    GenerationError before building.
    """
    kc, ic = _family_sizes(n)
    _check_caps(f"gen_dn({n})", kc + ic, 2 * ic)
    return SplitDigraph(Digraph(kc + ic, _dn_arcs(kc, n)), range(kc), range(kc, kc + ic))


def gen_dpn(n: int) -> SplitDigraph:
    """Strongly connected variant of gen_dn: k_0 additionally points to
    every independent vertex s_ij with i >= 1.  Not one-way."""
    kc, ic = _family_sizes(n)
    _check_caps(f"gen_dpn({n})", kc + ic, 2 * ic + ic - n)
    arcs = _dn_arcs(kc, n) + [(0, s) for s in range(kc + n, kc + ic)]
    return SplitDigraph(Digraph(kc + ic, arcs), range(kc), range(kc, kc + ic))


# ---------------------------------------------------------------------------
# random corpora


def _check_sink_free(nk: int, ni: int, one_way: bool = False, digons: bool = True) -> None:
    """Refuse, before drawing, the part sizes that leave a sink in every draw."""
    if nk == 0 and ni > 0:
        raise GenerationError("sink-free impossible: an isolated independent vertex is a sink")
    if nk == 1 and (one_way or ni == 0):
        raise GenerationError("sink-free impossible: the lone clique vertex has no legal out-arc")
    # an orientation of a complete split graph is sink-free only on a clique
    # cycle, or on a clique arc u -> v, an arc v -> s and one s -> u
    if not digons and (nk == 1 or nk == 2 and ni == 0):
        raise GenerationError("sink-free impossible: without digons every orientation has a sink")


def _orient_row(
    draw: Callable[[], float], out: list[int], inn: list[int], a: int, others: Iterable[int], p_digon: float
) -> int:
    """Orient the pairs (a, b), b in others in order, into the mask rows.

    Each pair takes two draws: a -> b if the first is below 1/2, else
    b -> a, and the reverse arc too if the second is below p_digon.
    Returns the number of arcs the rows did not hold before; each of them
    has a as an endpoint.
    """
    bit = 1 << a
    row_out, row_in = out[a], inn[a]
    before = row_out.bit_count() + row_in.bit_count()
    for b in others:
        if draw() < 0.5:
            row_out |= 1 << b
            inn[b] |= bit
            if draw() < p_digon:
                row_in |= 1 << b
                out[b] |= bit
        else:
            row_in |= 1 << b
            out[b] |= bit
            if draw() < p_digon:
                row_out |= 1 << b
                inn[b] |= bit
    out[a], inn[a] = row_out, row_in
    return row_out.bit_count() + row_in.bit_count() - before


def gen_random_split(
    seed: int,
    nk: int,
    ni: int,
    p_k_to_i: float = 0.25,
    p_i_to_k: float = 0.25,
    p_digon_k: float = 0.15,
    one_way: bool = False,
    sink_free: bool = False,
) -> SplitDigraph:
    """Seeded random split digraph on clique 0..nk-1 and independent part nk..nk+ni-1.

    With sink_free, the clique is seeded with a Hamiltonian cycle (nk >= 3),
    a digon (nk == 2) or a forced arc into the independent part (nk == 1,
    requires ni >= 1 and not one_way), and every independent vertex gets a
    forced out-arc into the clique.  one_way suppresses clique-to-independent
    arcs.  Each draw sets its bits of the mask rows at once.  The draws
    and their order are fixed, so a seed gives the same instance on every
    supported Python; instance digests in the tests pin it.  Raises
    GenerationError on unsatisfiable combinations, before any draw, and
    once the vertices or the running arc count pass MAX_VERTICES or
    MAX_ARCS; the arc count is checked after each row of draws.
    """
    if nk < 0 or ni < 0:
        raise ValueError("part sizes must be nonnegative")
    _check_probabilities(p_k_to_i=p_k_to_i, p_i_to_k=p_i_to_k, p_digon_k=p_digon_k)
    _check_caps("random split", nk + ni, 0)
    if sink_free:
        _check_sink_free(nk, ni, one_way)
    n = nk + ni
    rng = random.Random(seed)
    draw = rng.random
    indep = range(nk, n)
    out = [0] * n
    inn = [0] * n

    if sink_free and nk >= 3:
        for a in range(nk):
            b = (a + 1) % nk
            out[a] |= 1 << b
            inn[b] |= 1 << a
            if draw() < p_digon_k:
                out[b] |= 1 << a
                inn[a] |= 1 << b
    if sink_free and nk == 2:
        out[0] = inn[0] = 1 << 1
        out[1] = inn[1] = 1 << 0
    arcs = sum(row.bit_count() for row in out)
    # the pairs of that cycle or digon, (a, a + 1) and (0, nk - 1), are taken
    cycle = sink_free and nk >= 2
    for a in range(nk):
        arcs += _orient_row(draw, out, inn, a, range(a + 1 + cycle, nk - (cycle and a == 0)), p_digon_k)
        _check_arc_count("random split", arcs)
    if sink_free and nk == 1:
        out[0] |= 1 << nk
        inn[nk] |= 1
        arcs += 1
    if sink_free:
        for s in indep:
            k = rng.randrange(nk)
            out[s] |= 1 << k
            inn[k] |= 1 << s
        arcs += ni
    for k in range(nk):
        bit = 1 << k
        row_out, row_in = out[k], inn[k]
        before = row_out.bit_count() + row_in.bit_count()
        for s in indep:
            if not one_way and draw() < p_k_to_i:
                row_out |= 1 << s
                inn[s] |= bit
            if draw() < p_i_to_k:
                row_in |= 1 << s
                out[s] |= bit
        out[k], inn[k] = row_out, row_in
        arcs += row_out.bit_count() + row_in.bit_count() - before
        _check_arc_count("random split", arcs)

    sd = SplitDigraph(Digraph._from_masks(n, out, inn), range(nk), indep)
    flags = sd.classify()
    if one_way and not flags.one_way:
        raise GenerationError("construction failed to be one-way")
    if sink_free and not flags.sink_free:
        raise GenerationError("construction failed to be sink-free")
    return sd


def gen_random_complete_split(
    seed: int,
    nk: int,
    ni: int,
    p_digon: float = 0.15,
    sink_free: bool = False,
) -> SplitDigraph:
    """Seeded random biorientation of a complete split graph.

    Every clique pair and every clique-independent pair is adjacent; each
    adjacency gets a random orientation plus a digon with probability
    p_digon, drawn straight into the mask rows.  sink_free redraws the
    pairs that touch each sink, up to 100 passes, then raises
    GenerationError.  Part sizes that leave a sink in every draw are
    refused before any draw: independent vertices with no clique, a lone
    clique vertex, and, when p_digon is 0, one clique vertex or two with
    no independent vertex.  The draws and their order are fixed, so a
    seed gives the same instance on every supported Python; instance
    digests in the tests pin it.  A digraph over MAX_VERTICES or MAX_ARCS
    also raises GenerationError.
    """
    if nk < 0 or ni < 0:
        raise ValueError("part sizes must be nonnegative")
    _check_probabilities(p_digon=p_digon)
    n = nk + ni
    # every adjacent pair takes at least one arc
    _check_caps("random complete split", n, math.comb(nk, 2) + nk * ni)
    if sink_free:
        _check_sink_free(nk, ni, digons=p_digon > 0)
    draw = random.Random(seed).random
    clique, indep = range(nk), range(nk, n)
    out = [0] * n
    inn = [0] * n
    # the pairs in order: (a, b) for a < b in the clique, then (k, s)
    arcs = 0
    for a in clique:
        arcs += _orient_row(draw, out, inn, a, range(a + 1, nk), p_digon)
    for k in clique:
        arcs += _orient_row(draw, out, inn, k, indep, p_digon)
    _check_arc_count("random complete split", arcs)

    attempts = 0
    while sink_free and (sinks := [v for v in range(n) if not out[v]]):
        if attempts >= 100:
            raise GenerationError("resampling cap exceeded while enforcing sink-freeness")
        attempts += 1
        # sinks are pairwise nonadjacent, so each pair is redrawn once a
        # pass; a sink's pairs hold just the arcs of its in-row, cleared first
        for v in sinks:
            bit = 1 << v
            arcs -= inn[v].bit_count()
            for u in members(inn[v]):
                out[u] &= ~bit
            inn[v] = 0
            if v < nk:
                for a in range(v):
                    arcs += _orient_row(draw, out, inn, a, (v,), p_digon)
                arcs += _orient_row(draw, out, inn, v, range(v + 1, nk), p_digon)
                arcs += _orient_row(draw, out, inn, v, indep, p_digon)
            else:
                for k in clique:
                    arcs += _orient_row(draw, out, inn, k, (v,), p_digon)
        _check_arc_count("random complete split", arcs)
    return SplitDigraph(Digraph._from_masks(n, out, inn), clique, indep)


# ---------------------------------------------------------------------------
# hardness reduction


class ReductionArtifact(NamedTuple):
    """The dominating-set gadget: a split host digraph plus name maps.

    Host vertex layout, with n = source_n, m = source_m and b = 2q+3: the
    apex s at 0, s1_v at 1 + v for each source vertex v, s2_1..s2_b from
    1 + n, one k1 vertex per source arc (in ascending arc order) from
    1 + n + b, and k2_1..k2_b from 1 + n + b + m; the k1 and k2 vertices
    are the clique.  ``labels`` maps names like "s1_3" or "k1_0_2" to host
    indices; ``names`` is the inverse.
    """

    host: SplitDigraph
    source: Digraph
    q: int
    b: int
    source_n: int
    source_m: int
    labels: Mapping[str, int]
    names: tuple[str, ...]


def reduce_dds_to_qk(d: Digraph, q: int) -> ReductionArtifact:
    """Build the gadget host: d has a dominating set of size <= q iff the
    host has a quasi-kernel of size <= q+1.

    The host is an orientation of a split graph with n+m+2b+1 vertices and
    C(m+b,2)+3m+2b arcs, b = 2q+3.  The arc count is asserted, not
    trusted; the vertex count is enforced by SplitDigraph's partition
    check, since clique and independent part together must cover the host.
    The label table ``names`` (one entry per host vertex) is pinned by a
    test, not checked here.
    A host that parse_instance would refuse, over MAX_VERTICES or MAX_ARCS,
    raises GenerationError before anything is built.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    # a source refused by the caps is counted, never listed
    n, m = d.n, sum(row.bit_count() for row in d.out_masks)
    b = 2 * q + 3
    total = n + m + 2 * b + 1
    total_arcs = math.comb(m + b, 2) + 3 * m + 2 * b
    _check_caps("gadget", total, total_arcs)
    arc_order = d.arcs

    # the first host index of each part: s, s1, s2, k1 and k2
    s, s1, s2, k1, k2 = 0, 1, 1 + n, 1 + n + b, 1 + n + b + m

    arcs: list[Arc] = [(s, k1 + r) for r in range(m)]
    arcs += [(k2 + i, s) for i in range(b)]
    arcs += [(s1 + v, k1 + r) for r, (v, _) in enumerate(arc_order)]
    arcs += [(k1 + r, s1 + w) for r, (_, w) in enumerate(arc_order)]
    arcs += [(s2 + i, k2 + i) for i in range(b)]
    arcs += [(k1 + r, k1 + r2) for r in range(m) for r2 in range(r + 1, m)]
    arcs += [(k1 + r, k2 + i) for r in range(m) for i in range(b)]
    for i in range(b):
        for j in range(i + 1, b):
            arcs.append((k2 + i, k2 + j) if i % 2 == j % 2 else (k2 + j, k2 + i))

    names = ["s"]
    names += [f"s1_{v}" for v in range(n)]
    names += [f"s2_{i}" for i in range(1, b + 1)]
    names += [f"k1_{v}_{w}" for (v, w) in arc_order]
    names += [f"k2_{i}" for i in range(1, b + 1)]

    host = SplitDigraph(Digraph(total, arcs), range(k1, total), range(k1))

    if sum(row.bit_count() for row in host.graph.out_masks) != total_arcs:
        raise VerificationError("gadget arc count formula violated")
    if not host.classify().orientation:
        raise VerificationError("gadget is not an orientation")

    return ReductionArtifact(
        host=host,
        source=d,
        q=q,
        b=b,
        source_n=n,
        source_m=m,
        labels={name: idx for idx, name in enumerate(names)},
        names=tuple(names),
    )


def lift_domset(art: ReductionArtifact, dom: Iterable[int]) -> frozenset[int]:
    """Map a dominating set of the source (size <= q) to a verified
    quasi-kernel of the host of size |dom| + 1."""
    dom_f = frozenset(dom)
    if len(dom_f) > art.q:
        raise PreconditionError(f"dominating set larger than q={art.q}")
    if not is_dominating(art.source, dom_f):
        raise PreconditionError("not a dominating set of the source")
    q_set = frozenset({art.labels["s"]} | {art.labels[f"s1_{v}"] for v in dom_f})
    if not art.host.graph.is_quasi_kernel(q_set):
        raise VerificationError("lifted set is not a quasi-kernel of the host")
    return q_set


def project_qk(art: ReductionArtifact, qk: Iterable[int]) -> frozenset[int]:
    """Map a quasi-kernel of the host (size <= q+1) to a verified
    dominating set of the source of size <= q."""
    qk_f = frozenset(qk)
    if len(qk_f) > art.q + 1:
        raise PreconditionError(f"quasi-kernel larger than q+1={art.q + 1}")
    if not art.host.graph.is_quasi_kernel(qk_f):
        raise PreconditionError("not a quasi-kernel of the host")
    dom = frozenset(v for v in range(art.source_n) if art.labels[f"s1_{v}"] in qk_f)
    if len(dom) > art.q:
        raise VerificationError("projected set larger than q")
    if not is_dominating(art.source, dom):
        raise VerificationError("projected set is not dominating")
    return dom
