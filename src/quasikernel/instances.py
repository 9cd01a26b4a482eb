"""Instance generators and the dominating-set-to-quasi-kernel reduction.

Two extremal split families whose smallest quasi-kernel approaches half
the vertices, two seeded random models used as test corpora, and the
parameterized-hardness gadget with both solution maps.  All generators
are deterministic for a given parameter tuple.
"""
from __future__ import annotations

import math
import random
from typing import Collection, Iterable, Mapping, NamedTuple

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


def _check_arc_set(what: str, arcs: Collection[Arc]) -> None:
    """Stop a random model once its arc set passes the MAX_ARCS cap."""
    if len(arcs) > MAX_ARCS:
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


def _orient_pair(rng: random.Random, a: int, b: int, p_digon: float) -> list[Arc]:
    arcs = [(a, b)] if rng.random() < 0.5 else [(b, a)]
    if rng.random() < p_digon:
        arcs.append((arcs[0][1], arcs[0][0]))
    return arcs


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
    arcs.  Raises GenerationError on unsatisfiable combinations, and once
    the vertices or the arcs pass MAX_VERTICES or MAX_ARCS.
    """
    if nk < 0 or ni < 0:
        raise ValueError("part sizes must be nonnegative")
    _check_probabilities(p_k_to_i=p_k_to_i, p_i_to_k=p_i_to_k, p_digon_k=p_digon_k)
    _check_caps("random split", nk + ni, 0)
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
    p_digon.  sink_free resamples the incident orientations of offending
    vertices, up to 100 passes, then raises GenerationError.  So does a
    digraph over MAX_VERTICES or MAX_ARCS.
    """
    if nk < 0 or ni < 0:
        raise ValueError("part sizes must be nonnegative")
    _check_probabilities(p_digon=p_digon)
    n = nk + ni
    # every adjacent pair takes at least one arc
    _check_caps("random complete split", n, math.comb(nk, 2) + nk * ni)
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


# ---------------------------------------------------------------------------
# hardness reduction


class ReductionArtifact(NamedTuple):
    """The dominating-set gadget: a split host digraph plus name maps.

    Host vertex layout (all offsets derived from source_n, source_m and
    b = 2q+3): the apex s, then one s1 vertex per source vertex, b s2
    vertices, one k1 vertex per source arc (in ascending arc order), and b k2
    vertices.  ``labels`` maps names like "s1_3" or "k1_0_2" to host
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
    n, m = d.n, len(d.arcs)
    b = 2 * q + 3
    total = n + m + 2 * b + 1
    total_arcs = math.comb(m + b, 2) + 3 * m + 2 * b
    _check_caps("gadget", total, total_arcs)
    arc_order = tuple(d.arcs)

    s = 0
    s1 = {v: 1 + v for v in range(n)}
    s2 = {i: 1 + n + (i - 1) for i in range(1, b + 1)}
    k1 = {a: 1 + n + b + r for r, a in enumerate(arc_order)}
    k2 = {i: 1 + n + b + m + (i - 1) for i in range(1, b + 1)}

    arcs: list[Arc] = []
    arcs += [(s, k1[a]) for a in arc_order]
    arcs += [(k2[i], s) for i in range(1, b + 1)]
    for (v, w) in arc_order:
        arcs.append((s1[v], k1[(v, w)]))
        arcs.append((k1[(v, w)], s1[w]))
    arcs += [(s2[i], k2[i]) for i in range(1, b + 1)]
    for r, a in enumerate(arc_order):
        for a2 in arc_order[r + 1 :]:
            arcs.append((k1[a], k1[a2]))
    arcs += [(k1[a], k2[i]) for a in arc_order for i in range(1, b + 1)]
    for i in range(1, b + 1):
        for j in range(i + 1, b + 1):
            if i % 2 == j % 2:
                arcs.append((k2[i], k2[j]))
            else:
                arcs.append((k2[j], k2[i]))

    names = ["s"]
    names += [f"s1_{v}" for v in range(n)]
    names += [f"s2_{i}" for i in range(1, b + 1)]
    names += [f"k1_{v}_{w}" for (v, w) in arc_order]
    names += [f"k2_{i}" for i in range(1, b + 1)]

    clique = sorted(k1.values()) + sorted(k2.values())
    indep = [s] + sorted(s1.values()) + sorted(s2.values())
    host = SplitDigraph(Digraph(total, arcs), clique, indep)

    if len(host.graph.arcs) != total_arcs:
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
