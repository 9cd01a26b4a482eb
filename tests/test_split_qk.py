import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    near_transitive_ladder,
    one_way_reference,
    peel_reference,
    relabel_split,
    two_thirds_reference,
)
from quasikernel import (
    Digraph,
    NotQuasiKernelError,
    PreconditionError,
    SplitDigraph,
    VerificationError,
    complete_split_min_qk,
    gen_dn,
    gen_dpn,
    gen_random_complete_split,
    gen_random_split,
    min_quasi_kernel,
    one_way_qk,
    peel_sinks,
    peel_split,
    two_thirds_qk,
)
from quasikernel import construct, digraph, split_qk
from quasikernel.digraph import members


def one_way_bound_holds(n: int, size: int) -> bool:
    t = n + 3 - 2 * size
    return t >= 0 and t * t >= 4 * n


# -- one_way_qk -------------------------------------------------------------


def count_calls(monkeypatch, cls, *names) -> dict[str, list]:
    """Wrap the named methods of cls to record the arguments of each call."""
    calls: dict[str, list] = {}
    for name in names:
        original = getattr(cls, name)
        calls[name] = []

        def wrapper(*args, _original=original, _seen=calls[name], **kwargs):
            _seen.append(args[1:])
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_one_way_builds_no_digraph(monkeypatch):
    # all clique vertices but the last three are no 2-serfs of the
    # tournament; it is kept as row lists, so no Digraph is built, the clique
    # is not checked again after SplitDigraph, and none of those vertices
    # costs more than one reach_in_two scan.  Each of their dominations
    # confirms its 2-serf from the few vertices of the rest that its in-row
    # misses, so none runs a reach_within scan over the rest
    sd = near_transitive_ladder(60)
    calls = count_calls(
        monkeypatch,
        Digraph,
        "__init__",
        "_from_masks",
        "induced",
        "semicomplete_violation",
        "reach_in_two",
    )
    scans = []

    def scan(*args, _original=digraph.reach_within):
        scans.append(args)
        return _original(*args)

    # count reach_within in every module the one-way path could call it from
    for module in (digraph, construct, split_qk):
        monkeypatch.setattr(module, "reach_within", scan, raising=False)
    cert = one_way_qk(sd)
    assert one_way_bound_holds(sd.graph.n, cert.size)
    assert not calls["induced"]
    assert not calls["__init__"]
    assert not calls["_from_masks"]
    assert not calls["semicomplete_violation"]
    assert len(calls["reach_in_two"]) <= 60
    assert not scans


def random_clique_split(n: int, clique: list[int], rng: random.Random) -> SplitDigraph:
    """Split digraph whose clique pairs are each an arc either way or a
    digon, and whose other vertices each have one arc into the clique."""
    arcs = []
    for i, j in combinations(clique, 2):
        arcs += [[(i, j)], [(j, i)], [(i, j), (j, i)]][rng.randrange(3)]
    independent = sorted(set(range(n)) - set(clique))
    if clique:
        arcs += [(v, rng.choice(clique)) for v in independent]
    return SplitDigraph(Digraph(n, arcs), clique, independent)


@pytest.mark.parametrize(
    "n, clique",
    [
        (340, list(range(300, 340))),
        (80, list(range(0, 80, 2))),
        (9, [3, 7]),
        (9, [4]),
        (5, []),
    ],
    ids=["above", "interleaved", "gapped-pair", "single", "empty"],
)
def test_spanning_tournament_matches_the_induced_copy(n, clique):
    # rows of a clique that is one run of bits, such as one above the
    # independent part, are shifted down by its lowest index; those of any
    # other clique (the span of the even vertices is not their count) are
    # gathered digit by digit.  Either way they are the rows of the
    # clique's induced copy, each digon kept lower->higher, and where the
    # split is sink-free one_way_qk answers as its reference does
    sd = random_clique_split(n, clique, random.Random(len(clique)))
    order, t_out, t_in = split_qk._spanning_tournament(sd.graph, sd.clique)
    sub, old_of_new, _ = sd.graph.induced(clique)
    arcs = set(sub.arcs)
    tournament = Digraph(len(clique), [(t, h) for t, h in arcs if t < h or (h, t) not in arcs])
    assert order == old_of_new
    assert (t_out, t_in) == (list(tournament.out_masks), list(tournament.in_masks))
    if not sd.graph.sinks():
        assert one_way_qk(sd).vertices == one_way_reference(sd)


def test_two_thirds_copies_only_the_remainder(monkeypatch):
    # a one-way ladder has no clique-to-independent arc, so the remainder B
    # is the whole digraph, and clique vertex 0, a source, is no 2-serf of
    # the clique: both the one-way construction on B and the domination in
    # the clique run, and nothing is copied
    sd = near_transitive_ladder(60)
    # with the arc 0 -> 119 the matching takes it, and B is all but 0, 119
    # and 60 (whose arc into 0 reaches 119 in two): the one-way construction
    # runs on B as a region, not on a copy
    matched = SplitDigraph(Digraph(120, [*sd.graph.arcs, (0, 119)]), range(60), range(60, 120))
    # the ladder's clique with sinks hung below: 0 and 1 each get an arc
    # into a new independent vertex, so peeling hands a residue to two-thirds
    sinks = SplitDigraph(
        Digraph(122, [*sd.graph.arcs, (0, 120), (1, 121)]), range(60), range(60, 122)
    )
    expected = [two_thirds_reference(inst) for inst in (sd, matched)]
    expected_peel = peel_reference(sinks)
    calls = count_calls(
        monkeypatch,
        Digraph,
        "__init__",
        "induced",
        "semicomplete_violation",
        "reach_in_two",
        "sinks",
    )
    splits = count_calls(monkeypatch, SplitDigraph, "__init__")
    cert = two_thirds_qk(sd)
    assert 3 * cert.size <= 2 * sd.graph.n
    assert cert.vertices == expected[0]
    # SplitDigraph proved the clique semicomplete, and two_thirds_qk tests
    # its input for sinks on the rows: neither the one-way construction on
    # B nor the domination in the clique tests either again
    assert not calls["semicomplete_violation"]
    assert not calls["sinks"]
    assert len(calls["reach_in_two"]) <= 60 + 2
    assert two_thirds_qk(matched).vertices == expected[1]
    peeled = peel_split(sinks)
    assert peeled.vertices == expected_peel
    assert {120, 121} <= peeled.vertices
    for seen in (calls["__init__"], calls["induced"], *splits.values()):
        assert not seen


def test_one_way_dn1():
    cert = one_way_qk(gen_dn(1))
    cert.check(gen_dn(1).graph)
    assert cert.size <= 2
    assert cert.bound == Fraction(2)


def test_one_way_dn2():
    cert = one_way_qk(gen_dn(2))
    cert.check(gen_dn(2).graph)
    assert cert.size <= 5  # floor((15+3)/2 - sqrt(15))


def test_one_way_tournament_sink_shortcut():
    # clique digon: the reduced tournament has a sink (k1) although the
    # digraph itself is sink-free, so the shortcut returns that singleton
    sd = SplitDigraph(Digraph(3, [(0, 1), (1, 0), (2, 0)]), [0, 1], [2])
    cert = one_way_qk(sd)
    assert cert.sorted_vertices() == (1,)
    # a region whose one sink is clique vertex 2, as a two-thirds remainder
    # may have: its arc into 4 lies outside the region, and the shortcut
    # returns it
    sd = SplitDigraph(
        Digraph(5, [(0, 1), (0, 2), (1, 2), (3, 0), (2, 4), (4, 0)]), [0, 1, 2], [3, 4]
    )
    region = 0b01111
    assert sd.graph.sinks(region) == 1 << 2
    assert split_qk._one_way(sd.graph, sd.clique, region) == 1 << 2


def test_one_way_refuses_a_shortcut_set_that_is_no_quasi_kernel(monkeypatch):
    # a tournament whose rows misread source 0 as its sink: the shortcut's
    # singleton is checked against the region, and {0} is refused
    def misread(d, clique, _original=split_qk._spanning_tournament):
        order, t_out, t_in = _original(d, clique)
        return order, [0, *t_out[1:]], t_in

    monkeypatch.setattr(split_qk, "_spanning_tournament", misread)
    with pytest.raises(VerificationError, match="^one-way set is not a quasi-kernel of its region$"):
        one_way_qk(near_transitive_ladder(10))


def test_one_way_refuses_a_region_with_an_independent_sink():
    # the clique is a 3-cycle, so its tournament has no sink, and 3 has no
    # out-arc: the class step refuses it, as it would a two-thirds remainder
    # with an independent sink
    sd = SplitDigraph(Digraph(4, [(0, 1), (1, 2), (2, 0)]), [0, 1, 2], [3])
    with pytest.raises(PreconditionError, match="^independent vertex 3 is a sink$"):
        split_qk._one_way(sd.graph, sd.clique, sd.graph.full_mask)
    with pytest.raises(PreconditionError, match="^has a sink: use two-thirds via sink peeling$"):
        one_way_qk(sd)


def test_one_way_single_clique_vertex_instance_has_a_sink():
    # K={k}, I={s}, arc s->k: k is a sink of the digraph, so the one-way
    # precondition rejects it; sink peeling yields {k} instead
    sd = SplitDigraph(Digraph(2, [(1, 0)]), [0], [1])
    with pytest.raises(PreconditionError, match="^has a sink: use two-thirds via sink peeling$"):
        one_way_qk(sd)
    assert peel_split(sd).sorted_vertices() == (0,)


def test_one_way_rejects_bad_inputs():
    sd = gen_dn(1)
    not_one_way = SplitDigraph(
        Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)]), [0, 1], [2]
    )
    with pytest.raises(PreconditionError, match="^not one-way: an independent vertex has an in-arc$"):
        one_way_qk(not_one_way)
    sink_sd = SplitDigraph(Digraph(2, [(0, 1)]), [0, 1], [])
    with pytest.raises(PreconditionError, match="^has a sink: use two-thirds via sink peeling$"):
        one_way_qk(sink_sd)
    # 1 is a sink and 2 has an in-arc: the one-way test comes first
    both = SplitDigraph(Digraph(3, [(0, 1), (0, 2), (2, 0)]), [0, 1], [2])
    with pytest.raises(PreconditionError, match="^not one-way: an independent vertex has an in-arc$"):
        one_way_qk(both)
    one_way_qk(sd).check(sd.graph)


def test_one_way_size_cap_is_the_largest_size_within_the_bound():
    for n in range(5_001):
        cap = split_qk._one_way_size_cap(n)
        assert one_way_bound_holds(n, cap) and not one_way_bound_holds(n, cap + 1)
    # (n+3)/2 - sqrt(n) <= n/2 once sqrt(n) >= 3/2
    assert all(split_qk._one_way_size_cap(n) <= n // 2 for n in range(3, 100_001))


def test_one_way_refuses_a_set_over_its_cap(monkeypatch):
    monkeypatch.setattr(split_qk, "_one_way_size_cap", lambda n: 2)
    with pytest.raises(VerificationError, match="one-way bound violated: size 5 for n=15"):
        one_way_qk(gen_dn(2))


def test_one_way_empty():
    cert = one_way_qk(SplitDigraph(Digraph(0), [], []))
    assert cert.size == 0


def test_one_way_campaign_bound():
    for seed in range(250):
        rng = random.Random(seed * 11 + 1)
        sd = gen_random_split(
            seed,
            rng.randint(2, 10),
            rng.randint(1, 20),
            p_i_to_k=rng.uniform(0.05, 0.6),
            p_digon_k=rng.uniform(0, 0.5),
            one_way=True,
            sink_free=True,
        )
        cert = one_way_qk(sd)
        cert.check(sd.graph)
        n = sd.graph.n
        assert one_way_bound_holds(n, cert.size)
        if n >= 3:
            assert cert.size <= n // 2


def steered_one_way_split(rng: random.Random) -> SplitDigraph:
    """A sink-free one-way split digraph whose tournament is near-transitive,
    so most clique vertices are steered to a 2-serf: the clique i -> j for
    i < j but for a few reversed pairs among the top six, one of them into
    the top vertex, and a few digons.  Each clique vertex gets 1-5
    independent vertices with an arc into it, some with a second arc into
    another clique vertex.  The vertices are relabelled at random, which
    makes the clique no vertex prefix and mixes the class sizes."""
    k = rng.randint(4, 24)
    top = range(max(k - 6, 0), k - 1)
    # k - 2 keeps its one arc, into k - 1
    reversed_pairs = {(rng.choice(top[:-1]), k - 1)}
    reversed_pairs |= {tuple(sorted(rng.sample(top, 2))) for _ in range(rng.randint(0, 2))}
    arcs = []
    for i, j in combinations(range(k), 2):
        arcs.append((j, i) if (i, j) in reversed_pairs else (i, j))
        if rng.random() < 0.05:
            arcs.append(arcs[-1][::-1])
    n = k
    for c in range(k):
        for _ in range(rng.randint(1, 5)):
            arcs.append((n, c))
            if rng.random() < 0.3:
                arcs.append((n, rng.randrange(k)))
            n += 1
    perm = list(range(n))
    while perm[:k] == list(range(k)):
        rng.shuffle(perm)
    sd = SplitDigraph(Digraph(n, arcs), range(k), range(k, n))
    return relabel_split(sd, perm)


def test_one_way_sizes_steered_vertices_by_their_class_planes(monkeypatch):
    # where most clique vertices are steered, their unions are sized from
    # bit planes of the class sizes, not built: the sets are the arc-list
    # reference's, on classes of up to 5 and more members, so at least two
    # planes, as the benchmark's ladders, whose classes are single, never are
    steered = []

    def dominate(*args, _original=split_qk._dominate):
        steered.append(args[2])
        return _original(*args)

    monkeypatch.setattr(split_qk, "_dominate", dominate)
    clique_vertices = largest_class = 0
    for seed in range(60):
        sd = steered_one_way_split(random.Random(seed))
        assert sd.clique != (1 << sd.clique.bit_count()) - 1
        order = tuple(members(sd.clique))
        classes = split_qk._class_masks(sd.graph, order, sd.independent, sd.graph.full_mask)
        largest_class = max(largest_class, *map(int.bit_count, classes))
        clique_vertices += len(order)
        assert one_way_qk(sd).vertices == one_way_reference(sd)
    assert largest_class >= 5
    assert len(steered) >= clique_vertices // 2


def test_one_way_ors_the_classes_of_only_the_used_two_serfs(monkeypatch):
    # on the ladder every clique vertex but the top three is steered to
    # position 97; one row-OR builds the reach masks of all 100 vertices,
    # the other the class unions of the three 2-serfs used, 97, 98 and 99
    selectors_per_call = []

    def count(rows, selectors, _original=split_qk.or_rows):
        selectors = list(selectors)
        selectors_per_call.append(len(selectors))
        return _original(rows, selectors)

    monkeypatch.setattr(split_qk, "or_rows", count)
    sd = near_transitive_ladder(100)
    assert one_way_qk(sd).vertices == one_way_reference(sd)
    assert sorted(selectors_per_call) == [3, 100]


def test_one_way_refuses_a_steer_to_a_non_two_serf(monkeypatch):
    # position 0 of the ladder is no 2-serf; steered to itself, it is refused
    monkeypatch.setattr(split_qk, "_dominate", lambda inn, out, v, *args: v)
    with pytest.raises(VerificationError, match="^candidate 0 is not a 2-serf of the tournament$"):
        one_way_qk(near_transitive_ladder(10))


@pytest.mark.parametrize("extra, refused", [(2, False), (3, True)])
def test_one_way_refuses_a_union_over_the_size_inequality(monkeypatch, extra, refused):
    # A steered vertex i's 2-serf u dominates it, so u's out-neighbours are
    # among i's and the planes' size of i's classes bounds u's union: no
    # class mask, however inflated, breaks the inequality.  A union that the
    # row-OR gets wrong can.  On ladder(10) positions 0-6 are steered to 7,
    # whose candidate {7, 18} is within the inequality of position 6, whose
    # classes are those of 7, 8 and 9, one member each: |{7, 18}| + extra <=
    # 3 + 1 holds for 2 extra members and fails for 3.  With 2, position 7
    # itself is sized by its union's mask, which holds them, and 8's
    # candidate, of two members, wins.
    sd = near_transitive_ladder(10)
    assert one_way_qk(sd).sorted_vertices() == (7, 18)

    def inflate(rows, selectors, _original=split_qk.or_rows):
        unions = _original(rows, selectors)
        if rows is not classes:
            return unions
        return [unions[0] | (1 << 10 + extra) - (1 << 10), *unions[1:]]

    def record(*args, _original=split_qk._class_masks):
        classes[:] = _original(*args)
        return classes

    classes: list[int] = []
    monkeypatch.setattr(split_qk, "_class_masks", record)
    monkeypatch.setattr(split_qk, "or_rows", inflate)
    if refused:
        with pytest.raises(
            VerificationError, match="^per-vertex size inequality violated at clique index 6$"
        ):
            one_way_qk(sd)
    else:
        assert one_way_qk(sd).sorted_vertices() == (8, 19)


# -- two_thirds_qk ------------------------------------------------------------


def test_two_thirds_semicomplete_triangle():
    sd = SplitDigraph(Digraph(3, [(0, 1), (1, 2), (2, 0)]), [0, 1, 2], [])
    cert = two_thirds_qk(sd)
    assert cert.size == 1


def test_two_thirds_matching_covers_everything():
    # K={a}, I={b,c}, arcs (b,a),(c,a),(a,b): A = V after the matching step
    sd = SplitDigraph(Digraph(3, [(1, 0), (2, 0), (0, 1)]), [0], [1, 2])
    cert = two_thirds_qk(sd)
    assert cert.sorted_vertices() == (1,)


def test_two_thirds_dn2():
    cert = two_thirds_qk(gen_dn(2))
    cert.check(gen_dn(2).graph)
    assert 3 * cert.size <= 2 * 15


def test_two_thirds_rejects_sinks():
    with pytest.raises(PreconditionError, match="^has a sink: use two-thirds via sink peeling$"):
        two_thirds_qk(SplitDigraph(Digraph(2, [(0, 1)]), [0, 1], []))


def test_two_thirds_refuses_a_remainder_clique_side_with_an_arc_into_i(monkeypatch):
    # matched clique vertex 0 has the arc 0 -> 3; with in_set_mask blind, the
    # matched in-neighbourhood is empty, so 0 stays in the remainder's clique
    # side and the remainder would not be one-way
    sd = SplitDigraph(
        Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)]), [0, 1, 2], [3]
    )
    monkeypatch.setattr(Digraph, "in_set_mask", lambda self, s: 0)
    with pytest.raises(
        VerificationError, match="^arcs from the remainder clique side into the independent part$"
    ):
        two_thirds_qk(sd)


def test_two_thirds_campaign():
    for seed in range(250):
        rng = random.Random(seed * 13 + 7)
        nk = rng.randint(1, 10)
        ni = rng.randint(0, 20)
        if nk == 1 and ni == 0:
            nk = 2
        sd = gen_random_split(
            seed,
            nk,
            ni,
            p_k_to_i=rng.uniform(0.05, 0.5),
            p_i_to_k=rng.uniform(0.05, 0.5),
            p_digon_k=rng.uniform(0, 0.5),
            sink_free=True,
        )
        cert = two_thirds_qk(sd)
        cert.check(sd.graph)
        assert 3 * cert.size <= 2 * sd.graph.n


def test_constructions_match_their_references_off_a_prefix():
    # sink-free splits with clique digons, relabelled so the clique is not
    # a vertex prefix: the vertex sets are the arc-list references' sets
    for seed in range(150):
        rng = random.Random(seed * 7 + 3)
        one_way = seed % 2 == 0
        sd = gen_random_split(
            seed,
            rng.randint(2, 12),
            rng.randint(1, 20),
            p_k_to_i=0 if one_way else rng.uniform(0.02, 0.4),
            p_i_to_k=rng.uniform(0.05, 0.6),
            p_digon_k=rng.uniform(0.1, 0.6),
            one_way=one_way,
            sink_free=True,
        )
        prefix = (1 << sd.clique.bit_count()) - 1
        perm = list(range(sd.graph.n))
        relabelled = sd
        while relabelled.clique == prefix:
            rng.shuffle(perm)
            relabelled = relabel_split(sd, perm)
        sd = relabelled
        if one_way:
            assert one_way_qk(sd).vertices == one_way_reference(sd)
        assert two_thirds_qk(sd).vertices == two_thirds_reference(sd)


# -- complete_split_min_qk ----------------------------------------------------


def test_complete_sink_case_is_all_sinks():
    sd = SplitDigraph(Digraph(3, [(0, 1), (0, 2)]), [0], [1, 2])
    cert = complete_split_min_qk(sd)
    assert cert.sorted_vertices() == (1, 2)


def test_complete_two_serf_case():
    sd = SplitDigraph(Digraph(3, [(1, 0), (2, 0), (0, 1)]), [0], [1, 2])
    cert = complete_split_min_qk(sd)
    assert cert.sorted_vertices() == (0,)


def test_complete_rejects_non_complete():
    with pytest.raises(PreconditionError, match="complete"):
        complete_split_min_qk(gen_dn(1))


def _no_two_serf_complete_split() -> SplitDigraph:
    # clique = Z5 circulant (jumps +1,+2); independent part = two copies per
    # class i with out-neighborhood {i+1, i+2}: the copy pair mutually blocks
    # 2-serf status, the class t_i blocks clique vertex k_i
    arcs = []
    for i in range(5):
        arcs += [(i, (i + 1) % 5), (i, (i + 2) % 5)]
    for i in range(5):
        for copy in range(2):
            v = 5 + 2 * i + copy
            outs = {(i + 1) % 5, (i + 2) % 5}
            for k in range(5):
                arcs.append((v, k) if k in outs else (k, v))
    return SplitDigraph(Digraph(15, arcs), range(5), range(5, 15))


def test_complete_sink_free_size_two_case():
    # sink-free, no 2-serf: the pair construction must deliver size exactly 2
    sd = _no_two_serf_complete_split()
    d = sd.graph
    assert not d.sinks()
    assert not any(d.is_two_serf(v) for v in range(d.n))
    cert = complete_split_min_qk(sd)
    cert.check(d)
    assert cert.size == 2
    assert cert.sorted_vertices() == (5, 7)
    assert min_quasi_kernel(sd).certificate.size == 2


def test_complete_matches_exact_minimum():
    for seed in range(80):
        rng = random.Random(seed * 19 + 5)
        sd = gen_random_complete_split(
            seed,
            rng.randint(1, 5),
            rng.randint(1, 9),
            p_digon=rng.uniform(0.05, 0.5),
            sink_free=seed % 2 == 0,
        )
        cert = complete_split_min_qk(sd)
        cert.check(sd.graph)
        assert cert.size == min_quasi_kernel(sd).certificate.size


# -- peel_sinks ---------------------------------------------------------------


def test_peel_single_arc():
    d = Digraph(2, [(0, 1)])
    sd = SplitDigraph(d, [0, 1], [])
    cert = peel_split(sd)
    assert cert.sorted_vertices() == (1,)
    assert cert.bound == Fraction(2, 3) * (2 + 1 - 1)


def test_peel_two_layer_example():
    # K={a,b} arc (a,b); I={c} arc (a,c): sinks {b,c}, their in-neighbors {a}
    sd = SplitDigraph(Digraph(3, [(0, 1), (0, 2)]), [0, 1], [2])
    cert = peel_split(sd)
    assert cert.sorted_vertices() == (1, 2)
    assert cert.bound == Fraction(8, 3)


def test_peel_rejects_small_alpha():
    sd = SplitDigraph(Digraph(2, [(0, 1)]), [0, 1], [])
    with pytest.raises(PreconditionError, match="alpha"):
        peel_sinks(sd.graph, lambda host, region: 0, Fraction(1, 3))


def test_peel_structural_properties_campaign():
    for seed in range(200):
        rng = random.Random(seed * 23 + 9)
        sd = gen_random_split(
            seed,
            rng.randint(1, 8),
            rng.randint(1, 16),
            p_k_to_i=rng.uniform(0, 0.4),
            p_i_to_k=rng.uniform(0, 0.4),
            p_digon_k=rng.uniform(0, 0.4),
        )
        sinks = sd.graph.sinks()
        into = sd.graph.in_set_mask(sinks)
        cert = peel_split(sd)
        cert.check(sd.graph)
        chosen = sd.graph.mask_of(cert.vertices)
        assert not sinks & ~chosen
        assert not chosen & into
        bound = Fraction(2, 3) * (sd.graph.n + sinks.bit_count() - into.bit_count())
        assert cert.size <= bound


def test_peel_matches_its_copying_reference_off_a_prefix():
    # splits with sinks and clique digons, relabelled so the clique is not
    # a vertex prefix: peeling with two-thirds on regions of the host gives
    # the set that copying each residue gave
    checked = 0
    seed = 0
    while checked < 150:
        seed += 1
        rng = random.Random(seed * 17 + 11)
        sd = gen_random_split(
            seed,
            rng.randint(3, 16),
            rng.randint(2, 30),
            p_k_to_i=rng.uniform(0.01, 0.2),
            p_i_to_k=rng.uniform(0.05, 0.5),
            p_digon_k=rng.uniform(0.1, 0.6),
        )
        if not sd.graph.sinks():
            continue
        prefix = (1 << sd.clique.bit_count()) - 1
        perm = list(range(sd.graph.n))
        relabelled = sd
        while relabelled.clique == prefix:
            rng.shuffle(perm)
            relabelled = relabel_split(sd, perm)
        assert peel_split(relabelled).vertices == peel_reference(relabelled)
        checked += 1


def test_peel_sinks_on_sink_free_input_delegates(monkeypatch):
    # with no sinks nothing is peeled: the oracle runs once, on the whole
    # digraph, and peel_split certifies what two_thirds_qk does
    calls = []

    def counting(d, oracle, alpha):
        def wrapped(host, region):
            calls.append(region)
            return oracle(host, region)

        return peel_sinks(d, wrapped, alpha)

    monkeypatch.setattr(split_qk, "peel_sinks", counting)
    inputs = [gen_dn(n) for n in (1, 2, 3)] + [gen_dpn(n) for n in (1, 2)]
    inputs += [
        gen_random_split(seed, 3 + seed % 6, seed % 13, sink_free=True) for seed in range(100)
    ]
    for sd in inputs:
        assert not sd.graph.sinks()
        calls.clear()
        cert = peel_split(sd)
        expected = two_thirds_qk(sd)
        assert calls == [sd.graph.full_mask]
        assert cert.vertices == expected.vertices
        assert cert.witnesses == expected.witnesses
        assert cert.bound == expected.bound


def test_peel_sinks_refuses_an_oracle_set_over_its_bound():
    # sink-free, so the bound is alpha * n = 3/2, and the digons 0-2 and
    # 1-2 have the quasi-kernel {0, 1}
    d = Digraph(3, [(0, 2), (2, 0), (1, 2), (2, 1)])
    with pytest.raises(VerificationError, match="size 2 exceeds its bound 3/2"):
        peel_sinks(d, lambda host, region: 0b011, Fraction(1, 2))


def test_peel_sinks_guards_the_oracle_set():
    # 3 is the sink and 2 its in-neighbor, so the oracle gets the digon {0, 1}
    d = Digraph(4, [(0, 1), (1, 0), (2, 3)])
    with pytest.raises(VerificationError, match="outside its region"):
        peel_sinks(d, lambda host, region: 1 << 2, Fraction(2, 3))
    # the whole digon is no independent set
    with pytest.raises(NotQuasiKernelError):
        peel_sinks(d, lambda host, region: region, Fraction(2, 3))
