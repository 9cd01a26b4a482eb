import random
import re
from types import SimpleNamespace

import pytest

from conftest import gen_random_complete_split_reference, gen_random_split_reference, strongly_connected
from quasikernel import (
    GenerationError,
    family_labels,
    gen_dn,
    gen_dpn,
    gen_random_complete_split,
    gen_random_split,
    instance_digest,
    min_quasi_kernel,
)
from quasikernel import instances
from quasikernel.digraph import members


def test_dn1_exact_structure():
    sd = gen_dn(1)
    assert sd.graph.n == 6
    expected = {(0, 1), (1, 2), (2, 0), (3, 0), (4, 1), (5, 2)}
    assert set(sd.graph.arcs) == expected
    assert sd.clique == 0b111


def test_dn_vertex_count_formula():
    for n in range(1, 5):
        assert gen_dn(n).graph.n == 2 * n * n + 3 * n + 1


def test_dn_flags_and_circulant_degrees():
    for n in range(1, 5):
        sd = gen_dn(n)
        flags = sd.classify()
        assert flags.one_way and flags.sink_free and flags.orientation
        sub, _, _ = sd.graph.induced(members(sd.clique))
        assert sub.semicomplete_violation() is None
        assert all(row.bit_count() == n for row in sub.out_masks)


def test_dn_rejects_zero():
    with pytest.raises(ValueError):
        gen_dn(0)
    with pytest.raises(ValueError):
        gen_dpn(0)


def test_dn_minimum_sizes():
    # the docstring's n^2+1, up to 2n^2+3n+1 = 325 vertices, far past brute force
    assert min_quasi_kernel(gen_dn(1)).certificate.size == 2
    for n in range(2, 13):
        assert min_quasi_kernel(gen_dn(n)).certificate.size == n * n + 1, n


def test_dpn1_adds_two_arcs():
    base, strong = gen_dn(1), gen_dpn(1)
    assert set(strong.graph.arcs) - set(base.graph.arcs) == {(0, 4), (0, 5)}


def test_dpn_connectivity_structure():
    # The displayed arc set leaves s_0j without in-arcs, so the digraph is
    # not strongly connected as a whole; it is strongly connected once those
    # n source vertices are removed (see the decisions ledger).
    for n in range(1, 4):
        sd = gen_dpn(n)
        g = sd.graph
        kc = 2 * n + 1
        sources = {v for v in range(g.n) if not g.in_masks[v]}
        assert sources == {kc + 0 * n + (j - 1) for j in range(1, n + 1)}
        assert not strongly_connected(g)
        core, _, _ = g.induced(set(range(g.n)) - sources)
        assert strongly_connected(core)
    assert not strongly_connected(gen_dn(1).graph)


def test_dpn_minimums():
    # the minimum measured is the low end of n(n-1)+1 <= size <= n^2+1
    assert min_quasi_kernel(gen_dpn(1)).certificate.size == 2
    for n in range(2, 13):
        assert min_quasi_kernel(gen_dpn(n)).certificate.size == n * (n - 1) + 1, n


def test_family_labels():
    labels = family_labels(1)
    assert labels[:3] == ("k0", "k1", "k2")
    assert labels[4] == "s1_1"
    assert len(labels) == 6


def test_random_split_deterministic():
    a = gen_random_split(7, 4, 9, sink_free=True)
    b = gen_random_split(7, 4, 9, sink_free=True)
    assert a == b
    c = gen_random_split(8, 4, 9, sink_free=True)
    assert a != c


def test_random_split_requested_flags():
    for seed in range(40):
        sd = gen_random_split(seed, 2 + seed % 6, 1 + seed % 9, one_way=True, sink_free=True)
        flags = sd.classify()
        assert flags.one_way and flags.sink_free


def test_random_split_small_clique_sink_free():
    sd1 = gen_random_split(3, 1, 4, sink_free=True)
    assert sd1.classify().sink_free
    sd2 = gen_random_split(3, 2, 4, one_way=True, sink_free=True)
    assert sd2.classify().sink_free and sd2.classify().one_way


def test_random_split_unsatisfiable_options():
    with pytest.raises(GenerationError):
        gen_random_split(1, 0, 1, sink_free=True)
    with pytest.raises(GenerationError):
        gen_random_split(1, 1, 3, one_way=True, sink_free=True)
    with pytest.raises(GenerationError):
        gen_random_split(1, 1, 0, sink_free=True)


def test_random_split_empty_is_fine():
    sd = gen_random_split(1, 0, 0, sink_free=True)
    assert sd.graph.n == 0


def test_random_complete_split_flags():
    for seed in range(30):
        sd = gen_random_complete_split(seed, 2 + seed % 5, 1 + seed % 7, sink_free=True)
        flags = sd.classify()
        assert flags.complete_split and flags.sink_free


def test_random_complete_split_deterministic():
    assert gen_random_complete_split(5, 3, 4) == gen_random_complete_split(5, 3, 4)


def test_random_complete_split_resampling_cap():
    # two clique vertices are sink-free only as a digon, which seed 0 never
    # draws at this p_digon
    with pytest.raises(GenerationError, match="resampling cap"):
        gen_random_complete_split(0, 2, 0, p_digon=1e-9, sink_free=True)


class CountingRandom(random.Random):
    """random.Random that counts its random() calls.  Its randrange calls
    random() too, so it draws other instances when sink_free is set."""

    draws = 0

    def random(self) -> float:
        CountingRandom.draws += 1
        return super().random()


def test_random_complete_split_refuses_impossible_sink_free_sizes_before_drawing(monkeypatch):
    # without the refusal, 20,000 isolated sinks took 100 resampling passes
    monkeypatch.setattr(instances, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(CountingRandom, "draws", 0)
    with pytest.raises(GenerationError, match="^sink-free impossible: an isolated independent vertex is a sink$"):
        gen_random_complete_split(0, 0, 20000, sink_free=True)
    with pytest.raises(GenerationError, match="^sink-free impossible: the lone clique vertex has no legal out-arc$"):
        gen_random_complete_split(0, 1, 0, sink_free=True)
    # without digons the lone clique vertex, or one of two, is a sink;
    # (1, 19999) took 100 resampling passes, 1.7 s
    for nk, ni in ((1, 1), (1, 19999), (2, 0)):
        with pytest.raises(GenerationError, match="^sink-free impossible: without digons every orientation has a sink$"):
            gen_random_complete_split(0, nk, ni, p_digon=0.0, sink_free=True)
    assert CountingRandom.draws == 0
    monkeypatch.undo()
    assert gen_random_complete_split(0, 0, 0, sink_free=True).graph.n == 0
    assert gen_random_complete_split(0, 0, 5).graph.n == 5
    assert not gen_random_complete_split(0, 2, 1, p_digon=0.0, sink_free=True).graph.sinks()


def test_random_generators_reject_negative_sizes():
    with pytest.raises(ValueError):
        gen_random_split(0, -1, 2)
    with pytest.raises(ValueError):
        gen_random_complete_split(0, 2, -1)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda p: gen_random_split(0, 2, 2, p_k_to_i=p), "p_k_to_i"),
        (lambda p: gen_random_split(0, 2, 2, p_i_to_k=p), "p_i_to_k"),
        (lambda p: gen_random_split(0, 2, 2, p_digon_k=p), "p_digon_k"),
        (lambda p: gen_random_complete_split(0, 2, 2, p_digon=p), "p_digon"),
    ],
)
def test_random_generators_reject_non_probabilities(call, name):
    for p in (float("nan"), -0.5, 1.5, 7.0, float("inf")):
        with pytest.raises(ValueError, match=f"{name} must be a probability"):
            call(p)
    for p in (0.0, 1.0):
        call(p)


def never(*args):
    raise AssertionError("the digraph was built")


def test_families_check_the_instance_caps_before_building(monkeypatch):
    # gen_dn(1) has 6 vertices and 6 arcs, gen_dpn(1) 6 vertices and 8 arcs
    monkeypatch.setattr(instances, "Digraph", never)
    monkeypatch.setattr(instances, "MAX_ARCS", 5)
    with pytest.raises(GenerationError, match=r"gen_dn\(1\) needs 6 arcs, over the cap MAX_ARCS=5"):
        gen_dn(1)
    monkeypatch.setattr(instances, "MAX_ARCS", 7)
    with pytest.raises(GenerationError, match=r"gen_dpn\(1\) needs 8 arcs, over the cap MAX_ARCS=7"):
        gen_dpn(1)
    monkeypatch.setattr(instances, "MAX_ARCS", 8)
    monkeypatch.setattr(instances, "MAX_VERTICES", 5)
    for gen in (gen_dn, gen_dpn):
        with pytest.raises(GenerationError, match="6 vertices, over the cap MAX_VERTICES=5"):
            gen(1)
    monkeypatch.setattr(instances, "MAX_VERTICES", 6)
    for gen in (gen_dn, gen_dpn):
        with pytest.raises(AssertionError, match="the digraph was built"):
            gen(1)
    # the formulas hold up to n = 4
    monkeypatch.undo()
    for n in range(1, 5):
        kc = 2 * n + 1
        assert len(gen_dn(n).graph.arcs) == 2 * kc * n
        assert len(gen_dpn(n).graph.arcs) == 2 * kc * n + (kc - 1) * n
        assert gen_dpn(n).graph.n == kc * (n + 1)


def test_random_models_check_the_instance_caps(monkeypatch):
    split = gen_random_split(3, 4, 7, sink_free=True)
    complete = gen_random_complete_split(4, 3, 5, p_digon=0.5)
    m_split, m_complete = len(split.graph.arcs), len(complete.graph.arcs)
    # 3 clique pairs and 15 clique-independent pairs take at least 18 arcs
    assert m_complete > 18
    monkeypatch.setattr(instances, "MAX_ARCS", m_split)
    assert gen_random_split(3, 4, 7, sink_free=True) == split
    monkeypatch.setattr(instances, "MAX_ARCS", m_complete)
    assert gen_random_complete_split(4, 3, 5, p_digon=0.5) == complete

    monkeypatch.setattr(instances, "Digraph", never)
    monkeypatch.setattr(instances, "MAX_ARCS", m_split - 1)
    with pytest.raises(GenerationError, match=f"arc count over the cap MAX_ARCS={m_split - 1}"):
        gen_random_split(3, 4, 7, sink_free=True)
    monkeypatch.setattr(instances, "MAX_ARCS", 17)
    with pytest.raises(GenerationError, match="needs 18 arcs, over the cap MAX_ARCS=17"):
        gen_random_complete_split(4, 3, 5, p_digon=0.5)
    monkeypatch.setattr(instances, "MAX_ARCS", m_complete - 1)
    with pytest.raises(GenerationError, match=f"arc count over the cap MAX_ARCS={m_complete - 1}"):
        gen_random_complete_split(4, 3, 5, p_digon=0.5)
    monkeypatch.setattr(instances, "MAX_ARCS", 100)
    monkeypatch.setattr(instances, "MAX_VERTICES", 10)
    for gen in (gen_random_split, gen_random_complete_split):
        with pytest.raises(GenerationError, match="11 vertices, over the cap MAX_VERTICES=10"):
            gen(0, 4, 7)


def _outcome(generate, *args, **kwargs):
    try:
        sd = generate(*args, **kwargs)
    except (ValueError, GenerationError) as exc:
        return type(exc), str(exc)
    return sd, sd.graph.in_masks


def _random_model_case(rng: random.Random):
    """A parameter tuple for one of the random models: sizes 0-9 (now and
    then -1), probabilities 0, 1 or in between (now and then out of range),
    and now and then low caps."""

    def size() -> int:
        return -1 if rng.random() < 0.03 else rng.randint(0, 9)

    def prob() -> float:
        return rng.choice([0.0, 1.0, rng.random(), rng.random()] + [1.5] * (rng.random() < 0.05))

    caps = {}
    if rng.random() < 0.25:
        caps["MAX_ARCS"] = rng.randint(0, 60)
    if rng.random() < 0.05:
        caps["MAX_VERTICES"] = rng.randint(0, 12)
    seed, nk, ni = rng.randrange(10**6), size(), size()
    if rng.random() < 0.5:
        kwargs = dict(p_k_to_i=prob(), p_i_to_k=prob(), p_digon_k=prob())
        kwargs.update(one_way=rng.random() < 0.5, sink_free=rng.random() < 0.5)
        return gen_random_split, gen_random_split_reference, (seed, nk, ni), kwargs, caps
    kwargs = dict(p_digon=prob(), sink_free=rng.random() < 0.7)
    return gen_random_complete_split, gen_random_complete_split_reference, (seed, nk, ni), kwargs, caps


def test_random_models_match_the_arc_set_references(monkeypatch):
    rng = random.Random(2025)
    seen = set()
    resampled = 0
    for _ in range(3000):
        generate, reference, args, kwargs, caps = _random_model_case(rng)
        monkeypatch.setattr(instances, "MAX_ARCS", caps.get("MAX_ARCS", instances.MAX_ARCS))
        monkeypatch.setattr(instances, "MAX_VERTICES", caps.get("MAX_VERTICES", instances.MAX_VERTICES))
        got, expected = _outcome(generate, *args, **kwargs), _outcome(reference, *args, **kwargs)
        monkeypatch.undo()
        case = (generate.__name__, args, kwargs, caps)
        if got != expected:
            # refused before any draw where the reference spent its resampling cap
            nk, ni = args[1:]
            impossible = [(0, True), (1, False)] + [(1, True), (2, False)] * (kwargs["p_digon"] == 0)
            assert generate is gen_random_complete_split and (nk, ni > 0) in impossible, case
            assert got[0] is GenerationError and got[1].startswith("sink-free impossible"), case
            assert expected == (GenerationError, "resampling cap exceeded while enforcing sink-freeness"), case
        kind = re.sub(r"[0-9.]+", "#", got[1]) if got[0] in (ValueError, GenerationError) else "ok"
        if kind == "ok" and generate is gen_random_complete_split and kwargs["sink_free"]:
            resampled += bool(generate(*args, kwargs["p_digon"]).graph.sinks())
        seen.add(f"{generate.__name__}: {kind}")
    probability = "must be a probability in [#, #], got #"
    common = [
        "ok",
        "part sizes must be nonnegative",
        "sink-free impossible: an isolated independent vertex is a sink",
        "sink-free impossible: the lone clique vertex has no legal out-arc",
    ]
    split = common + [
        f"p_k_to_i {probability}",
        f"p_i_to_k {probability}",
        f"p_digon_k {probability}",
        "random split needs # vertices, over the cap MAX_VERTICES=#",
        "random split: arc count over the cap MAX_ARCS=#",
    ]
    complete = common + [
        f"p_digon {probability}",
        "random complete split needs # vertices, over the cap MAX_VERTICES=#",
        "random complete split needs # arcs, over the cap MAX_ARCS=#",
        "random complete split: arc count over the cap MAX_ARCS=#",
        "resampling cap exceeded while enforcing sink-freeness",
        "sink-free impossible: without digons every orientation has a sink",
    ]
    assert seen == {f"gen_random_split: {kind}" for kind in split} | {
        f"gen_random_complete_split: {kind}" for kind in complete
    }
    # 99 sink-free draws had sinks to redraw
    assert resampled >= 90


@pytest.mark.parametrize("generate, digest", [
    (lambda: gen_random_split(1, 200, 200, sink_free=True),
     "7add576b42c478cdb5064e8f883ec0c26276130fdb08fae668750264aa4204e3"),
    (lambda: gen_random_split(3, 200, 200, p_i_to_k=0.01, p_k_to_i=0.005),
     "9b26cbfe51bbaef6dd95eb17db8ba8827fb87286789d46c25118da327bea736d"),
    (lambda: gen_random_complete_split(3, 100, 100, sink_free=True),
     "3a47fb3633037a1745bfdfda7c43578c0d78d720fac01ce9d291e4f4a98f8738"),
    (lambda: gen_random_split(5, 60, 80, p_k_to_i=0.3, p_i_to_k=0.2, one_way=True, sink_free=True),
     "a5e93ad4fd3f9f103d1c630a36a88afc0180cee560057b4784e5e7e05ba17254"),
    # the first draw leaves the independent sinks 4, 20, 26, 41 and 42
    (lambda: gen_random_complete_split(7, 3, 40, sink_free=True),
     "048ee8eb3574ea5ea97a65b1af2d272ff2a71db36c94a1c5e75a75b23ca6ecda"),
    # the first draw leaves the sink 4, adjacent to both clique vertices
    (lambda: gen_random_complete_split(11, 2, 3, p_digon=0.1, sink_free=True),
     "f820101abda3740db9e2cca5c81031e29b19757d16825a3f156a2d67a187e4a2"),
])
def test_random_models_keep_their_instances(generate, digest):
    # digests of the instances the arc-set models drew for these tuples
    assert instance_digest(generate()) == f"sha256:{digest}"


@pytest.mark.parametrize("nk, ni, options, cap, bound", [
    # 44,850 clique pairs, one arc and two draws each: the count passes the
    # cap at pair 5,001, and the row then ends within 299 more pairs
    (300, 0, dict(p_digon_k=0.0), 5000, 2 * (5001 + 299)),
    # 45 clique arcs in 90 draws, then a k row of 2,000 draws makes 2,000
    # arcs: the count passes the cap in the second k row
    (10, 1000, dict(p_k_to_i=1.0, p_i_to_k=1.0, p_digon_k=0.0), 3000, 90 + 2 * 2000),
])
def test_random_split_stops_within_a_row_of_the_arc_cap(monkeypatch, nk, ni, options, cap, bound):
    monkeypatch.setattr(instances, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(CountingRandom, "draws", 0)
    monkeypatch.setattr(instances, "MAX_ARCS", cap)
    with pytest.raises(GenerationError, match=f"^random split: arc count over the cap MAX_ARCS={cap}$"):
        gen_random_split(0, nk, ni, **options)
    assert cap < CountingRandom.draws <= bound
    # the whole model draws many rows more
    monkeypatch.setattr(CountingRandom, "draws", 0)
    monkeypatch.setattr(instances, "MAX_ARCS", 10**6)
    gen_random_split(0, nk, ni, **options)
    assert CountingRandom.draws >= 4 * bound
