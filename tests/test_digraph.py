import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasikernel import (
    Digraph,
    NotQuasiKernelError,
    QkCertificate,
    SplitDigraph,
    SplitError,
    VerificationError,
    certificate_document,
    gen_dn,
    gen_dpn,
)
from quasikernel.digraph import LABELS, members

THREE_CYCLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])


@st.composite
def masks(draw, max_bits: int = 20_000) -> int:
    """A mask of up to max_bits bits with any number of set bits, often
    near an eighth of its length, where members switches method on masks
    of at least 16 members."""
    length = draw(st.integers(0, max_bits))
    if length == 0:
        return 0
    near = length // 8
    others = draw(
        st.one_of(st.integers(0, length - 1), st.integers(max(0, near - 2), min(length - 1, near + 1)))
    )
    bits = random.Random(draw(st.integers(0, 2**32))).sample(range(length - 1), others)
    return sum(1 << b for b in bits) | 1 << (length - 1)


def members_by_scan(mask: int) -> list[int]:
    found = []
    for i, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        found += [8 * i + b for b in range(8) if byte >> b & 1]
    return found


@given(masks())
@example(0)
@example(1)
@example((1 << 127) | (1 << 15) - 1)  # 16 members in 128 bits: listed from the digits
@example((1 << 128) | (1 << 15) - 1)  # 16 members in 129 bits: popped
@example((1 << 15) - 1)  # 15 members: popped
@example((1 << 20_000) - 1)
@settings(max_examples=200, deadline=None)
def test_members_matches_a_scan(mask):
    assert members(mask) == members_by_scan(mask)


def test_construction_rejects_loops_and_bad_endpoints():
    with pytest.raises(ValueError, match="loop"):
        Digraph(2, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Digraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph(-1)


@pytest.mark.parametrize("arc", [(0.7, 1), (True, 2), (0, False), ("1", 2), (1, 2.0)])
def test_construction_rejects_non_int_endpoints(arc):
    with pytest.raises(TypeError, match=re.escape(repr(arc))):
        Digraph(3, [(0, 1), arc])


@pytest.mark.parametrize("v", [True, False, 1.0, "1"])
def test_vertex_sets_reject_non_int_members(v):
    d = gen_dn(1).graph
    for call in (d.mask_of, d.is_quasi_kernel, d.induced, lambda s: d.certify(s, "verify")):
        with pytest.raises(TypeError, match="must be int"):
            call([v])
    # the other part is the one vertex of Digraph(2) that v does not equal
    other = 0 if v else 1
    with pytest.raises(TypeError):
        SplitDigraph(Digraph(2), [v], [other])
    with pytest.raises(TypeError):
        SplitDigraph(Digraph(2), [other], [v])


@pytest.mark.parametrize("v", [False, 0.0])
def test_certificate_check_rejects_non_int_members(v):
    d = Digraph(2, [(1, 0)])
    cert = d.certify({0}, "verify")
    bad = QkCertificate(frozenset({v}), cert.witnesses, "verify")
    with pytest.raises(VerificationError, match="not an int"):
        bad.check(d)
    with pytest.raises(VerificationError, match="not an int"):
        certificate_document(bad, d)


@pytest.mark.parametrize("witnesses", [
    {1: (1, False)},
    {1: (True, 0)},
    {True: (1, 0)},
    {1: (1, 0.0)},
    {"1": (1, 0)},
    {1: 5},
    {1: None},
    {1: {1, 0}},
    {1: iter((1, 0))},
    {1: {1: 0, 0: 1}},
])
def test_certificate_check_rejects_non_int_witness_entries(witnesses):
    # False is vertex 0 and True vertex 1, so only the type test refuses
    # them; the document would otherwise be written as 'w 1 False'
    d = Digraph(2, [(1, 0)])
    bad = QkCertificate(frozenset({0}), witnesses, "verify")
    with pytest.raises(VerificationError, match="not an int"):
        bad.check(d)
    with pytest.raises(VerificationError, match="not an int"):
        certificate_document(bad, d)


def test_duplicate_arcs_collapse():
    d = Digraph(2, [(0, 1), (0, 1)])
    assert len(d.arcs) == 1


def test_digon_is_two_arcs():
    d = Digraph(2, [(0, 1), (1, 0)])
    assert d.out_masks == (0b10, 0b01)
    assert d.in_masks == (0b10, 0b01)


def test_sinks():
    assert Digraph(2, [(0, 1)]).sinks() == 0b10
    assert THREE_CYCLE.sinks() == 0
    assert gen_dn(1).graph.sinks() == 0
    # within a region only the arcs inside it count
    assert THREE_CYCLE.sinks(0b011) == 0b010
    assert THREE_CYCLE.sinks(0b101) == 0b001
    assert THREE_CYCLE.sinks(0) == 0


def test_neighborhood_sets_on_dn1():
    d = gen_dn(1).graph
    first = d.in_set_mask(0b1)
    assert first == 0b1100
    # 1 and 5 reach k0 by exactly two arcs
    assert d.in_set_mask(first) & ~0b1 == 0b100010
    assert d.out_masks[0] == 0b10  # k0's only out-arc goes to k1
    assert d.reach_in_two(0) == 0b101111


def test_neighborhood_sets_trivial():
    d = THREE_CYCLE
    assert d.in_set_mask(d.full_mask) == 0
    assert d.in_set_mask(0) == 0
    assert d.reach_in_two(0, 0b1) == 0b1


def test_subset_range_check():
    with pytest.raises(ValueError, match="out of range"):
        THREE_CYCLE.mask_of({3})
    with pytest.raises(ValueError, match="out of range"):
        THREE_CYCLE.is_quasi_kernel({3})


def test_is_quasi_kernel():
    d = gen_dn(1).graph
    assert d.is_quasi_kernel({0, 4})
    assert not d.is_quasi_kernel({0})
    assert Digraph(0).is_quasi_kernel(())


def test_is_two_serf():
    d = gen_dn(1).graph
    assert not any(d.is_two_serf(v) for v in range(d.n))
    assert Digraph(2, [(0, 1)]).is_two_serf(1)


def test_certify_builds_valid_witnesses():
    d = gen_dn(1).graph
    cert = d.certify({0, 4}, "verify")
    cert.check(d)
    assert cert.sorted_vertices() == (0, 4)
    assert set(cert.witnesses) == {1, 2, 3, 5}
    assert cert.witnesses[5] == (5, 2, 0)


def test_certify_reports_first_offender():
    d = gen_dn(1).graph
    with pytest.raises(NotQuasiKernelError) as exc:
        d.certify({0}, "verify")
    assert exc.value.vertex == 4
    with pytest.raises(NotQuasiKernelError) as exc:
        Digraph(2, [(0, 1)]).certify({0, 1}, "verify")
    assert exc.value.vertex == 0


def test_certify_refuses_a_set_over_its_bound():
    # the digons 0-3, 1-3 and 2-3: sink-free, so the 2/3 labels bound 8/3
    d = Digraph(4, [(0, 3), (3, 0), (1, 3), (3, 1), (2, 3), (3, 2)])
    assert d.certify({3}, "two-thirds").bound == Fraction(8, 3)
    for label in ("two-thirds", "peel"):
        with pytest.raises(VerificationError, match="^certificate size 3 exceeds its bound 8/3$"):
            d.certify({0, 1, 2}, label)
    assert d.certify({0, 1, 2}, "verify").bound is None
    # a set that is no quasi-kernel is refused as one, whatever its bound
    with pytest.raises(NotQuasiKernelError):
        d.certify({0, 3}, "two-thirds")


def test_certify_records_each_label_its_bound():
    # the digon 0-1 and the arc 2 -> 0: no sink, so complete-split bounds 2
    d = Digraph(3, [(0, 1), (1, 0), (2, 0)])
    expected = {
        "one-way": Fraction(1), "two-thirds": Fraction(2), "peel": Fraction(2),
        "complete-split": Fraction(2),
    }
    for label in LABELS:
        assert d.certify({0}, label).bound == expected.get(label)
    # with the sink 2 and its in-neighbour 0: 2/3 (3 + 1 - 1) and |S|
    d = Digraph(3, [(0, 1), (1, 0), (0, 2)])
    assert d.certify({2}, "peel").bound == 2
    assert d.certify({2}, "complete-split").bound == 1
    empty = Digraph(0)
    assert [empty.certify((), label).bound for label in ("one-way", "complete-split")] == [0, 0]
    # an unknown label is refused before the set is looked at
    with pytest.raises(ValueError, match="^unknown certificate label 'test'$"):
        d.certify({0, 1}, "test")


def test_certificate_check_rejects_tampering():
    d = gen_dn(1).graph
    cert = d.certify({0, 4}, "verify")
    bad = type(cert)(cert.vertices, {**cert.witnesses, 5: (5, 1, 0)}, "verify", None)
    with pytest.raises(VerificationError):
        bad.check(d)


def test_check_split_accepts_dn1():
    sd = gen_dn(1)
    rebuilt = SplitDigraph(sd.graph, members(sd.clique), members(sd.independent))
    assert rebuilt == sd
    assert (sd.clique, sd.independent) == (0b000111, 0b111000)


def test_check_split_errors():
    d = Digraph(2)
    with pytest.raises(SplitError, match=r"missing clique adjacency \(0,1\)"):
        SplitDigraph(d, [0, 1], [])
    d2 = Digraph(2, [(0, 1)])
    with pytest.raises(SplitError, match="arc inside independent part"):
        SplitDigraph(d2, [], [0, 1])
    with pytest.raises(SplitError, match="partition"):
        SplitDigraph(d2, [0], [0, 1])
    with pytest.raises(SplitError, match="out of range"):
        SplitDigraph(d2, [0, 5], [1])


@pytest.mark.parametrize("attr", ["n", "_out", "graph", "clique"])
def test_digraphs_refuse_assignment_and_deletion(attr):
    # the split constructions trust what the constructors proved, so no
    # field of either class can be rebound or deleted afterwards
    sd = gen_dn(1)
    target = sd if attr in ("graph", "clique") else sd.graph
    name = type(target).__name__
    before = (repr(sd), hash(sd))
    for change in (lambda: setattr(target, attr, 3), lambda: delattr(target, attr)):
        with pytest.raises(AttributeError, match=f"^{name} is immutable: cannot set or delete '{attr}'$"):
            change()
    assert (repr(sd), hash(sd)) == before == ("SplitDigraph(n=6, |K|=3, |I|=3)", hash(gen_dn(1)))


@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy])
def test_digraphs_survive_a_pickle_and_a_deepcopy(round_trip):
    for value in (gen_dpn(2), gen_dpn(2).graph, SplitDigraph(Digraph(0), [], [])):
        copied = round_trip(value)
        assert type(copied) is type(value) and copied is not value
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)


def test_classify_dn_and_dpn():
    flags = gen_dn(1).classify()
    assert flags.one_way and flags.orientation and flags.sink_free
    assert not flags.complete_split
    flags2 = gen_dpn(1).classify()
    assert not flags2.one_way
    assert flags2.sink_free


def test_classify_sink_and_complete():
    d = Digraph(3, [(0, 1), (0, 2)])
    sd = SplitDigraph(d, [0], [1, 2])
    flags = sd.classify()
    assert flags.complete_split and not flags.sink_free


def test_induced():
    iso, old_of_new, _ = THREE_CYCLE.induced(range(3))
    assert iso == THREE_CYCLE and old_of_new == (0, 1, 2)
    sub, _, _ = THREE_CYCLE.induced({0, 1})
    assert sub == Digraph(2, [(0, 1)])
    kpart, old_of_new, _ = gen_dn(1).graph.induced(members(gen_dn(1).clique))
    assert kpart == THREE_CYCLE and old_of_new == (0, 1, 2)
