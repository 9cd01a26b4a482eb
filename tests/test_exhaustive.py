"""Exhaustive sweeps over all small instances of each structure class.

Slower than the unit tests (a few seconds total) but they pin the
constructive solvers to the exact oracle on every instance that exists at
these sizes, digons included.
"""
import itertools

from quasikernel import Digraph, SplitDigraph, complete_split_min_qk, min_quasi_kernel, one_way_qk


def biorientations(pairs):
    for kinds in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (a, b), kind in zip(pairs, kinds):
            if kind in (0, 2):
                arcs.append((a, b))
            if kind in (1, 2):
                arcs.append((b, a))
        yield arcs


def test_every_small_complete_split_biorientation_matches_oracle():
    # complete_split_min_qk has no fallback: an input on which its direct
    # pair fails raises.  Up to n = 4 every answer is compared with the
    # oracle; at n = 5 only the pairs are, since a sink set or a 2-serf is
    # a minimum by definition.
    checked = 0
    parts = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (1, 4), (2, 3), (3, 2), (4, 1)]
    for nk, ni in parts:
        n = nk + ni
        pairs = [(a, b) for a in range(nk) for b in range(a + 1, nk)]
        pairs += [(k, s) for k in range(nk) for s in range(nk, n)]
        for arcs in biorientations(pairs):
            sd = SplitDigraph(Digraph(n, arcs), range(nk), range(nk, n))
            cert = complete_split_min_qk(sd)
            cert.check(sd.graph)
            sinks = sd.graph.sinks()
            if sinks:
                assert sd.graph.mask_of(cert.vertices) == sinks
            if n < 5 or (not sinks and cert.size == 2):
                assert cert.size == min_quasi_kernel(sd).certificate.size
            checked += 1
    assert checked == 1038 + 81000


def test_every_small_sink_free_one_way_split_digraph_meets_bound():
    checked = 0
    for nk in (2, 3):
        ks = range(nk)
        kpairs = [(a, b) for a in ks for b in ks if a < b]
        out_choices = [
            s for r in range(1, nk + 1) for s in itertools.combinations(ks, r)
        ]
        for karcs in biorientations(kpairs):
            for ni in (0, 1, 2):
                n = nk + ni
                for choice in itertools.product(out_choices, repeat=ni):
                    arcs = list(karcs)
                    for idx, outs in enumerate(choice):
                        arcs += [(nk + idx, k) for k in outs]
                    d = Digraph(n, arcs)
                    if d.sinks():
                        continue
                    sd = SplitDigraph(d, ks, range(nk, n))
                    cert = one_way_qk(sd)
                    cert.check(d)
                    t = n + 3 - 2 * cert.size
                    assert t >= 0 and t * t >= 4 * n
                    if n >= 3:
                        assert cert.size <= n // 2
                    assert cert.size >= min_quasi_kernel(sd).certificate.size
                    checked += 1
    assert checked == 1039
