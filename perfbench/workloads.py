"""The three workloads: their instance files and one pass of CLI calls each.

``setup`` functions build instances from the seed and write them with the
package's own serializer; their time is ``setup_s``.  ``run_pass`` functions
issue the calls of one pass through a ``harness.Runner`` and state the
expected answer of every call.
"""
from __future__ import annotations

import random
from pathlib import Path
from typing import Callable, NamedTuple

import quasikernel.instances as instances
from quasikernel.digraph import Digraph, SplitDigraph
from quasikernel.files import serialize_instance

import oracle
from harness import Runner, require

LADDER_RUNGS = (25, 50, 100)
# 200+200 and 100+100 vertices: a call takes a few tenths of a second
SPLIT_NK = 200
REDUCTION_Q = 3
GENERAL_N = 18


def _write(work: Path, name: str, obj: Digraph | SplitDigraph) -> tuple[str, Path]:
    path = work / f"{name}.qkdg"
    path.write_text(serialize_instance(obj), encoding="utf-8")
    return name, path


def _relabel(arcs: list[tuple[int, int]], rng: random.Random, n: int) -> Digraph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Digraph(n, [(perm[t], perm[h]) for t, h in arcs])


# -- oneway-ladder --------------------------------------------------------


def ladder(k: int, rng: random.Random) -> SplitDigraph:
    """Near-transitive one-way split digraph on 2k vertices.

    Clique 0..k-1 has i->j for i<j with (k-3, k-1) reversed; every
    independent vertex has one arc into the clique, a seeded bijection.
    """
    arcs = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) != (k - 3, k - 1)]
    arcs.append((k - 1, k - 3))
    heads = list(range(k))
    rng.shuffle(heads)
    arcs += [(k + i, heads[i]) for i in range(k)]
    return SplitDigraph(Digraph(2 * k, arcs), range(k), range(k, 2 * k))


def setup_ladder(seed: int, work: Path) -> dict[str, Path]:
    rng = random.Random(seed)
    return dict(_write(work, f"k{k}", ladder(k, rng)) for k in LADDER_RUNGS)


def _ladder_solve(r: Runner, inst: str) -> frozenset[int] | None:
    n = r.insts[inst].n
    return r.solve(inst, [], "one-way",
                   lambda size: oracle.within_one_way_bound(n, size))


def ladder_pass(r: Runner) -> None:
    for k in LADDER_RUNGS:
        inst = f"k{k}"
        n = r.insts[inst].n
        qk = _ladder_solve(r, inst)
        r.bounds(
            inst,
            {
                "cl": lambda size: size >= 1,
                "one-way": lambda size: qk is not None and size == len(qk),
                "two-thirds": lambda size: 3 * size <= 2 * n,
            },
        )
        r.verify(inst, qk)


def ladder_peak(r: Runner) -> None:
    _ladder_solve(r, f"k{LADDER_RUNGS[-1]}")


# -- split-io -------------------------------------------------------------


def setup_split_io(seed: int, work: Path) -> dict[str, Path]:
    # The sparse instance must have a sink so that auto dispatches to peel;
    # the next seed is tried in the rare case it has none.
    attempt = seed
    while True:
        sinks = instances.gen_random_split(attempt, SPLIT_NK, SPLIT_NK, p_i_to_k=0.01, p_k_to_i=0.005)
        if sinks.graph.sinks():
            break
        attempt += 1_000_003
    return dict(
        [
            _write(work, "two-thirds", instances.gen_random_split(seed, SPLIT_NK, SPLIT_NK, sink_free=True)),
            _write(work, "peel", sinks),
            _write(work, "complete", instances.gen_random_complete_split(
                seed, SPLIT_NK // 2, SPLIT_NK // 2, sink_free=True)),
        ]
    )


def _split_cases(r: Runner) -> dict[str, tuple[str, dict[str, Callable[[int], bool]]]]:
    """Per instance: the algorithm auto must pick, and a check per bounds row."""
    n, n_complete = r.insts["two-thirds"].n, r.insts["complete"].n
    nonempty = lambda size: size >= 1
    cs_min = 1 if oracle.has_two_serf(r.insts["complete"]) else 2
    return {
        "two-thirds": ("two-thirds", {"cl": nonempty, "two-thirds": lambda size: 3 * size <= 2 * n}),
        "peel": ("peel", {"cl": nonempty, "peel": lambda size: oracle.peel_bound_ok(r.insts["peel"], size)}),
        "complete": (
            "complete-split",
            {"cl": nonempty, "complete-split": lambda size: size == cs_min,
             "two-thirds": lambda size: cs_min <= size and 3 * size <= 2 * n_complete},
        ),
    }


def _split_solve(r: Runner, inst: str, algorithm: str, rows: dict) -> frozenset[int] | None:
    return r.solve(inst, [], algorithm, rows[algorithm], minimum=algorithm == "complete-split")


def split_io_pass(r: Runner) -> None:
    for inst, (algorithm, rows) in _split_cases(r).items():
        qk = _split_solve(r, inst, algorithm, rows)
        r.bounds(inst, rows)
        r.verify(inst, qk)


def split_io_peak(r: Runner) -> None:
    _split_solve(r, "two-thirds", *_split_cases(r)["two-thirds"])


# -- exact-search ---------------------------------------------------------


def star_source(rng: random.Random) -> Digraph:
    """10 vertices, 9 arcs: seven point into three hubs, two join the hubs.
    Its minimum dominating set has size 3."""
    arcs = [(v, v % 3) for v in range(3, 10)] + [(0, 1), (1, 2)]
    return _relabel(arcs, rng, 10)


def path_source(rng: random.Random) -> Digraph:
    """A directed Hamiltonian path on 10 vertices; minimum dominating set 5."""
    return _relabel([(v, v + 1) for v in range(9)], rng, 10)


def general(shape: int, rng: random.Random) -> Digraph:
    """A seeded relabeling of a fixed random digraph (arc probability 0.15),
    so the exact search's cost varies little with the seed."""
    pick = random.Random(shape)
    arcs = [(t, h) for t in range(GENERAL_N) for h in range(GENERAL_N)
            if t != h and pick.random() < 0.15]
    return _relabel(arcs, rng, GENERAL_N)


def setup_exact(seed: int, work: Path) -> dict[str, Path]:
    rng = random.Random(seed)
    return dict(
        [
            _write(work, "dn3", instances.gen_dn(3)),
            _write(work, "dpn3", instances.gen_dpn(3)),
            _write(work, "star", star_source(rng)),
            _write(work, "path", path_source(rng)),
            _write(work, "general-a", general(0, rng)),
            _write(work, "general-b", general(1, rng)),
        ]
    )


def _exact_solve(r: Runner, inst: str, minimum: int) -> frozenset[int] | None:
    return r.solve(inst, ["--algo", "exact"], "exact", lambda size: size == minimum,
                   minimum=True, name=f"exact {inst}")


def exact_pass(r: Runner) -> None:
    # the minima at n=3: n^2+1 = 10 for gen_dn, as the paper proves, and 7
    # for gen_dpn, both confirmed once by oracle's brute force
    families = (("dn3", 10), ("dpn3", 7))
    for inst, minimum in families:
        r.verify(inst, _exact_solve(r, inst, minimum))
    r.solve_none("fpt-k9 dn3", "dn3", ["--algo", "fpt-k", "--k", "9"], 9)
    r.solve("dn3", ["--algo", "fpt-k", "--k", "10"], "fpt-k", lambda size: size == 10,
            name="fpt-k10 dn3")
    r.solve_none("fpt-i5 dn3", "dn3", ["--algo", "fpt-i", "--k", "5"], 5)
    for src in ("star", "path"):
        _reduction(r, src)
    # the families fix most of bounds_s, so it varies little with the seed
    for inst, minimum in families:
        n = r.insts[inst].n
        rows = {"cl": lambda size: size >= minimum,
                "two-thirds": lambda size: minimum <= size and 3 * size <= 2 * n}
        if inst == "dn3":
            rows["one-way"] = lambda size: minimum <= size and oracle.within_one_way_bound(n, size)
        r.bounds(inst, rows)
    for inst in ("general-a", "general-b"):
        minimum = oracle.min_quasi_kernel_size(r.insts[inst])
        r.bounds(inst, {"cl": lambda size: size >= minimum, "exact": lambda size: size == minimum})


def _reduction(r: Runner, src: str) -> None:
    """reduce, then the exact minimum of the host.  The gadget has a
    quasi-kernel of size <= q+1 iff the source has a dominating set of size <= q."""
    host = f"host-{src}"
    r.files[host] = r.work / f"{host}.qkdg"
    res = r.op("reduce", src,
               [str(r.files[src]), "--q", str(REDUCTION_Q), "--out", str(r.files[host])])
    if r.expect(res, _check_reduction, r, src, host) is None:
        r.skip(f"solve exact {host}", "no host from the reduction")
        return
    dominated = oracle.min_dominating_size(r.insts[src]) <= REDUCTION_Q
    r.solve(host, ["--algo", "exact"], "exact",
            lambda size: (size <= REDUCTION_Q + 1) == dominated, minimum=True, name=f"exact {host}")


def exact_peak(r: Runner) -> None:
    _reduction(r, "star")


def _check_reduction(res, r: Runner, src: str, host: str) -> bool:
    """The host's size follows the gadget formulas: n+m+2b+1 vertices and
    C(m+b,2)+3m+2b arcs with b=2q+3."""
    require(res.code == 0, f"exit code {res.code}")
    source = r.insts[src]
    inst = r.insts[host] = oracle.Instance(r.files[host].read_text())
    n, m, b = source.n, len(source.arcs), 2 * REDUCTION_Q + 3
    require(inst.n == n + m + 2 * b + 1, f"host has {inst.n} vertices")
    require(len(inst.arcs) == (m + b) * (m + b - 1) // 2 + 3 * m + 2 * b, "host arc count")
    require(inst.clique is not None and len(inst.clique) == m + b, "host clique part")
    return True


class Workload(NamedTuple):
    setup: Callable[[int, Path], dict[str, Path]]
    run_pass: Callable[[Runner], None]
    peak: Callable[[Runner], None]  # the one call whose memory peak is peak_mb


WORKLOADS = {
    "oneway-ladder": Workload(setup_ladder, ladder_pass, ladder_peak),
    "split-io": Workload(setup_split_io, split_io_pass, split_io_peak),
    "exact-search": Workload(setup_exact, exact_pass, exact_peak),
}
