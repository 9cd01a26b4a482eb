"""Every split digraph on n vertices whose clique is its first |K| vertices,
|K| = 0..n, through every algorithm that applies to it.

Each clique pair is one arc either way or a digon, and each pair of a
clique and an independent vertex has no arc, either arc or a digon.  Each
instance goes through ``cl``, ``exact``, the construction rows of
``qkdg bounds`` and ``fpt-k``/``fpt-i`` at its minimum, where each finds a
set, and one below it, where neither does.  Every certificate is written
and read back by ``check_certificate``, which checks its label's bound,
and every label of ``cli.MINIMA`` has the exact minimum's size.

Tier-1 runs n = 0-4 (``tests/test_exhaustive.py``).  For one larger n, run
``PYTHONPATH=src python tests/split_sweep.py 5``: it prints the counts and
the time taken, and exits 1 at the first failed check.
"""
from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from typing import Iterator

from quasikernel import Digraph, SplitDigraph, certificate_document, check_certificate
from quasikernel.cli import MINIMA, _solve_with, _split_constructions

# a pair's states, as arcs between its two ends 0 and 1
CLIQUE_STATES = (((0, 1),), ((1, 0),), ((0, 1), (1, 0)))
CROSS_STATES = ((), *CLIQUE_STATES)


def split_digraphs(n: int) -> Iterator[SplitDigraph]:
    """Every split digraph on n vertices with clique 0..k-1, k = 0..n."""
    for k in range(n + 1):
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        choices = [CLIQUE_STATES] * len(pairs)
        pairs += [(a, b) for a in range(k) for b in range(k, n)]
        choices += [CROSS_STATES] * (len(pairs) - len(choices))
        for states in itertools.product(*choices):
            arcs = [(pair[x], pair[y]) for pair, state in zip(pairs, states) for x, y in state]
            yield SplitDigraph(Digraph(n, arcs), range(k), range(k, n))


def sweep(n: int) -> Counter:
    """Run every check on every split digraph on n vertices; the number of
    instances and of certificates per label.  AssertionError at the first
    failed check."""
    counts: Counter = Counter()
    for sd in split_digraphs(n):
        counts["instances"] += 1
        algos = ["cl", "exact", *_split_constructions(sd)]
        certs = [_solve_with(sd, algo, None) for algo in algos]
        minimum = certs[1].size
        for algo in ("fpt-k", "fpt-i"):
            certs.append(_solve_with(sd, algo, minimum))
            if minimum:
                assert _solve_with(sd, algo, minimum - 1) is None, (algo, sd.graph.arcs)
        for cert in certs:
            assert cert is not None, sd.graph.arcs
            assert check_certificate(certificate_document(cert, sd), sd) == cert, sd.graph.arcs
            # fpt-k finds a set of at most the minimum's size
            if cert.algorithm in (*MINIMA, "fpt-k"):
                assert cert.size == minimum, (cert.algorithm, sd.graph.arcs)
            counts[cert.algorithm] += 1
    return counts


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 5
    start = time.perf_counter()
    try:
        counts = sweep(n)
    except AssertionError as exc:
        print(f"n = {n}: check failed: {exc}")
        return 1
    print(f"n = {n}: {counts.pop('instances')} instances, "
          f"{sum(counts.values())} certificates in {time.perf_counter() - start:.1f} s")
    print(" ".join(f"{label}={count}" for label, count in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
