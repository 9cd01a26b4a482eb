"""Answer checks that share no code with the package under test.

Instance and certificate files are read with this module's own parser, and
a set is tested as a quasi-kernel by scanning the arc list, so a defect in
the package's parser, its ``Digraph`` or ``QkCertificate.check`` cannot hide
a wrong answer.  The brute-force minima are only run on instances of at
most 18 vertices.
"""
from __future__ import annotations

import hashlib
from itertools import combinations


class Instance:
    """A ``qkdg 1`` instance file: vertex count, clique part (or None), arcs."""

    def __init__(self, text: str):
        self.n = 0
        self.clique: frozenset[int] | None = None
        self.arcs: list[tuple[int, int]] = []
        for line in text.splitlines():
            fields = line.split()
            if not fields or fields[0] in ("#", "qkdg"):
                continue
            if fields[0] == "n":
                self.n = int(fields[1])
            elif fields[0] == "k":
                self.clique = frozenset(int(f) for f in fields[1:])
            elif fields[0] == "a":
                self.arcs.append((int(fields[1]), int(fields[2])))
            else:
                raise ValueError(f"unknown instance line {line!r}")

    def digest(self) -> str:
        """sha256 of the canonical form: no comments, k line and arcs ascending."""
        lines = ["qkdg 1", f"n {self.n}"]
        if self.clique is not None:
            lines.append(" ".join(["k", *map(str, sorted(self.clique))]))
        lines += [f"a {t} {h}" for t, h in sorted(self.arcs)]
        text = "\n".join(lines) + "\n"
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()

    def sinks(self) -> set[int]:
        return set(range(self.n)) - {t for t, _ in self.arcs}


def read_certificate(text: str) -> dict[str, str]:
    """The directive lines of a ``qkcert 1`` file, keyed by directive."""
    lines = text.splitlines()
    if not lines or lines[0] != "qkcert 1":
        raise ValueError("certificate lacks the 'qkcert 1' header")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        tag, _, rest = line.partition(" ")
        if tag != "w":
            fields[tag] = rest
    return fields


def qk_violation(inst: Instance, s: frozenset[int]) -> str | None:
    """Why s is not a quasi-kernel of inst, or None when it is one."""
    if any(not 0 <= v < inst.n for v in s):
        return "vertex out of range"
    first: set[int] = set()
    for t, h in inst.arcs:
        if h in s:
            if t in s:
                return f"arc ({t},{h}) inside the set"
            first.add(t)
    second = {t for t, h in inst.arcs if h in first}
    missing = inst.n - len(s | first | second)
    return None if missing == 0 else f"{missing} vertices reach no member within two arcs"


def _bits(v: int) -> list[int]:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def _in_masks(inst: Instance) -> list[int]:
    inn = [0] * inst.n
    for t, h in inst.arcs:
        inn[h] |= 1 << t
    return inn


def _reach_masks(inst: Instance) -> list[int]:
    """Bit u of entry v is set when u reaches v in at most two arcs."""
    inn = _in_masks(inst)
    masks = []
    for v in range(inst.n):
        m = (1 << v) | inn[v]
        for u in _bits(inn[v]):
            m |= inn[u]
        masks.append(m)
    return masks


def _min_cover(n: int, cover: list[int], conflict: list[int] | None = None) -> int:
    """Smallest subset whose cover masks OR to all n bits, skipping subsets
    with a conflicting pair."""
    full = (1 << n) - 1
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if conflict is not None and any(
                conflict[a] >> b & 1 for a, b in combinations(combo, 2)
            ):
                continue
            m = 0
            for v in combo:
                m |= cover[v]
            if m == full:
                return k
    raise ValueError("no cover exists")


def min_quasi_kernel_size(inst: Instance) -> int:
    if inst.n > 18:
        raise ValueError("brute force limited to 18 vertices")
    adj = _in_masks(inst)
    for t, h in inst.arcs:
        adj[t] |= 1 << h
    return _min_cover(inst.n, _reach_masks(inst), adj)


def min_dominating_size(inst: Instance) -> int:
    """Smallest S with every vertex in S or having an out-neighbour in S."""
    if inst.n > 18:
        raise ValueError("brute force limited to 18 vertices")
    inn = _in_masks(inst)
    return _min_cover(inst.n, [(1 << v) | inn[v] for v in range(inst.n)])


def has_two_serf(inst: Instance) -> bool:
    full = (1 << inst.n) - 1
    return any(m == full for m in _reach_masks(inst))


def within_one_way_bound(n: int, size: int) -> bool:
    """size <= (n+3)/2 - sqrt(n), in exact integer arithmetic."""
    t = n + 3 - 2 * size
    return t >= 0 and t * t >= 4 * n


def peel_bound_ok(inst: Instance, size: int) -> bool:
    """size <= 2/3 * (n + |S| - |N-(S)|) for the sink set S."""
    sinks = inst.sinks()
    near = {t for t, h in inst.arcs if h in sinks}
    return 3 * size <= 2 * (inst.n + len(sinks) - len(near))
