"""Immutable digraphs, split partitions, and quasi-kernel predicates.

Vertices are dense integer indices 0..n-1.  Digraphs are loopless and
simple; a digon is stored as two opposite arcs.  Every value here is
immutable after construction and every operation is a pure function, so
shared use across threads is safe.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, Mapping, NamedTuple, Sequence

Arc = tuple[int, int]
# bin() digits to the bytes 0 and 1, for itertools.compress
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class SplitError(ValueError):
    """A clique/independent bipartition violates the split-digraph invariants."""


class PreconditionError(ValueError):
    """An algorithm was invoked outside its stated preconditions."""


class NotQuasiKernelError(ValueError):
    """A certified set failed the quasi-kernel check.

    ``vertex`` is the first offending vertex in ascending scan order:
    either a set member adjacent to another member, or a vertex with no
    directed path of length <= 2 into the set.
    """

    def __init__(self, message: str, vertex: int):
        super().__init__(message)
        self.vertex = vertex


class VerificationError(RuntimeError):
    """A proof-carrying result failed its own re-verification."""


def _immutable(self, name: str, *value: object) -> None:
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class Induced(NamedTuple):
    """An induced subdigraph together with its index remap."""

    graph: "Digraph"
    old_of_new: tuple[int, ...]
    new_of_old: dict[int, int]


class SplitFlags(NamedTuple):
    one_way: bool
    complete_split: bool
    orientation: bool
    sink_free: bool


class QkCertificate(NamedTuple):
    """A quasi-kernel plus a length-<=2 witness path for every outside vertex.

    ``witnesses`` maps each vertex v outside ``vertices`` to a tuple or list
    (v, q) or (v, w, q) of arcs ending inside ``vertices``.  ``bound`` is
    the size bound that the ``algorithm`` label records (``label_bound``).
    """

    vertices: frozenset[int]
    witnesses: Mapping[int, tuple[int, ...]]
    algorithm: str
    bound: Fraction | None = None

    @property
    def size(self) -> int:
        return len(self.vertices)

    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))

    def check(self, d: "Digraph") -> None:
        """Re-verify against the raw adjacency; raise VerificationError on failure."""
        out = d.out_masks
        inside = 0
        for v in self.vertices:
            if type(v) is not int:
                raise VerificationError(f"certificate vertex {v!r} is not an int (bool is rejected)")
            if not 0 <= v < d.n:
                raise VerificationError(f"certificate vertex {v} out of range")
            inside |= 1 << v
        for v in self.vertices:
            if out[v] & inside:
                raise VerificationError(f"certificate set not independent at vertex {v}")
        witnesses = self.witnesses
        # a path is read by len and index, which a set, a mapping or an
        # iterator fails with TypeError or KeyError
        if not {tuple, list}.issuperset(map(type, witnesses.values())):
            v, path = next((v, p) for v, p in witnesses.items() if type(p) not in (tuple, list))
            raise VerificationError(f"witness for {v} is {path!r}, not an int tuple or list")
        # bool is an int: True would pass for vertex 1 and be written as True
        paths = witnesses.values()
        if not {int}.issuperset(map(type, chain(witnesses, chain.from_iterable(paths)))):
            bad = next(u for u in chain(witnesses, chain.from_iterable(paths)) if type(u) is not int)
            raise VerificationError(f"witness entry {bad!r} is not an int (bool is rejected)")
        # the keys are distinct ints, so in range their bits sum to their mask
        n = d.n
        in_range = not witnesses or 0 <= min(witnesses) and max(witnesses) < n
        if not in_range or sum(map((1).__lshift__, witnesses)) != d.full_mask & ~inside:
            raise VerificationError("witness table does not cover exactly the outside vertices")
        # v is in range, and each path's last vertex is a set member, so in
        # range too: only a middle vertex needs a range test
        vertices = self.vertices
        for v, path in witnesses.items():
            length = len(path)
            if not 2 <= length <= 3:
                raise VerificationError(f"witness for {v} has invalid length {length}")
            q = path[-1]
            if path[0] != v or q not in vertices:
                raise VerificationError(f"witness for {v} has wrong endpoints")
            a = v
            if length == 3:
                a = path[1]
                if not (0 <= a < n and out[v] >> a & 1):
                    raise VerificationError(f"witness arc ({v},{a}) for {v} not in the digraph")
            if not out[a] >> q & 1:
                raise VerificationError(f"witness arc ({a},{q}) for {v} not in the digraph")
        if self.bound is not None and self.size > self.bound:
            raise VerificationError(f"certificate size {self.size} exceeds its bound {self.bound}")
        if self.algorithm not in LABELS or self.bound != label_bound(self.algorithm, d):
            raise VerificationError(f"bound {self.bound} is not the one label {self.algorithm!r} records")


# every certificate label: qkdg solve's --algo choices in order, then verify
LABELS = ("cl", "one-way", "two-thirds", "peel", "complete-split", "fpt-k", "fpt-i", "exact", "verify")


def _one_way_size_cap(n: int) -> int:
    """Largest integer size with size <= (n+3)/2 - sqrt(n), exactly."""
    s = math.isqrt(4 * n)
    if s * s < 4 * n:
        s += 1
    return (n + 3 - s) // 2


def label_bound(label: str, d: "Digraph") -> Fraction | None:
    """The size bound a certificate labelled ``label`` records for d, or None
    for the searches and verify; ValueError for an unknown label."""
    if label == "one-way":
        return Fraction(_one_way_size_cap(d.n) if d.n else 0)
    if label == "two-thirds":
        return Fraction(2 * d.n, 3)
    if label == "peel":
        sinks = d.sinks()
        return Fraction(2, 3) * (d.n + sinks.bit_count() - d.in_set_mask(sinks).bit_count())
    if label == "complete-split":
        # the sink set, or with no sink 2: one vertex alone is a sink
        return Fraction(d.sinks().bit_count() or min(d.n, 2))
    if label not in LABELS:
        raise ValueError(f"unknown certificate label {label!r}")
    return None


def members(mask: int) -> list[int]:
    """Positions of the set bits of a vertex mask, ascending.

    A mask whose set bits are at least an eighth of its bit length is
    listed in one C-level walk over its binary digits, as
    ``files.serialize_instance`` lists dense rows; a sparser one pops its
    low bits, so the cost stays linear in its members.  So does a mask of
    fewer than 16 members: the walk has a fixed cost that popping up to
    about 16 bits undercuts, and the exact search's rows are that short.
    """
    count = mask.bit_count()
    if count >= 16 and count * 8 >= mask.bit_length():
        return list(compress(range(mask.bit_length()), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def lowest(mask: int) -> int:
    """Smallest vertex in a nonempty vertex mask."""
    return (mask & -mask).bit_length() - 1


def reach_within(rows: Sequence[int], v: int, within: int) -> int:
    """The package's one two-step closure: v and the vertices of mask
    ``within``, which holds v, that reach v in at most two arcs inside it by
    the in-rows ``rows``; by out-rows, the vertices that v reaches."""
    near = rows[v] & within
    reach = near | 1 << v
    for w in members(near):
        # once all of within is in, the remaining rows add nothing
        if reach == within:
            break
        reach |= rows[w] & within
    return reach


def or_rows(rows: Sequence[int], selectors: Iterable[int]) -> list[int]:
    """For each selector mask s, the OR of rows[j] over the set bits j of s.

    The method of Four Russians (Arlazarov, Dinic, Kronrod & Faradzev,
    1970): the ORs of every subset of each aligned group of four rows are
    tabled once, 16 a group, and each byte of a selector then picks one
    entry from each of its two groups.  The tables hold 4 * len(rows) ints
    as long as the rows, so this is for a tournament's row lists, which are
    few and which many dense selectors share.  It does not pay for the step
    tables of the exact search (``exact._qk_tables``): on a sparse
    20,000-vertex digraph the tables alone took 158 MiB and 0.49 s, and
    each selector about 17 ms.  A selector with a bit at len(rows) or
    above raises ValueError.
    """
    n = len(rows)
    tables = []
    for start in range(0, n, 4):
        table = [0]
        for row in rows[start:start + 4]:
            table += [entry | row for entry in table]
        tables.append(table)
    # a byte spans two groups; the missing last one of an odd count is empty
    pairs = list(zip(tables[0::2], tables[1::2] + [[0]]))
    size = (n + 7) // 8
    result = []
    for sel in selectors:
        if sel >> n:
            raise ValueError(f"selector has a bit outside the {n} rows")
        acc = 0
        for (low, high), byte in zip(pairs, sel.to_bytes(size, "little")):
            if byte:
                acc |= low[byte & 15] | high[byte >> 4]
        result.append(acc)
    return result


class Digraph:
    """A loopless simple digraph on vertices 0..n-1.

    Arcs are ordered pairs (tail, head) of plain ints; repeated arcs
    collapse, and a loop, an out-of-range endpoint (ValueError) or a
    non-int or bool endpoint (TypeError) is rejected.  Adjacency is stored
    only as per-vertex int bitmasks: bit h of ``out_masks[t]`` and bit t
    of ``in_masks[h]`` are set iff (t, h) is an arc.  ``arcs`` lists the
    arcs from the masks, as an ascending tuple of (tail, head) pairs, on
    each access.  The neighborhood operators and ``sinks`` take
    and return vertex masks: bit v is set iff v is a member.
    """

    __slots__ = ("n", "_out", "_in")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        out = [0] * n
        inn = [0] * n
        for arc in arcs:
            t, h = arc
            if type(t) is not int or type(h) is not int:
                raise TypeError(f"arc {arc!r}: endpoints must be int (bool is rejected)")
            if t == h:
                raise ValueError(f"loop arc ({t},{h}) not allowed")
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"arc ({t},{h}) endpoint out of range for n={n}")
            out[t] |= 1 << h
            inn[h] |= 1 << t
        self._store(n, out, inn)

    @classmethod
    def _from_masks(cls, n: int, out: list[int], inn: list[int]) -> "Digraph":
        """A digraph from mask rows that its caller has already checked:
        bit h of out[t] set iff bit t of inn[h] is, no loops, no bit at n
        or above."""
        graph = cls.__new__(cls)
        graph._store(n, out, inn)
        return graph

    def _store(self, n: int, out: list[int], inn: list[int]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_out", tuple(out))
        object.__setattr__(self, "_in", tuple(inn))

    def __reduce__(self):
        return Digraph._from_masks, (self.n, self._out, self._in)

    # -- basic accessors ------------------------------------------------

    @property
    def out_masks(self) -> tuple[int, ...]:
        return self._out

    @property
    def in_masks(self) -> tuple[int, ...]:
        return self._in

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple((t, h) for t, row in enumerate(self._out) for h in members(row))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sum(row.bit_count() for row in self._out)})"

    def mask_of(self, s: Iterable[int]) -> int:
        """Vertex mask of s; TypeError on a non-int or bool member, ValueError out of range."""
        mask = 0
        for v in s:
            if type(v) is not int:
                raise TypeError(f"vertex {v!r} must be int (bool is rejected)")
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")
            mask |= 1 << v
        return mask

    # -- neighborhood operators on masks --------------------------------

    def in_set_mask(self, s: int) -> int:
        """Mask of the vertices outside mask s with an out-neighbor in s."""
        inn = self._in
        near = 0
        for v in members(s):
            near |= inn[v]
        return near & ~s

    def reach_in_two(self, v: int, within: int | None = None) -> int:
        """Mask of the vertices that reach v by a path of at most two arcs.

        With a vertex mask ``within`` that contains v, only paths inside it
        count and only its vertices are reported.
        """
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return reach_within(self._in, v, self.full_mask if within is None else within)

    def sinks(self, within: int | None = None) -> int:
        """Mask of the vertices with no out-neighbor.

        With a vertex mask ``within``, only arcs inside it count and only
        its vertices are reported.
        """
        if within is None:
            within = self.full_mask
        out = self._out
        sinks = 0
        for v in members(within):
            if not out[v] & within:
                sinks |= 1 << v
        return sinks

    # -- predicates -------------------------------------------------------

    def _independent_mask(self, s: int) -> bool:
        out = self._out
        return not any(out[v] & s for v in members(s))

    def is_quasi_kernel(self, s: Iterable[int]) -> bool:
        return self._quasi_kernel_mask(self.mask_of(s), self.full_mask)

    def _quasi_kernel_mask(self, mask: int, within: int) -> bool:
        """Whether mask is a quasi-kernel of the subdigraph that mask
        ``within`` induces: only paths inside it count."""
        if mask & ~within or not self._independent_mask(mask):
            return False
        first = self.in_set_mask(mask) & within
        return mask | first | self.in_set_mask(first) & within == within

    def is_two_serf(self, v: int) -> bool:
        return self.reach_in_two(v) == self.full_mask

    def semicomplete_violation(self, within: int | None = None) -> Arc | None:
        """First pair (u, v), u < v, joined by no arc; None if semicomplete.

        With a vertex mask ``within``, only the pairs inside it count.
        """
        if within is None:
            within = self.full_mask
        out, inn = self._out, self._in
        for u in members(within):
            # a non-neighbor below u would have been reported at its own turn
            missing = within & ~(out[u] | inn[u] | 1 << u)
            if missing:
                return (u, lowest(missing))
        return None

    # -- construction helpers ---------------------------------------------

    def induced(self, s: Iterable[int]) -> Induced:
        """Subdigraph on s, with the old<->new index association retained.

        New index i is the i-th smallest member of s.  The copy is built by
        the public constructor, from the kept arcs renumbered to new indices.
        """
        keep = self.mask_of(s)
        old_of_new = tuple(members(keep))
        new_of_old = {old: new for new, old in enumerate(old_of_new)}
        out = self._out
        arcs = [(i, new_of_old[h]) for i, t in enumerate(old_of_new) for h in members(out[t] & keep)]
        return Induced(Digraph(len(old_of_new), arcs), old_of_new, new_of_old)

    def certify(self, s: Iterable[int], algorithm: str) -> QkCertificate:
        """Build a witness-carrying certificate, or raise NotQuasiKernelError.

        The failure report names the first offending vertex in ascending
        order.  Witness choice is deterministic (smallest usable indices).
        An unknown label raises ValueError first; a quasi-kernel over the
        bound its label records (``label_bound``) raises VerificationError.
        """
        bound = label_bound(algorithm, self)
        fs = frozenset(s)
        mask = self.mask_of(fs)
        first = self.in_set_mask(mask)
        out = self._out
        witnesses: dict[int, tuple[int, ...]] = {}
        for v, row in enumerate(out):
            if mask >> v & 1:
                if row & mask:
                    raise NotQuasiKernelError(
                        f"set not independent: vertex {v} has an arc into the set", v
                    )
                continue
            direct = row & mask
            if direct:
                witnesses[v] = (v, lowest(direct))
                continue
            mid = row & first
            if not mid:
                raise NotQuasiKernelError(
                    f"vertex {v} has no directed path of length <= 2 into the set", v
                )
            w = lowest(mid)
            witnesses[v] = (v, w, lowest(out[w] & mask))
        if bound is not None and len(fs) > bound:
            raise VerificationError(f"certificate size {len(fs)} exceeds its bound {bound}")
        return QkCertificate(fs, witnesses, algorithm, bound)


class SplitDigraph:
    """A digraph plus a validated clique/independent bipartition.

    Invariants: the parts partition the vertex set, every unordered pair
    inside the clique part is joined by at least one arc, and no arc has
    both endpoints in the independent part.  ``clique`` is the clique part
    as a vertex mask; ``independent`` derives the other part's mask from it.
    """

    __slots__ = ("graph", "clique")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, graph: Digraph, clique: Iterable[int], independent: Iterable[int]):
        k = frozenset(clique)
        i = frozenset(independent)
        for v in k | i:
            if not 0 <= v < graph.n:
                raise SplitError(f"part member {v} out of range for n={graph.n}")
        if k & i or len(k) + len(i) != graph.n:
            raise SplitError("clique and independent parts do not partition the vertex set")
        out = graph.out_masks
        k_mask, i_mask = graph.mask_of(k), graph.mask_of(i)
        pair = graph.semicomplete_violation(k_mask)
        if pair is not None:
            raise SplitError(f"missing clique adjacency ({pair[0]},{pair[1]})")
        for t in members(i_mask):
            if out[t] & i_mask:
                raise SplitError(f"arc inside independent part ({t},{lowest(out[t] & i_mask)})")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "clique", k_mask)

    def __reduce__(self):
        return SplitDigraph, (self.graph, members(self.clique), members(self.independent))

    @property
    def independent(self) -> int:
        return self.graph.full_mask & ~self.clique

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SplitDigraph):
            return NotImplemented
        return self.graph == other.graph and self.clique == other.clique

    def __hash__(self) -> int:
        return hash((self.graph, self.clique))

    def __repr__(self) -> str:
        return (
            f"SplitDigraph(n={self.graph.n}, |K|={self.clique.bit_count()},"
            f" |I|={self.independent.bit_count()})"
        )

    def classify(self) -> SplitFlags:
        g = self.graph
        out, inn = g.out_masks, g.in_masks
        k_mask = self.clique
        indep = members(self.independent)
        return SplitFlags(
            one_way=not any(inn[s] for s in indep),
            complete_split=all((out[s] | inn[s]) & k_mask == k_mask for s in indep),
            orientation=not any(o & i for o, i in zip(out, inn)),
            sink_free=all(out),
        )

