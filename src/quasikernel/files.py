"""Instance and certificate text formats.

Instance files ("qkdg 1"): a vertex-count line, an optional clique-part
line turning the file into a split digraph, and one line per arc, in any
order when read and ascending when written.  A file is read a block at a
time, its text once, in chunks of whole lines: the arc lines of a dense
file written so in bulk, any other text line by line; the parser numbers
the line of every error, the file's (byte cap, UTF-8) too.  Certificate
files ("qkcert 1") carry the algorithm label, the vertex set, per-vertex
witness paths, the bound in force, and a digest of the instance they
certify.  Both formats are line-based and human-diffable; they are
written LF-terminated and read with any line ending.
"""
from __future__ import annotations

import codecs
import os
import re
from fractions import Fraction
from itertools import chain, compress, groupby, repeat
from typing import Any, BinaryIO, Iterable, Iterator, Mapping, Sequence

from .digraph import (
    _BIT_BYTES,
    Digraph,
    QkCertificate,
    SplitDigraph,
    SplitError,
    VerificationError,
    members,
)

INSTANCE_MAGIC = "qkdg 1"
CERTIFICATE_MAGIC = "qkcert 1"
# a mask row is as long as its highest member, so the masks take up to
# 2 * n**2 / 8 bytes.  At n = 20,000 the 40k arcs (v, 19999) and (19999, v)
# reach that: one parse peaks at 108 MiB under tracemalloc, 103 MiB of masks
MAX_VERTICES = 20_000
MAX_ARCS = 2_000_000
# room for MAX_ARCS arc lines of at most 14 bytes ("a 19999 19999\n") and a
# label comment per vertex; a read of a file over it stops at the byte past it
MAX_INSTANCE_BYTES = 16 * (MAX_ARCS + MAX_VERTICES)
# the most bytes of an instance file read at once
_READ_BLOCK = 1 << 14
# the most characters of whole lines that parse_instance reads at once, unless
# one line is longer: it bounds the line and token lists, about 30 times that
BULK_CHUNK = 8192
_ARC_CHARS = b"0123456789a \n"
# the class of the characters that end a line for str.splitlines, a CR with
# an LF after it ending one line
_LINE_ENDS = "[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]"
_LINE_END = re.compile(_LINE_ENDS)
_THROUGH_LAST_LINE_END = re.compile(".*" + _LINE_ENDS, re.S)
# the columns c of one byte with bit s of c set, for s = 1, 2, 4
_LOW_COLUMNS = {1: 0xAA, 2: 0xCC, 4: 0xF0}


class InstanceParseError(ValueError):
    """An instance file is malformed; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Fault(Exception):
    """A read error among the blocks of ``_file_text``: the parser numbers it."""


class CertificateParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def serialize_instance(obj: Digraph | SplitDigraph, comments: Sequence[str] = ()) -> str:
    """Canonical text form: header, comments, n, optional k line, arcs ascending."""
    graph = obj.graph if isinstance(obj, SplitDigraph) else obj
    lines = [INSTANCE_MAGIC]
    lines += [f"# {c}" for c in comments]
    lines += _size_lines(graph.n, members(obj.clique) if isinstance(obj, SplitDigraph) else None)
    names = [str(v) for v in range(graph.n)]
    for t, row in enumerate(graph.out_masks):
        if row:
            # both list the heads ascending: bin(row) walks every bit
            # position and members(row) only the set ones, so a sparse row
            # with a high head takes members and stays linear in its arcs
            if row.bit_count() * 8 >= row.bit_length():
                heads = compress(names, bin(row)[:1:-1].encode().translate(_BIT_BYTES))
            else:
                heads = [names[h] for h in members(row)]
            prefix = f"a {names[t]} "
            lines.append(prefix + ("\n" + prefix).join(heads))
    return "\n".join(lines) + "\n"


def _size_lines(n: int, clique: Iterable[int] | None) -> list[str]:
    """The n line and, for a split digraph, the k line of the clique
    part, given ascending, as serialize_instance writes them."""
    lines = [f"n {n}"]
    if clique is not None:
        lines.append(("k " + " ".join(map(str, clique))).rstrip())
    return lines


class _Reading:
    """What the instance lines read so far have set."""

    def __init__(self) -> None:
        self.lines = 0
        self.header_seen = False
        self.n: int | None = None
        self.clique: list[int] | None = None
        # out[t] bit h and inn[h] bit t set for every arc (t, h)
        self.out: list[int] = []
        self.inn: list[int] = []
        self.arc_count = 0
        # canonical spelling of each vertex -> vertex, built by the line
        # reader at its first arc line
        self.index: dict[str, int] | None = None
        # for a digest, while every arc line so far was read in bulk and
        # is canonical: the sha256 of the canonical text up to it, and the
        # tail of the last arc hashed; else None
        self.sha: Any = None
        self.tail = -1


def parse_instance(
    text: str, *, digest: bool = False
) -> Digraph | SplitDigraph | tuple[Digraph | SplitDigraph, str | None]:
    """The digraph, or split digraph, of an instance text; with ``digest``,
    the pair of it and its ``instance_digest`` when the text proves that
    digest as it is read, else None.

    The text is read once, in chunks of whole lines: the lines before the
    first line that starts 'a ' after an LF, then the rest, each chunk at
    most BULK_CHUNK characters or one longer line.  A chunk ends at a line
    boundary of ``str.splitlines`` (LF, CR, CRLF, VT, U+2028 and the
    others), never between a CR and its LF, so the chunks' lines are the
    text's lines, whatever ends them.  From the first arc
    line on, while the text is dense enough for the transpose to pay,
    each chunk is read in bulk (``_read_dense``), all or nothing; the
    first chunk it refuses, and every chunk after it, is read line by
    line, so every error, message and line number is the line reader's.
    The bulk reader looks each token up, as bytes, in one table of the
    vertices' bits, built only once the text is found dense: its ints take
    about n**2 / 16 bytes, under a sixth of the arc block.

    With ``digest``, a dense text hashes as it is read: the canonical n
    and k lines (whatever the comments, spellings and k order before the
    arcs), then the bytes of each chunk the bulk reader finds canonical.
    If every chunk to the end of the text is, the text's arc block is
    ``serialize_instance``'s, and the hash is the digest; a chunk read
    line by line or not canonical drops the hash, and the digest is None.

    The text is the one block of ``_parse_blocks``, which
    ``_read_instance`` feeds from a file a block at a time, so this call
    copies nothing of it.
    """
    return _parse_blocks([text], len(text), digest)


def _parse_blocks(
    blocks: Iterable[str | _Fault], size: int, digest: bool
) -> Digraph | SplitDigraph | tuple[Digraph | SplitDigraph, str | None]:
    """``parse_instance`` of the text that is the concatenation of blocks,
    read as they come.  Only the text not yet cut into chunks is held
    between blocks: the unread partial line, held whole however many
    blocks it spans, and up to a chunk more when the text read so far
    cannot yet tell where the next chunk ends.  The chunks are those of
    the whole text, so the outcome is too.

    ``size`` stands in for the text's length in the density test, which
    is taken when the first arc line is reached: a text read from a file
    passes the file's size, 0 when it has none, and is then read line by
    line.  Either reader gives the same digraph, and the digest a
    certificate names is the same.

    A block may be a read error of ``_file_text`` (a ``_Fault``).  A
    fault, or a parse error, stops the parse, and the blocks are read on
    to their end, each counted for its line ends and then dropped: a
    fault comes before a parse error, a later fault before an earlier
    one.  A fault's line is one more than the line ends before it, those
    of the lines read (``reading.lines``), of the text held and of the
    blocks read on; only this path counts them.
    """
    reading = _Reading()
    dense = transposed = False
    bits: dict[bytes, int] = {}
    # the text held, to be cut into chunks from pos on, and the offset of
    # text[0] in the whole text
    text = ""
    pos = start = 0
    # the offset of the first arc line once found, else -1; until then,
    # the last two characters read, for a '\na ' across two blocks
    arcs = -1
    tail = ""
    # the characters read, the last of them, and the blocks read since the
    # last one that holds a line end, joined to the text when one does
    read = 0
    final = ""
    held: list[str] = []
    blocks = iter(blocks)
    try:
        for block in chain(blocks, [None]):
            done = block is None
            if not done:
                if not block:
                    continue
                if isinstance(block, _Fault):
                    raise block
                if arcs < 0:
                    found = (tail + block[:2]).find("\na ") if tail else -1
                    if found >= 0:
                        arcs = read - len(tail) + found + 1
                    elif (found := block.find("\na ")) >= 0:
                        arcs = read + found + 1
                    else:
                        tail = (tail + block[-2:])[-2:]
                read += len(block)
                final = block[-1]
                held.append(block)
                # a block without a line end is held until one with a line end
                # comes, so that a long line is joined once, not once a block
                if not _LINE_END.search(block):
                    continue
            if held:
                # one block alone is taken as it is, not copied
                text = "".join([text[pos:], *held] if pos < len(text) else held)
                start += pos
                pos = 0
                held = []
            while pos < len(text):
                # the chunk's limit and end must not depend on text not yet read
                if pos < arcs - start:
                    limit = min(arcs - start, pos + BULK_CHUNK)
                elif done:
                    limit = min(len(text), pos + BULK_CHUNK)
                elif pos + BULK_CHUNK < len(text):
                    limit = pos + BULK_CHUNK
                else:
                    break
                end = _chunk_end(text, pos, limit)
                if end == len(text) and not done:
                    break
                if start + pos == arcs:
                    n = reading.n
                    # the rest holds up to len / 6 arc lines; at n**2 <= 16 * that,
                    # one transpose costs less than setting in-mask bits arc by arc
                    dense = (n is not None and n >= 64 and not reading.arc_count
                             and n * n * 6 <= 16 * (size - arcs))
                    if dense:
                        bits = {str(v).encode(): 1 << v for v in range(n)}
                        if digest:
                            clique = reading.clique
                            head = _size_lines(n, None if clique is None else sorted(clique))
                            reading.sha = _sha256("\n".join([INSTANCE_MAGIC, *head]).encode() + b"\n")
                if dense and _read_dense(text[pos:end], reading, bits):
                    transposed = True
                else:
                    dense = False
                    reading.sha = None
                    _read_lines(reading, text[pos:end].splitlines())
                pos = end
    except (InstanceParseError, _Fault) as exc:
        # read on to the end, the last fault before the first and a parse
        # error, counting the line ends of the lines read, of the text held
        # (a held block has none) and of the blocks read on
        error = exc
        lines = reading.lines + sum(1 for _ in _LINE_END.finditer(text, pos))
        for block in chain([exc], blocks):
            if isinstance(block, str):
                # a count reads ASCII text without the rarer line ends 30 times as fast
                rare = not block.isascii() or any(end in block for end in "\v\f\x1c\x1d\x1e")
                lines += sum(1 for _ in _LINE_END.finditer(block)) if rare else block.count("\n")
            elif isinstance(block, _Fault):
                error = InstanceParseError(str(block), lines + 1)
        raise error from None
    # the text and the bit table go first: on a large dense file the
    # transpose peaks above the read
    del text, bits
    if transposed:
        reading.inn = _transpose(reading.out, reading.n)

    # the line after the last line end, counted as splitlines counts lines
    last = reading.lines + 1 if _LINE_END.match(final) else max(reading.lines, 1)
    if not reading.header_seen:
        raise InstanceParseError(f"missing header '{INSTANCE_MAGIC}'", 1)
    n = reading.n
    if n is None:
        raise InstanceParseError("missing n line", last)
    # every arc was checked on its way in, so the masks need no second pass
    instance: Digraph | SplitDigraph = Digraph._from_masks(n, reading.out, reading.inn)
    clique = reading.clique
    if clique is not None:
        independent = sorted(set(range(n)) - set(clique))
        try:
            instance = SplitDigraph(instance, clique, independent)
        except SplitError as exc:
            raise InstanceParseError(f"invalid split partition: {exc}", last) from exc
    if not digest:
        return instance
    sha = reading.sha
    return instance, None if sha is None else "sha256:" + sha.hexdigest()


def _read_instance(
    path: str, *, digest: bool = False
) -> Digraph | SplitDigraph | tuple[Digraph | SplitDigraph, str | None]:
    """The instance in a file, as parse_instance reads its text, with or
    without ``digest``.  The parser takes the text a block at a time
    (``_file_text``), so the read holds a block of the file and the
    parser the text it has not yet read: the partial line, which a long
    line makes long, up to the byte cap.  The density test uses the
    file's stat size: a FIFO's, 0, sends it to the line reader, which
    gives the same instance.

    A file over the cap, then a file that is not UTF-8, is refused before
    a parse error: after a parse error, the file is read on to its end."""
    # unbuffered, by position: a keyword argument would make the first call
    # build, and keep, the argument parser's keyword table
    with open(path, "rb", 0) as f:
        size = os.fstat(f.fileno()).st_size
        return _parse_blocks(_file_text(f, size, MAX_INSTANCE_BYTES), size, digest)


def _file_text(f: BinaryIO, size: int, cap: int) -> Iterator[str | _Fault]:
    """The text of a file read unbuffered, a block at a time, to one byte
    past ``cap``, decoded as UTF-8 and with CR and CRLF turned into LF, as
    a text-mode read would: its blocks, in order, and its read errors.

    ``size``, the file's stat size, sizes the reads: a read is at most
    _READ_BLOCK bytes, and the reads take the file to one byte past its
    size, so a file that holds its size takes reads that come to its size
    and come short of the byte past it.  A file longer than its size (a
    device or a FIFO reports size 0) goes on in whole blocks until a read
    finds nothing.  A read error is a ``_Fault`` in place of the faulty
    byte's character, after the text before it: the first byte that is
    not UTF-8, after which the text goes on with replacement characters,
    which end no line, and, last, the byte past the cap, where the text
    ends.  Nothing here counts lines: the parser numbers the faults.
    """
    got = 0
    ended = False
    errors = "strict"
    # the bytes of a character that the last block cut, or the CR that
    # ended it, which an LF at the start of the next block goes with
    pending = b""
    while not ended:
        # to one byte past the stat size, then, if the file goes on, past the cap
        want = min((min(size, cap) if got <= size else cap) + 1 - got, _READ_BLOCK)
        block = f.read(want)
        got += len(block)
        # a read that comes to the stat size and short of the byte past it
        # found the end, as a read that finds nothing does
        ended = len(block) < want and (got == size or not block)
        data = pending + block
        del block
        over = got > cap
        if over:
            # the text ends before the byte past the cap; an LF there
            # takes the CR before it along, onto the CR's line
            data = data[:-2 if data.endswith(b"\r\n") else -1]
        # the step of the UTF-8 incremental decoder, without its object: the
        # bytes of a character that the block cuts stay undecoded, unless final
        try:
            text, used = codecs.utf_8_decode(data, errors, ended)
        except UnicodeDecodeError as exc:
            yield data[:exc.start].decode().replace("\r\n", "\n").replace("\r", "\n")
            yield _Fault(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})")
            errors = "replace"
            data = data[exc.start:]
            text, used = codecs.utf_8_decode(data, errors, ended)
        pending = data[used:]
        del data
        if not (pending or ended or over) and text.endswith("\r"):
            text = text[:-1]
            pending = b"\r"
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        yield text
        if over:
            yield _Fault(f"file over the cap MAX_INSTANCE_BYTES={cap}")
            return


def _chunk_end(text: str, pos: int, limit: int) -> int:
    """Where the chunk of whole lines from pos ends: after the last line
    end before limit, else after the first one from pos, else at the end
    of the text.  A CR takes the LF after it along."""
    found = _THROUGH_LAST_LINE_END.match(text, pos, limit) or _LINE_END.search(text, pos)
    if not found:
        return len(text)
    end = found.end()
    return end + 1 if text[end - 1] == "\r" and text.startswith("\n", end) else end


def _read_lines(reading: _Reading, lines: Iterable[str]) -> None:
    """Read the next lines of an instance text into ``reading``, checking
    each one and setting both mask bits of each arc."""
    header_seen, n, clique = reading.header_seen, reading.n, reading.clique
    out, inn, arc_count, index = reading.out, reading.inn, reading.arc_count, reading.index
    lineno = reading.lines
    for lineno, raw in enumerate(lines, start=lineno + 1):
        # at most 4 fields, so a long comment is not split into a long list
        fields = raw.split(None, 3)
        if not fields:
            continue
        tag = fields[0]
        # nearly every line is an arc, so test for one first; n is set only
        # after the header
        if tag == "a" and n is not None:
            if arc_count == MAX_ARCS:
                raise InstanceParseError(f"arc count over the cap MAX_ARCS={MAX_ARCS}", lineno)
            if len(fields) != 3:
                raise InstanceParseError("arc line must be 'a <tail> <head>'", lineno)
            if index is None:
                index = {str(v): v for v in range(n)}
            t = index.get(fields[1])
            h = index.get(fields[2])
            if t is None or h is None:
                # a spelling outside the table ('+1', '01', '1_0') reads as int() reads it
                try:
                    t = int(fields[1])
                    h = int(fields[2])
                except ValueError:
                    raise InstanceParseError("arc line must be 'a <tail> <head>'", lineno) from None
                if not (0 <= t < n and 0 <= h < n):
                    raise InstanceParseError(f"arc ({t},{h}) endpoint out of range", lineno)
            if t == h:
                raise InstanceParseError(f"loop arc ({t},{t}) not allowed", lineno)
            row = out[t]
            if row >> h & 1:
                raise InstanceParseError(f"duplicate arc ({t},{h})", lineno)
            out[t] = row | 1 << h
            inn[h] |= 1 << t
            arc_count += 1
        elif tag[0] == "#":
            continue
        elif not header_seen:
            if raw.strip() != INSTANCE_MAGIC:
                raise InstanceParseError(f"expected header '{INSTANCE_MAGIC}'", lineno)
            header_seen = True
        elif tag == "n":
            if n is not None:
                raise InstanceParseError("duplicate n line", lineno)
            digits = fields[1].removeprefix("-") if len(fields) == 2 else ""
            # str.isdigit alone also takes digits such as '²' that int() refuses
            if not (digits.isascii() and digits.isdigit()):
                raise InstanceParseError("n line must be 'n <count>'", lineno)
            if fields[1].startswith("-") and digits.strip("0"):
                raise InstanceParseError("vertex count must be nonnegative", lineno)
            # the length test comes first: int() refuses over 4300 digits
            if len(digits.lstrip("0")) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
                raise InstanceParseError(
                    f"vertex count over the cap MAX_VERTICES={MAX_VERTICES}", lineno
                )
            n = int(digits)
            out = [0] * n
            inn = [0] * n
        elif tag == "k":
            if n is None:
                raise InstanceParseError("k line before n line", lineno)
            if clique is not None:
                raise InstanceParseError("duplicate k line", lineno)
            if arc_count:
                raise InstanceParseError("k line must precede arc lines", lineno)
            try:
                clique = [int(f) for f in raw.split()[1:]]
            except ValueError:
                raise InstanceParseError("k line indices must be integers", lineno) from None
            if len(set(clique)) != len(clique):
                raise InstanceParseError("duplicate index in k line", lineno)
            for v in clique:
                if not 0 <= v < n:
                    raise InstanceParseError(f"clique index {v} out of range", lineno)
        elif tag == "a":
            raise InstanceParseError("arc line before n line", lineno)
        else:
            raise InstanceParseError(f"unknown directive '{tag}'", lineno)
    reading.lines = lineno
    reading.header_seen, reading.n, reading.clique = header_seen, n, clique
    reading.out, reading.inn, reading.arc_count, reading.index = out, inn, arc_count, index


def _read_dense(chunk: str, reading: _Reading, bits: Mapping[bytes, int]) -> bool:
    """Read a chunk of arc lines into ``reading.out`` in bulk, all or
    nothing: False, with ``reading`` untouched, when the line reader must.

    ``bits`` maps the bytes of each canonical spelling ``str(v)`` to
    ``1 << v``.  The chunk must be at most BULK_CHUNK characters, which
    bounds its token list, hold only '0'-'9', 'a', space and LF, end in an
    LF, start every line with 'a ' and split into 3 tokens per line, and
    every tail and head token must be a key of ``bits``.  The chunk is
    encoded once and split as bytes.  'a' spells no vertex, so a line of
    other than 3 tokens would put the 'a' of a later line among the tails
    or the heads: every line is 'a <tail> <head>', as the line reader
    splits it.

    The chunk's tails must ascend, each tail's arcs in one run.  A run's
    row is the ``sum`` of its heads' bits; a popcount below the run's
    length (a duplicate in the run: equal bits carry), the tail's own bit
    (a loop), a bit shared with out[t] (a duplicate of an earlier chunk's
    arc), or passing MAX_ARCS refuses the chunk.

    While ``reading.sha`` is set, a chunk read is also tested for the
    canonical form: two spaces a line, which with 3 tokens a line makes
    each line 'a <tail> <head>' in canonical spellings, the heads of each
    run ascending, and its first arc after the last arc hashed.  A
    canonical chunk's bytes go into the hash; any other drops it.  Only
    reads that make a digest pay for the test.
    """
    lines = chunk.count("\n")
    arc_count = reading.arc_count + lines
    if not (len(chunk) <= BULK_CHUNK and chunk.startswith("a ")
            and chunk.count("\na ") == lines - 1 and arc_count <= MAX_ARCS
            and chunk.isascii()):
        return False
    data = chunk.encode()
    if data.translate(None, _ARC_CHARS):
        return False
    tokens = data.split()
    if len(tokens) != 3 * lines:
        return False
    # with 3 tokens a line, two spaces a line make each line 'a <t> <h>'
    sha = reading.sha if reading.sha is not None and data.count(b" ") == 2 * lines else None
    bit = bits.__getitem__
    out = reading.out
    rows = []
    prev = -1
    try:
        heads = list(map(bit, tokens[2::3]))
        tails = tokens[1::3]
        # freed before the runs, so that their lists, and the sorted copies
        # of a digest's order test, never raise the parse's peak
        del tokens
        at = 0
        for tail, run in groupby(tails):
            tail_bit = bit(tail)
            t = tail_bit.bit_length() - 1
            count = len(list(run))
            run_heads = heads[at:at + count]
            row = sum(run_heads)
            at += count
            if t <= prev or row.bit_count() != count or row & tail_bit or row & out[t]:
                return False
            if sha is not None and run_heads != sorted(run_heads):
                sha = None
            rows.append((t, row))
            prev = t
    except KeyError:
        return False
    if sha is not None:
        # the first arc comes after the last one hashed: no earlier tail,
        # and a head above every head its tail already has
        t, row = rows[0]
        if t < reading.tail or out[t] >= row & -row:
            sha = None
    for t, row in rows:
        out[t] |= row
    reading.arc_count = arc_count
    reading.lines += lines
    if sha is not None:
        sha.update(data)
        reading.tail = rows[-1][0]
    reading.sha = sha
    return True


def _transpose(rows: list[int], n: int) -> list[int]:
    """The columns of the n x n bit matrix with the given rows: bit t of
    column h is bit h of rows[t].

    The rows are packed into one int of width x width bits, width the
    power of two >= max(n, 8), row t at bit t * width.  The transpose then
    swaps bit s of the row with bit s of the column for s = width / 2, ...,
    1: one delta swap of the whole int each, moving the bits (r, c) with s
    clear in r and set in c to (r + s, c - s), s * (width - 1) positions
    up.  Each step holds at most four ints of the matrix's size at once:
    the matrix, the swap, and the two operands of the step's last
    operation.
    """
    width = max(8, 1 << (n - 1).bit_length())
    size = width // 8
    matrix = int.from_bytes(b"".join(map(int.to_bytes, rows, repeat(size), repeat("little"))), "little")
    s = width // 2
    while s:
        # the columns with bit s set, in one row, then the rows with bit s clear
        if s < 8:
            cols = bytes([_LOW_COLUMNS[s]]) * size
        else:
            cols = (bytes(s // 8) + b"\xff" * (s // 8)) * (width // (2 * s))
        delta = s * (width - 1)
        swap = matrix >> delta ^ matrix
        swap &= int.from_bytes((cols * s + bytes(size * s)) * (width // (2 * s)), "little")
        swap ^= swap << delta
        matrix ^= swap
        s //= 2
    # the rows from n on hold no bit
    data = matrix.to_bytes(size * n, "little")
    del matrix, swap
    return [int.from_bytes(data[h * size:(h + 1) * size], "little") for h in range(n)]


def _sha256(data: bytes) -> Any:
    # only here: a run that makes no digest never loads hashlib
    import hashlib
    return hashlib.sha256(data)


def instance_digest(obj: Digraph | SplitDigraph) -> str:
    """'sha256:' and the hex sha256 of ``serialize_instance(obj)``, the
    canonical text without comments: the name a certificate gives its
    instance.  ``parse_instance(text, digest=True)`` gives the same digest
    for a canonical dense text without serializing it again."""
    return "sha256:" + _sha256(serialize_instance(obj).encode()).hexdigest()


def certificate_document(
    cert: QkCertificate, instance: Digraph | SplitDigraph, digest: str | None = None
) -> str:
    """The file text of a certificate, checked against its instance.
    ``digest`` is the instance's ``instance_digest`` when the caller has
    it already, as ``parse_instance(text, digest=True)`` gives it; when
    None, the instance is serialized again to make it."""
    cert.check(instance.graph if isinstance(instance, SplitDigraph) else instance)
    return serialize_certificate(cert, digest or instance_digest(instance))


def format_bound(bound: Fraction | None) -> str:
    return "null" if bound is None else f"{bound.numerator}/{bound.denominator}"


def serialize_certificate(cert: QkCertificate, digest: str) -> str:
    """The file text of a certificate of the instance with ``digest``."""
    lines = [
        CERTIFICATE_MAGIC,
        f"algorithm {cert.algorithm}",
        f"instance {digest}",
        ("set " + " ".join(str(v) for v in cert.sorted_vertices())).rstrip(),
        f"bound {format_bound(cert.bound)}",
        "verified true",
    ]
    for _, path in sorted(cert.witnesses.items()):
        lines.append("w " + " ".join(str(u) for u in path))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[QkCertificate, str]:
    """The certificate in a certificate text and the instance digest it names."""
    lines = [
        (no, raw.strip())
        for no, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    ]
    if not lines or lines[0][1] != CERTIFICATE_MAGIC:
        raise CertificateParseError(f"expected header '{CERTIFICATE_MAGIC}'", 1)
    fields: dict[str, str] = {}
    field_lines: dict[str, int] = {}
    witnesses: dict[int, tuple[int, ...]] = {}
    for no, line in lines[1:]:
        tag, _, rest = line.partition(" ")
        if tag == "w":
            try:
                path = tuple(int(f) for f in rest.split())
            except ValueError:
                raise CertificateParseError("witness entries must be integers", no) from None
            if len(path) < 2:
                raise CertificateParseError("witness path too short", no)
            if path[0] in witnesses:
                raise CertificateParseError(f"duplicate witness for vertex {path[0]}", no)
            witnesses[path[0]] = path
        elif tag in ("algorithm", "instance", "set", "bound", "verified"):
            if tag in fields:
                raise CertificateParseError(f"duplicate {tag} line", no)
            fields[tag] = rest
            field_lines[tag] = no
        else:
            raise CertificateParseError(f"unknown directive '{tag}'", no)
    for required in ("algorithm", "instance", "set", "bound", "verified"):
        if required not in fields:
            raise CertificateParseError(f"missing {required} line", len(text.splitlines()))
    try:
        vertices = tuple(int(f) for f in fields["set"].split())
    except ValueError:
        raise CertificateParseError("set entries must be integers", field_lines["set"]) from None
    if any(u >= v for u, v in zip(vertices, vertices[1:])):
        raise CertificateParseError("set entries must be strictly ascending", field_lines["set"])
    bound_text = fields["bound"]
    if bound_text == "null":
        bound: Fraction | None = None
    else:
        num, _, den = bound_text.partition("/")
        try:
            bound = Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            raise CertificateParseError("bound must be 'p/q' or 'null'", field_lines["bound"]) from None
    if fields["verified"] != "true":
        raise CertificateParseError("verified line must be 'verified true'", field_lines["verified"])
    cert = QkCertificate(frozenset(vertices), witnesses, fields["algorithm"], bound)
    return cert, fields["instance"]


def check_certificate(text: str, instance: Digraph | SplitDigraph) -> QkCertificate:
    """The certificate in a certificate text, re-verified against its
    instance, digest included."""
    cert, digest = parse_certificate(text)
    if digest != instance_digest(instance):
        raise VerificationError("instance digest mismatch")
    cert.check(instance.graph if isinstance(instance, SplitDigraph) else instance)
    return cert


def to_dot(obj: Digraph | SplitDigraph, name: str = "instance") -> str:
    """DOT export; clique vertices are drawn as boxes when a partition is known."""
    graph = obj.graph if isinstance(obj, SplitDigraph) else obj
    lines = [f"digraph {name} {{"]
    if isinstance(obj, SplitDigraph):
        for v in members(obj.clique):
            lines.append(f"  {v} [shape=box];")
        for v in members(obj.independent):
            lines.append(f"  {v} [shape=circle];")
    else:
        for v in range(graph.n):
            lines.append(f"  {v};")
    for t, h in graph.arcs:
        lines.append(f"  {t} -> {h};")
    lines.append("}")
    return "\n".join(lines) + "\n"
