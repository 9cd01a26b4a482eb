import functools
import inspect
import random
import tracemalloc
from unittest.mock import patch

import conftest
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasikernel import (
    CertificateParseError,
    Digraph,
    InstanceParseError,
    SplitDigraph,
    VerificationError,
    certificate_document,
    check_certificate,
    complete_split_min_qk,
    fpt_by_clique,
    fpt_by_independent,
    gen_dn,
    gen_dpn,
    gen_random_complete_split,
    gen_random_split,
    instance_digest,
    min_quasi_kernel,
    one_way_qk,
    parse_certificate,
    parse_instance,
    peel_sinks,
    peel_split,
    quasi_kernel_cl,
    serialize_certificate,
    serialize_instance,
    to_dot,
    two_thirds_qk,
)
from quasikernel import files
from quasikernel.digraph import members


def test_serialize_dn1():
    text = serialize_instance(gen_dn(1))
    lines = text.splitlines()
    assert lines[0] == "qkdg 1"
    assert lines[1] == "n 6"
    assert lines[2] == "k 0 1 2"
    assert lines[3:] == ["a 0 1", "a 1 2", "a 2 0", "a 3 0", "a 4 1", "a 5 2"]
    assert text.endswith("\n") and "\r" not in text


def test_round_trip_generated_instances():
    cases = [
        gen_dn(1),
        gen_dn(2),
        gen_dpn(1),
        gen_random_split(3, 4, 7, sink_free=True),
        gen_random_complete_split(4, 3, 5, sink_free=True),
        Digraph(4, [(0, 1), (2, 3)]),
        Digraph(0),
    ]
    for obj in cases:
        assert parse_instance(serialize_instance(obj)) == obj


def test_comments_and_blanks_are_ignored():
    text = "qkdg 1\n# a comment\n\nn 2\n# another\na 0 1\n"
    assert parse_instance(text) == Digraph(2, [(0, 1)])


def test_empty_clique_line_round_trips():
    from quasikernel import SplitDigraph

    sd = SplitDigraph(Digraph(1), [], [0])
    text = serialize_instance(sd)
    assert "\nk\n" in text
    assert parse_instance(text) == sd


@pytest.mark.parametrize(
    "text,line,pattern",
    [
        ("qkdg 2\nn 1\n", 1, "header"),
        ("n 1\n", 1, "header"),
        ("qkdg 1\na 0 1\n", 2, "before n"),
        ("qkdg 1\nn 2\na 0 1\na 0 1\n", 4, "duplicate arc"),
        ("qkdg 1\nn 2\na 0 0\n", 3, "loop"),
        ("qkdg 1\nn 2\na 0 5\n", 3, "out of range"),
        ("qkdg 1\nn 2\na 0\n", 3, "arc line"),
        ("qkdg 1\nn x\n", 2, "n line"),
        ("qkdg 1\nn --5\n", 2, "n line"),
        ("qkdg 1\nn \u00b2\n", 2, "n line"),
        ("qkdg 1\nn 30000000\n", 2, "MAX_VERTICES=20000"),
        ("qkdg 1\nn 2\nn 2\n", 3, "duplicate n"),
        ("qkdg 1\nn 2\nk 0 0\n", 3, "duplicate index"),
        ("qkdg 1\nn 2\nk 9\n", 3, "out of range"),
        ("qkdg 1\nn 2\nz 1\n", 3, "unknown directive"),
        ("qkdg 1\nn 2\na 0 1\nk 0\n", 4, "precede"),
        ("qkdg 1\n", 2, "missing n"),
        # the errors at the end of the text count lines as splitlines does
        ("qkdg 1\r# x\r# y\r", 4, "missing n"),
        ("qkdg 1\v# x\v# y\v", 4, "missing n"),
        ("qkdg 1\u2028# x\u2028# y\u2028", 4, "missing n"),
        ("qkdg 1\u2028n 3\u2028k 0\u2028a 1 2", 4, "invalid split partition"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, pattern):
    with pytest.raises(InstanceParseError, match=pattern) as exc:
        parse_instance(text)
    assert exc.value.line == line


def test_size_caps_are_named_parse_errors(monkeypatch):
    assert parse_instance(f"qkdg 1\nn {files.MAX_VERTICES}\n").n == files.MAX_VERTICES
    # longer than int() accepts from text on Python 3.11+
    with pytest.raises(InstanceParseError, match="MAX_VERTICES=20000"):
        parse_instance("qkdg 1\nn " + "9" * 5000 + "\n")
    monkeypatch.setattr(files, "MAX_ARCS", 2)
    assert len(parse_instance("qkdg 1\nn 3\na 0 1\na 1 2\n").arcs) == 2
    with pytest.raises(InstanceParseError, match="MAX_ARCS=2") as exc:
        parse_instance("qkdg 1\nn 3\na 0 1\na 1 2\n# third\na 2 0\n")
    assert exc.value.line == 6


def test_split_violations_are_parse_errors():
    # declared clique pair without adjacency
    with pytest.raises(InstanceParseError, match="split"):
        parse_instance("qkdg 1\nn 2\nk 0 1\n")
    # arc inside the declared independent part
    with pytest.raises(InstanceParseError, match="split"):
        parse_instance("qkdg 1\nn 3\nk 0\na 1 2\n")


def test_digest_is_canonical():
    sd = gen_dn(1)
    with_comments = serialize_instance(sd, comments=["anything"])
    assert instance_digest(parse_instance(with_comments)) == instance_digest(sd)


# a sink-free split digraph, one with the sinks 1 and 2 under the clique
# vertex 0, and a complete split digraph
DN1 = gen_dn(1)
WITH_SINKS = SplitDigraph(Digraph(3, [(0, 1), (0, 2)]), [0, 1], [2])
COMPLETE = SplitDigraph(Digraph(3, [(0, 1), (0, 2)]), [0], [1, 2])
# every label the CLI writes, with an instance, the certificate solve or
# verify writes for it, and its bound line: null, k/1 and the 2n/3 and peel
# fractions
CERTIFIED = {
    "cl": (WITH_SINKS, lambda sd: sd.graph.certify(quasi_kernel_cl(sd.graph), "cl"), "null"),
    "one-way": (DN1, one_way_qk, "2/1"),
    "two-thirds": (DN1, two_thirds_qk, "4/1"),
    "peel": (WITH_SINKS, peel_split, "8/3"),
    "complete-split": (COMPLETE, complete_split_min_qk, "2/1"),
    "exact": (DN1, lambda sd: min_quasi_kernel(sd).certificate, "null"),
    "fpt-k": (DN1, lambda sd: fpt_by_clique(sd, 2), "null"),
    "fpt-i": (DN1, lambda sd: fpt_by_independent(sd, 2), "null"),
    "verify": (DN1, lambda sd: sd.graph.certify({0, 4}, "verify"), "null"),
}


@pytest.mark.parametrize("label", list(CERTIFIED))
def test_certificate_round_trip(label):
    inst, solve, bound = CERTIFIED[label]
    cert = solve(inst)
    assert cert.algorithm == label
    text = certificate_document(cert, inst)
    assert f"\nbound {bound}\nverified true\n" in text
    assert parse_certificate(text) == (cert, instance_digest(inst))
    assert serialize_certificate(*parse_certificate(text)) == text
    assert check_certificate(text, inst) == cert


def test_certificate_digest_mismatch_detected():
    sd = gen_dn(1)
    text = certificate_document(sd.graph.certify({0, 4}, "verify"), sd)
    with pytest.raises(VerificationError, match="digest"):
        check_certificate(text, gen_dpn(1))


@pytest.mark.parametrize(
    "old,new,error,message",
    [
        (None, None, None, None),
        ("algorithm two-thirds", "algorithm nonsense", CertificateParseError,
         "line 2: unknown algorithm 'nonsense'"),
        ("algorithm two-thirds", "algorithm owo-thirds", CertificateParseError,
         "line 2: unknown algorithm 'owo-thirds'"),
        ("algorithm two-thirds", "algorithm exact", VerificationError,
         "bound 10 is not the one label 'exact' records"),
        ("bound 10/1", "bound 1000/1", VerificationError,
         "bound 1000 is not the one label 'two-thirds' records"),
        ("bound 10/1", "bound 5/1", VerificationError,
         "bound 5 is not the one label 'two-thirds' records"),
        ("bound 10/1", "bound null", VerificationError,
         "bound None is not the one label 'two-thirds' records"),
    ],
)
def test_certificate_label_and_bound_edits_are_refused(old, new, error, message):
    # gen_dn(2)'s two-thirds certificate: n = 15, 5 vertices, bound 10/1;
    # each edit leaves a readable file, and the label or the bound no
    # longer the one the construction records
    sd = gen_dn(2)
    text = certificate_document(two_thirds_qk(sd), sd)
    assert two_thirds_qk(sd).size == 5 and "\nbound 10/1\n" in text
    if old is None:
        assert check_certificate(text, sd) == two_thirds_qk(sd)
        return
    assert text.count(old) == 1
    with pytest.raises(error) as exc:
        check_certificate(text.replace(old, new), sd)
    assert str(exc.value) == message
    if error is CertificateParseError:
        assert exc.value.line == 2


def test_certify_and_peel_sinks_take_no_bound():
    # each label records its own bound: neither a caller's bound nor a
    # label outside LABELS is taken
    assert "bound" not in inspect.signature(Digraph.certify).parameters
    assert "alpha" not in inspect.signature(peel_sinks).parameters
    with pytest.raises(ValueError, match="^unknown certificate label 'test'$"):
        gen_dn(1).graph.certify({0, 4}, "test")


@pytest.mark.parametrize(
    "old,new,line,pattern",
    [
        ("set 0 4", "set 0 x", 5, "set entries"),
        ("set 0 4", "set 4 0", 5, "strictly ascending"),
        ("set 0 4", "set 0 0 4", 5, "strictly ascending"),
        ("bound null", "bound 1/0", 6, "bound must be"),
        ("verified true", "verified false", 7, "verified line must be"),
        ("verified true", "verified", 7, "verified line must be"),
        ("set 0 4\n", "", 10, "missing set line"),
    ],
)
def test_certificate_parse_errors_carry_line_numbers(old, new, line, pattern):
    sd = gen_dn(1)
    text = certificate_document(sd.graph.certify({0, 4}, "verify"), sd)
    assert old in text
    text = "# leading comment\n" + text.replace(old, new)
    with pytest.raises(CertificateParseError, match=pattern) as exc:
        parse_certificate(text)
    assert exc.value.line == line


def test_certificate_tamper_detected():
    sd = gen_dn(1)
    text = certificate_document(sd.graph.certify({0, 4}, "verify"), sd)
    text = text.replace("w 5 2 0", "w 5 1 0")
    with pytest.raises(VerificationError):
        check_certificate(text, sd)


def test_to_dot_mentions_all_arcs():
    dot = to_dot(gen_dn(1))
    assert dot.count("->") == 6
    assert "shape=box" in dot


# lines of a directive and up to two arguments, from tokens that hit the
# checks of both parsers, mixed with lines of arbitrary text
FUZZ_TAGS = ["n", "k", "a", "w", "set", "bound", "verified", "algorithm", "instance", "#"]
FUZZ_TOKENS = ["0", "1", "2", "-1", "--5", "\u00b2", "1/0", "3/2", "true", "null"]
FUZZ_LINES = st.lists(
    st.one_of(
        st.builds(
            lambda tag, args: " ".join([tag, *args]),
            st.sampled_from(FUZZ_TAGS),
            st.lists(st.sampled_from(FUZZ_TOKENS), max_size=2),
        ),
        st.text(max_size=8),
    ),
    max_size=6,
)
FUZZ_TEXT = st.one_of(
    st.text(),
    st.builds(
        lambda magic, lines: "\n".join([magic, *lines]),
        st.sampled_from(["qkdg 1", "qkcert 1"]),
        FUZZ_LINES,
    ),
)


@given(FUZZ_TEXT)
def test_parsers_raise_only_their_own_errors(text):
    parsers = ((parse_instance, InstanceParseError), (parse_certificate, CertificateParseError))
    for parse, error in parsers:
        try:
            parse(text)
        except error:
            pass


# spellings of an endpoint v that are not str(v) but that int() reads;
# int("1_0") is 10, out of range for every n that instance_texts draws
RESPELLINGS = {
    "plus": lambda v: f"+{v}",
    "zero": lambda v: f"0{v}",
    "arabic-indic": lambda v: "".join(chr(0x660 + int(d)) for d in str(v)),
    "underscore": lambda v: "1_0",
}


@st.composite
def instance_texts(draw):
    """(text, n, arcs, arc cap) for a random instance in a random layout,
    with at most one bad line that trips one check of the parser, and
    sometimes some arc endpoints in one of RESPELLINGS."""
    n = draw(st.integers(0, 7))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    clique = None
    if draw(st.booleans()):
        clique = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
        if draw(st.booleans()):
            # make the partition valid: no arc between independent vertices,
            # an arc between every clique pair
            arcs = [a for a in arcs if a[0] in clique or a[1] in clique]
            arcs += [(u, v) for u in clique for v in clique
                     if u < v and (u, v) not in arcs and (v, u) not in arcs]
    arcs = draw(st.permutations(arcs))
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    pad = draw(st.sampled_from(["", " ", "\t"]))

    respell = draw(st.sampled_from([None, *RESPELLINGS.values()]))

    def line(*fields):
        return pad + sep.join(str(f) for f in fields) + draw(st.sampled_from(["", pad]))

    def arc_line(t, h):
        if respell is not None:
            t, h = (respell(v) if draw(st.booleans()) else v for v in (t, h))
        return line("a", t, h)

    # the header must equal "qkdg 1" once stripped, so it is only padded
    lines = [pad + "qkdg 1" + pad, line("n", n)]
    if clique is not None:
        lines.append(line("k", *clique))
    lines += [arc_line(t, h) for t, h in arcs]
    bad_lines = {
        "duplicate": lambda: arc_line(*draw(st.sampled_from(arcs))) if arcs else None,
        "loop": lambda: arc_line(v := draw(st.integers(0, n)), v),
        "range": lambda: line("a", *draw(st.sampled_from([(-1, 0), (0, -1), (n, 0), (0, n)]))),
        "fields": lambda: line(
            "a", *draw(st.lists(st.integers(0, n), max_size=3).filter(lambda f: len(f) != 2))
        ),
        "token": lambda: line("a", draw(st.sampled_from(["x", "1.5", "0x1"])), 0),
        "late k": lambda: line("k", 0),
    }
    kind = draw(st.sampled_from([None, *bad_lines]))
    bad = bad_lines[kind]() if kind else None
    if bad is not None:
        # the late k line goes after the arcs, the rest anywhere among them
        at = len(lines) if kind == "late k" else draw(st.integers(2, len(lines)))
        lines.insert(at, bad)
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "   ", "\t", "# note", "  #a 0 1"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    cap = draw(st.just(files.MAX_ARCS) | st.integers(0, len(arcs) + 1))
    return text, n, arcs, cap


def parse_outcome(parse, text):
    try:
        obj = parse(text)
    except InstanceParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", type(obj), obj)


# a few arcs among vertices near 19,999, so that some mask rows are far
# sparser than they are long
HIGH_ARCS = [(3, 19_998), (19_990, 19_997), (19_990, 19_999), (19_995, 3), (19_999, 19_990)]
HIGH_TEXT = "qkdg 1\nn 20000\n" + "".join(f"a {t} {h}\n" for t, h in HIGH_ARCS)


@settings(max_examples=300)
@given(instance_texts())
@example((HIGH_TEXT, 20_000, HIGH_ARCS, files.MAX_ARCS))
def test_parser_matches_reference(case):
    text, n, arcs, cap = case
    with patch.object(files, "MAX_ARCS", cap), patch.object(conftest, "MAX_ARCS", cap):
        expected = parse_outcome(conftest.parse_instance_reference, text)
        got = parse_outcome(parse_instance, text)
    assert got == expected
    if got[0] == "ok":
        obj = got[2]
        graph = obj.graph if isinstance(obj, SplitDigraph) else obj
        reference = expected[2].graph if isinstance(obj, SplitDigraph) else expected[2]
        # Digraph equality compares only out_masks
        assert graph.in_masks == reference.in_masks
        lines = ["qkdg 1", f"n {n}"]
        if isinstance(obj, SplitDigraph):
            lines.append(" ".join(["k", *map(str, members(obj.clique))]))
        lines += [f"a {t} {h}" for t, h in sorted(arcs)]
        assert serialize_instance(obj) == "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(instance_texts(), st.data(), st.integers(4, 48))
def test_chunks_keep_the_lines_of_any_line_end(case, data, chunk):
    # with short chunks, a chunk boundary falls next to each kind of line
    # end, also between a CR and its LF; the lines, errors and line numbers
    # are those of the whole text's splitlines
    text, _, _, _ = case
    lines = text.splitlines()
    ends = data.draw(st.lists(
        st.sampled_from(["\n", "\r", "\r\n", "\v", "\x1c", "\x85", "\u2028"]),
        min_size=len(lines), max_size=len(lines),
    ))
    text = "".join(line + end for line, end in zip(lines, ends))
    with patch.object(files, "BULK_CHUNK", chunk):
        got = parse_outcome(parse_instance, text)
    assert got == parse_outcome(conftest.parse_instance_reference, text)


def _chunks_read(text_or_blocks, size=None):
    """The outcome of parse_instance on a text, or of the parser's core on
    blocks, and each chunk it read: ('bulk', chunk) or ('lines', lines)."""
    chunks = []
    read_dense, read_lines = files._read_dense, files._read_lines

    def dense(chunk, reading, bits):
        chunks.append(("bulk", chunk))
        return read_dense(chunk, reading, bits)

    def lines(reading, chunk_lines):
        chunk_lines = list(chunk_lines)
        chunks.append(("lines", chunk_lines))
        read_lines(reading, chunk_lines)

    with patch.object(files, "_read_dense", dense), patch.object(files, "_read_lines", lines):
        if size is None:
            outcome = parse_outcome(functools.partial(parse_instance, digest=True), text_or_blocks)
        else:
            outcome = parse_outcome(lambda blocks: files._parse_blocks(blocks, size, True), text_or_blocks)
    return outcome, chunks


@settings(max_examples=200, deadline=None)
@given(st.one_of(instance_texts(), st.integers(0, 10_000)), st.data(), st.integers(4, 48))
def test_blocks_give_the_chunks_of_the_whole_text(case, data, chunk):
    # the core cuts the chunks of the whole text from blocks cut anywhere,
    # even between a CR and its LF, before the first arc line or inside a
    # chunk, and so reads them as parse_instance reads the text: the same
    # chunks, by the same reader, with the same outcome and digest
    if isinstance(case, int):
        sd = gen_random_split(case, 32, 32)
        text = serialize_instance(data.draw(st.sampled_from([sd, sd.graph])))
        text = data.draw(st.sampled_from([text, text.replace("\n", "\r\n"), text + "# end"]))
    else:
        lines = case[0].splitlines()
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r", "\r\n", "\v", "\u2028"]),
                                  min_size=len(lines), max_size=len(lines)))
        text = "".join(line + end for line, end in zip(lines, ends))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=12)))
    blocks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    with patch.object(files, "BULK_CHUNK", chunk):
        assert _chunks_read(blocks, len(text)) == _chunks_read(text)


def test_parser_builds_no_digraph_through_init(monkeypatch):
    # Digraph.__init__ re-checks every arc; the parser has checked them all
    sd = gen_random_split(5, 200, 200)
    text = serialize_instance(sd)
    calls = []
    init = Digraph.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Digraph, "__init__", counted)
    parsed = parse_instance(text)
    assert len(calls) == 0
    assert parsed == sd and parsed.graph.in_masks == sd.graph.in_masks


def _respell_tail(line, spelling):
    _, t, h = line.split()
    return f"a {spelling(int(t))} {h}"


def _respell_head(line, spelling):
    _, t, h = line.split()
    return f"a {t} {spelling(int(h))}"


def _tail(line):
    return line.split()[1]


def _run_end(lines, i):
    """The index just past the run of arc lines with line i's tail."""
    return next((k for k in range(i, len(lines)) if _tail(lines[k]) != _tail(lines[i])), len(lines))


# Defects of the arc lines of a canonical dense text, at arc line i or at
# j, a line of i's tail run or the line just after it.  Each of them, a
# missing final LF and a MAX_ARCS one below the arc count send their chunk
# and the rest of the text to the line reader, which reads them as the
# reference does.  'ragged' spaces a line out, and the bulk reader splits
# it as the line reader does.
DENSE_DEFECTS = {
    "duplicate": lambda lines, i, j, n: lines.insert(j, lines[i]),
    # the run's last arc again after the next tail's first: one tail, two runs
    "split run": lambda lines, i, j, n: lines.insert(_run_end(lines, i) + 1, lines[_run_end(lines, i) - 1]),
    "loop": lambda lines, i, j, n: lines.insert(j, f"a {_tail(lines[i])} {_tail(lines[i])}"),
    "range": lambda lines, i, j, n: lines.insert(j, f"a {_tail(lines[i])} {n}"),
    "plus": lambda lines, i, j, n: lines.__setitem__(i, _respell_tail(lines[i], lambda v: f"+{v}")),
    "zero": lambda lines, i, j, n: lines.__setitem__(i, _respell_tail(lines[i], lambda v: f"0{v}")),
    # the bulk reader looks up each head's bit and takes each tail from its bit
    "tail range": lambda lines, i, j, n: lines.__setitem__(i, _respell_tail(lines[i], lambda v: f"{n}")),
    "head zero": lambda lines, i, j, n: lines.__setitem__(i, _respell_head(lines[i], lambda v: f"0{v}")),
    "fourth field": lambda lines, i, j, n: lines.__setitem__(i, lines[i] + " 1"),
    "two fields": lambda lines, i, j, n: lines.__setitem__(i, lines[i].rsplit(" ", 1)[0]),
    # splitlines ends a line at VT, and split() splits at it
    "line break": lambda lines, i, j, n: lines.__setitem__(i, "\x0b".join(lines[i].rsplit(" ", 1))),
    # a lone surrogate cannot be encoded
    "surrogate": lambda lines, i, j, n: lines.__setitem__(i, lines[i] + "\ud800"),
    "directive": lambda lines, i, j, n: lines.__setitem__(i, "a" + lines[i]),
    # the first arc line is no longer the first line to start 'a ' after an LF
    "indented": lambda lines, i, j, n: lines.__setitem__(0, " " + lines[0]),
    "ragged": lambda lines, i, j, n: lines.__setitem__(i, lines[i].replace(" ", "  ") + " "),
    "blank": lambda lines, i, j, n: lines.insert(j, ""),
    "comment": lambda lines, i, j, n: lines.insert(j, "# c"),
    "descending": lambda lines, i, j, n: lines.sort(key=lambda line: -int(_tail(line))),
    "no LF": None,
    "arc cap": None,
    None: None,
}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data(), chunk=st.integers(10, 80))
@pytest.mark.parametrize("kind", DENSE_DEFECTS)
def test_dense_reader_matches_reference(kind, seed, data, chunk):
    # 64 vertices and about 1k arcs, so dense; a line longer than a chunk
    # is refused too
    sd = gen_random_split(seed, 32, 32)
    head, arcs = serialize_instance(sd).split("\na ", 1)
    clean = ("a " + arcs).splitlines()
    lines = list(clean)
    if DENSE_DEFECTS[kind] is not None:
        i = data.draw(st.integers(0, len(lines) - 1))
        DENSE_DEFECTS[kind](lines, i, data.draw(st.integers(i + 1, _run_end(lines, i))), sd.graph.n)
    text = head + "\n" + "\n".join(lines) + ("" if kind == "no LF" else "\n")
    transposed = []
    transpose = files._transpose
    # (lines read before, line count) of each call of the line reader
    read = []
    read_lines = files._read_lines

    def counted(rows, n):
        transposed.append(n)
        return transpose(rows, n)

    def counted_lines(reading, chunk_lines):
        chunk_lines = list(chunk_lines)
        read.append((reading.lines, len(chunk_lines)))
        read_lines(reading, chunk_lines)

    cap = len(lines) - 1 if kind == "arc cap" else files.MAX_ARCS
    with patch.object(files, "MAX_ARCS", cap), patch.object(conftest, "MAX_ARCS", cap):
        with patch.object(files, "BULK_CHUNK", chunk), patch.object(files, "_transpose", counted), \
                patch.object(files, "_read_lines", counted_lines):
            got = parse_outcome(parse_instance, text)
        expected = parse_outcome(conftest.parse_instance_reference, text)
    assert got == expected
    if got[0] == "ok":
        assert got[2].graph.in_masks == expected[2].graph.in_masks
    if chunk <= max(map(len, lines)):
        return
    # each line is read once: the line reader takes the lines before the
    # first arc line, then no arc line before the chunk of the first defect
    # and every line from that chunk on
    header = len(text[:text.find("\na ") + 1].splitlines())
    arc_reads = [(start, count) for start, count in read if start >= header]
    assert all(start + count == after for (start, count), (after, _) in zip(arc_reads, arc_reads[1:]))
    if kind in (None, "ragged"):
        assert transposed and not arc_reads
        return
    # the first line that differs from the clean text, or the last line
    defect = next((k for k, (a, b) in enumerate(zip(lines, clean)) if a != b), len(lines) - 1)
    ends = []
    for line in lines:
        ends.append((ends[-1] if ends else len(head) + 1) + len(line) + 1)
    before = sum(end <= min(ends[defect], len(text)) - chunk for end in ends[:defect])
    assert all(start >= header + before for start, _ in arc_reads)


def _swap(lines, rng, i, j):
    lines[i], lines[j] = lines[j], lines[i]


def _move(lines, rng, i, j):
    lines.insert(j, lines.pop(i))


def _run_around(lines, i):
    """The start and end of the lines around line i with its second field,
    which a comment or a blank line may end."""
    field = lines[i].split()[1:2]
    start = end = i
    while start and lines[start - 1].split()[1:2] == field:
        start -= 1
    while end < len(lines) and lines[end].split()[1:2] == field:
        end += 1
    return start, end


def _reverse_run(lines, rng, i, j):
    start, end = _run_around(lines, i)
    lines[start:end] = lines[start:end][::-1]


def _move_run_end_later(lines, rng, i, j):
    # the last arc of a run, with a head above the run's others, after a
    # later tail's arcs: a chunk that starts with it is read in bulk
    _, end = _run_around(lines, i)
    lines.insert(rng.randint(end, len(lines)), lines.pop(end - 1))


# edits of the arc lines of a canonical text at lines i and j; none of them
# changes the instance, and each may leave the lines canonical
ARC_EDITS = {
    "swap next": lambda lines, rng, i, j: _swap(lines, rng, i, min(i + 1, len(lines) - 1)),
    "swap": _swap,
    "move": _move,
    "reverse run": _reverse_run,
    "run end later": _move_run_end_later,
    "double space": lambda lines, rng, i, j: lines.__setitem__(i, lines[i].replace(" ", "  ", 1)),
    "trailing space": lambda lines, rng, i, j: lines.__setitem__(i, lines[i] + " "),
    "comment": lambda lines, rng, i, j: lines.insert(j, "# c"),
    "blank": lambda lines, rng, i, j: lines.insert(j, ""),
    "comment at the end": lambda lines, rng, i, j: lines.append("# end"),
}
# edits of the lines before the arcs, which leave the text canonical as read
HEAD_EDITS = {
    "comments": lambda head, rng: head.insert(rng.randint(1, len(head)), "# note"),
    "blank": lambda head, rng: head.insert(rng.randint(1, len(head)), ""),
    "padding": lambda head, rng: head.__setitem__(0, " " + head[0] + "\t"),
    "n spelling": lambda head, rng: head.__setitem__(1, head[1].replace("n ", "n  0")),
    "k order": lambda head, rng: head.__setitem__(
        2, " ".join(["k", *rng.sample(head[2].split()[1:], len(head[2].split()) - 1)])
    ) if len(head) > 2 and head[2].startswith("k") else None,
}

# texts in the campaign below
DIGEST_CAMPAIGN = 2000


def test_digest_as_read_is_the_instance_digest_or_none():
    # a seeded campaign of dense texts, each with up to two edits of its
    # arc lines or its header, CRLF line ends or no final LF, read in
    # chunks of a drawn size: a digest is made exactly when the lines from
    # the first arc line on are canonical and end in LFs, and it is
    # instance_digest's
    rng = random.Random(23)
    pool = []
    for seed in range(16):
        sd = gen_random_split(seed, rng.randint(32, 36), rng.randint(32, 36), p_k_to_i=0.1,
                              p_i_to_k=0.1, p_digon_k=rng.random() * 0.3)
        for obj in (sd, sd.graph):
            head, arcs = serialize_instance(obj).split("\na ", 1)
            pool.append((obj, instance_digest(obj), head.split("\n"), ("a " + arcs).splitlines()))
    made = 0
    for _ in range(DIGEST_CAMPAIGN):
        obj, expected, head, clean = rng.choice(pool)
        head, lines = list(head), list(clean)
        for name in rng.sample(sorted(ARC_EDITS), rng.choice([0, 0, 1, 2])):
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines) + 1)
            ARC_EDITS[name](lines, rng, i, min(j, len(lines)))
        for name in rng.sample(sorted(HEAD_EDITS), rng.choice([0, 1, 2])):
            HEAD_EDITS[name](head, rng)
        end, last = rng.choice([("\n", "\n"), ("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")])
        text = end.join(head + lines) + last
        chunk = rng.choice([files.BULK_CHUNK, rng.randint(24, 600)])
        with patch.object(files, "BULK_CHUNK", chunk):
            parsed, digest = parse_instance(text, digest=True)
        assert parsed == obj
        # a comment or a blank line before the first arc line is a header line
        arc_lines = lines[next(k for k, line in enumerate(lines) if line.startswith("a ")):]
        assert (digest is not None) == (arc_lines == clean and end == last == "\n"), (chunk, text)
        if digest is not None:
            assert digest == expected
            made += 1
    assert 0 < made < DIGEST_CAMPAIGN

def test_transpose_is_the_arc_reversal():
    for n in (1, 7, 8, 9, 64, 65, 200):
        arcs = [(t, h) for t in range(n) for h in range(n) if t != h and (t * 7 + h * 3) % 5 < 2]
        d = Digraph(n, arcs)
        assert files._transpose(list(d.out_masks), n) == list(d.in_masks)


def _parse_peak(text):
    tracemalloc.start()
    try:
        outcome = parse_outcome(parse_instance, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return outcome, peak


def test_dense_parse_peaks_below_its_text():
    # the chunks bound the token and line lists; one list of the text's
    # lines peaks at about 7 times the text.  With its arcs shuffled, or
    # its lines ended by CR or U+2028, the text is read line by line, in
    # chunks cut at those line ends
    sd = gen_random_split(3, 200, 200, sink_free=True)
    text = serialize_instance(sd)
    head, arcs = text.split("\na ", 1)
    shuffled = ("a " + arcs).splitlines()
    random.Random(3).shuffle(shuffled)
    forms = (
        text,
        head + "\n" + "\n".join(shuffled) + "\n",
        text.replace("\n", "\r"),
        text.replace("\n", "\u2028"),
    )
    for text in forms:
        (_, _, parsed), peak = _parse_peak(text)
        assert parsed == sd and parsed.graph.in_masks == sd.graph.in_masks
        assert peak < len(text)


def test_sparse_parse_builds_no_bit_table():
    # a text too sparse for the bulk reader builds no bit table: at
    # MAX_VERTICES its peak is the spelling index and the two mask lists,
    # about 2.7 MiB, where the table alone would take about 27 MiB
    n = files.MAX_VERTICES
    text = f"qkdg 1\nn {n}\n" + "".join(f"a {v} {n - 1 - v}\n" for v in range(0, n, 997))
    (_, _, parsed), peak = _parse_peak(text)
    assert parsed.n == n and len(parsed.arcs) == 21
    assert peak < 8 * 2**20


def test_long_line_parse_peaks_below_three_times_its_text():
    # a line is split into at most 4 fields, so a 1 MB line of 333k words
    # allocates no list of 333k strings.  With 64 vertices the arc line is
    # dense enough for the bulk reader, which refuses it for its length
    words = " 10" * 333_333
    comment = "qkdg 1\nn 64\n#" + words + "\na 0 1\n"
    (_, _, parsed), peak = _parse_peak(comment)
    assert parsed == Digraph(64, [(0, 1)])
    assert peak < 3 * len(comment)
    arc = "qkdg 1\nn 64\na 1 2" + words + "\n"
    outcome, peak = _parse_peak(arc)
    assert outcome == ("error", "line 3: arc line must be 'a <tail> <head>'", 3)
    assert peak < 3 * len(arc)
