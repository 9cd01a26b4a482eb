import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasikernel import (
    CertificateParseError,
    Digraph,
    InstanceParseError,
    VerificationError,
    certificate_document,
    check_certificate,
    gen_dn,
    gen_dpn,
    gen_random_complete_split,
    gen_random_split,
    instance_digest,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    to_dot,
)
from quasikernel import files


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


def test_certificate_round_trip():
    sd = gen_dn(1)
    cert = sd.graph.certify({0, 4}, "verify")
    doc = certificate_document(cert, sd)
    text = serialize_certificate(doc)
    parsed = parse_certificate(text)
    assert parsed == doc
    assert "\nverified true\n" in text
    assert serialize_certificate(parsed) == text
    check_certificate(parsed, sd)


def test_certificate_digest_mismatch_detected():
    sd = gen_dn(1)
    doc = certificate_document(sd.graph.certify({0, 4}, "verify"), sd)
    with pytest.raises(VerificationError, match="digest"):
        check_certificate(doc, gen_dpn(1))


def test_certificate_bound_formats():
    sd = gen_dn(1)
    cert = sd.graph.certify({0, 4}, "one-way", bound=__import__("fractions").Fraction(2))
    doc = certificate_document(cert, sd)
    text = serialize_certificate(doc)
    assert "bound 2/1" in text
    assert parse_certificate(text).bound == 2


@pytest.mark.parametrize(
    "old,new,line,pattern",
    [
        ("set 0 4", "set 0 x", 5, "set entries"),
        ("bound null", "bound 1/0", 6, "bound must be"),
        ("verified true", "verified false", 7, "verified line must be"),
        ("verified true", "verified", 7, "verified line must be"),
    ],
)
def test_certificate_parse_errors_carry_line_numbers(old, new, line, pattern):
    sd = gen_dn(1)
    text = serialize_certificate(certificate_document(sd.graph.certify({0, 4}, "verify"), sd))
    assert old in text
    text = "# leading comment\n" + text.replace(old, new)
    with pytest.raises(CertificateParseError, match=pattern) as exc:
        parse_certificate(text)
    assert exc.value.line == line


def test_certificate_tamper_detected():
    sd = gen_dn(1)
    doc = certificate_document(sd.graph.certify({0, 4}, "verify"), sd)
    text = serialize_certificate(doc).replace("w 5 2 0", "w 5 1 0")
    with pytest.raises(VerificationError):
        check_certificate(parse_certificate(text), sd)


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
