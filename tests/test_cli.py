import functools
import os
import random
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    QKDG,
    digraphs,
    distinct_class_split,
    gnp,
    near_transitive_ladder,
    relabel_split,
    run_python,
    split_digraphs,
)

import quasikernel
from quasikernel import (
    check_certificate,
    family_labels,
    gen_dn,
    gen_dpn,
    gen_random_complete_split,
    gen_random_split,
    instance_digest,
    parse_certificate,
    parse_instance,
    quasi_kernel_cl,
    serialize_instance,
)
from quasikernel import files
from quasikernel.cli import main


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_dn1(tmp_path: Path) -> Path:
    path = tmp_path / "dn1.qkdg"
    code = main(["gen", "dn", "--n", "1", "--out", str(path)])
    assert code == 0
    return path


def test_gen_dn1_content(tmp_path, capsys):
    code, out = run(capsys, "gen", "dn", "--n", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "qkdg 1" and lines[1] == "n 6"
    assert sum(l.startswith("a ") for l in lines) == 6


def test_gen_dpn1_has_eight_arcs(capsys):
    code, out = run(capsys, "gen", "dpn", "--n", "1")
    assert code == 0
    assert sum(l.startswith("a ") for l in out.splitlines()) == 8


def test_gen_rejects_bad_n(capsys):
    assert main(["gen", "dn", "--n", "0"]) == 2


def test_gen_exit_code_2_on_bad_probabilities_and_sizes(monkeypatch, capsys):
    cases = [
        (["random-split", "--p-ki", "nan"], "p_k_to_i"),
        (["random-split", "--p-ki", "-0.5"], "p_k_to_i"),
        (["random-split", "--p-ki", "1.5"], "p_k_to_i"),
        (["random-split", "--p-ik", "2"], "p_i_to_k"),
        (["random-split", "--p-digon", "-1"], "p_digon_k"),
        (["random-complete-split", "--p-digon", "7"], "p_digon"),
    ]
    for argv, name in cases:
        family, *flags = argv
        assert main(["gen", family, "--seed", "1", "--nk", "2", "--ni", "2", *flags]) == 2
        assert f"error: {name} must be a probability" in capsys.readouterr().err
    monkeypatch.setattr(quasikernel.instances, "MAX_VERTICES", 10)
    argvs = [
        ["dn", "--n", "2"],
        ["dpn", "--n", "2"],
        ["random-split", "--seed", "1", "--nk", "4", "--ni", "7"],
        ["random-complete-split", "--seed", "1", "--nk", "4", "--ni", "7"],
    ]
    for argv in argvs:
        assert main(["gen", *argv]) == 2
        assert "over the cap MAX_VERTICES=10" in capsys.readouterr().err


def test_gen_refuses_impossible_sink_free_complete_splits(capsys):
    cases = [(["0", "20000"], "an isolated independent vertex is a sink"),
             (["1", "0"], "the lone clique vertex has no legal out-arc"),
             (["1", "5", "--p-digon", "0"], "without digons every orientation has a sink")]
    for (nk, ni, *rest), reason in cases:
        argv = ["gen", "random-complete-split", "--seed", "1", "--nk", nk, "--ni", ni, "--sink-free", *rest]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: sink-free impossible: {reason}\n"


def _labelled(generate, n: int) -> str:
    return serialize_instance(
        generate(n), comments=[f"label {name} {idx}" for idx, name in enumerate(family_labels(n))]
    )


SIZES = ["--seed", "4", "--nk", "5", "--ni", "7"]


@pytest.mark.parametrize("argv, expected", [
    (["dn", "--n", "3"], lambda: _labelled(gen_dn, 3)),
    (["dpn", "--n", "2"], lambda: _labelled(gen_dpn, 2)),
    (["random-split", *SIZES], lambda: serialize_instance(gen_random_split(4, 5, 7))),
    (["random-split", *SIZES, "--p-ki", "0.6"],
     lambda: serialize_instance(gen_random_split(4, 5, 7, p_k_to_i=0.6))),
    (["random-split", *SIZES, "--p-ik", "0.1"],
     lambda: serialize_instance(gen_random_split(4, 5, 7, p_i_to_k=0.1))),
    (["random-split", *SIZES, "--p-digon", "0.4"],
     lambda: serialize_instance(gen_random_split(4, 5, 7, p_digon_k=0.4))),
    (["random-split", *SIZES, "--one-way"],
     lambda: serialize_instance(gen_random_split(4, 5, 7, one_way=True))),
    (["random-split", *SIZES, "--sink-free"],
     lambda: serialize_instance(gen_random_split(4, 5, 7, sink_free=True))),
    (["random-split", *SIZES, "--p-ki", "0.6", "--p-ik", "0.1", "--p-digon", "0.4", "--one-way",
      "--sink-free"],
     lambda: serialize_instance(gen_random_split(
         4, 5, 7, p_k_to_i=0.6, p_i_to_k=0.1, p_digon_k=0.4, one_way=True, sink_free=True
     ))),
    (["random-complete-split", *SIZES], lambda: serialize_instance(gen_random_complete_split(4, 5, 7))),
    (["random-complete-split", *SIZES, "--p-digon", "0.5"],
     lambda: serialize_instance(gen_random_complete_split(4, 5, 7, p_digon=0.5))),
    (["random-complete-split", *SIZES, "--sink-free"],
     lambda: serialize_instance(gen_random_complete_split(4, 5, 7, sink_free=True))),
    (["random-complete-split", *SIZES, "--p-digon", "0.5", "--sink-free"],
     lambda: serialize_instance(gen_random_complete_split(4, 5, 7, p_digon=0.5, sink_free=True))),
])
def test_gen_options_reach_their_generator(capsys, argv, expected):
    # each option of each family, set apart from its default, writes what
    # the library's generator writes with that argument
    code, out = run(capsys, "gen", *argv)
    assert code == 0
    assert out == expected()


def test_gen_random_round_trip(tmp_path, capsys):
    code, out = run(
        capsys, "gen", "random-split", "--seed", "3", "--nk", "4", "--ni", "6", "--sink-free"
    )
    assert code == 0
    assert parse_instance(out).classify().sink_free


def test_solve_auto_on_dn1(tmp_path, capsys):
    path = write_dn1(tmp_path)
    capsys.readouterr()
    code, out = run(capsys, "solve", str(path))
    assert code == 0
    assert "algorithm: one-way" in out
    assert "size: 2" in out


def test_solve_writes_verifiable_certificate(tmp_path, capsys):
    path = write_dn1(tmp_path)
    cert_path = tmp_path / "dn1.qkcert"
    code = main(["solve", str(path), "--out", str(cert_path)])
    assert code == 0
    doc = parse_certificate(cert_path.read_text())
    check_certificate(doc, parse_instance(path.read_text()))


def test_solve_auto_dispatch_complete_split(tmp_path, capsys):
    path = tmp_path / "cs.qkdg"
    path.write_text("qkdg 1\nn 3\nk 0\na 0 1\na 0 2\n")
    code, out = run(capsys, "solve", str(path))
    assert code == 0
    assert "algorithm: complete-split" in out
    assert "set: 1 2" in out
    assert "minimum: true" in out


def test_solve_auto_dispatch_peel(tmp_path, capsys):
    path = tmp_path / "sink.qkdg"
    path.write_text("qkdg 1\nn 3\nk 0 1\na 0 1\na 0 2\n")
    code, out = run(capsys, "solve", str(path))
    assert code == 0
    assert "algorithm: peel" in out


def test_solve_algo_peel_matches_auto(tmp_path, capsys):
    path = tmp_path / "sinks.qkdg"
    code = main(["gen", "random-split", "--seed", "2", "--nk", "6", "--ni", "10", "--out", str(path)])
    assert code == 0
    code, auto = run(capsys, "solve", str(path))
    assert code == 0 and "algorithm: peel" in auto
    code, peel = run(capsys, "solve", str(path), "--algo", "peel")
    assert code == 0
    set_line = [l for l in auto.splitlines() if l.startswith("set:")]
    assert set_line == [l for l in peel.splitlines() if l.startswith("set:")]


def test_solve_plain_digraph_uses_cl(tmp_path, capsys):
    path = tmp_path / "plain.qkdg"
    path.write_text("qkdg 1\nn 3\na 0 1\na 1 2\na 2 0\n")
    code, out = run(capsys, "solve", str(path))
    assert code == 0
    assert "algorithm: cl" in out


def test_solve_fpt_k_no_solution(tmp_path, capsys):
    path = write_dn1(tmp_path)
    capsys.readouterr()
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-k", "--k", "1")
    assert code == 1
    assert "no quasi-kernel of size <= 1" in out


def test_solve_refuses_a_negative_k(tmp_path, capsys):
    path = write_dn1(tmp_path)
    capsys.readouterr()
    for algo in ("fpt-k", "fpt-i", "exact"):
        assert main(["solve", str(path), "--algo", algo, "--k", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --k must be a non-negative integer\n"
        assert captured.out == ""
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-k", "--k", "0")
    assert code == 1
    assert "no quasi-kernel of size <= 0" in out


@pytest.mark.parametrize("algo", ["auto", "cl", "one-way", "two-thirds", "peel", "complete-split"])
def test_solve_refuses_k_where_it_would_be_ignored(tmp_path, capsys, algo):
    # these take no budget: two-thirds and auto would print a 2-set here
    path = write_dn1(tmp_path)
    capsys.readouterr()
    assert main(["solve", str(path), "--algo", algo, "--k", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --k applies only to --algo exact, fpt-k, fpt-i\n"
    assert captured.out == ""


def test_solve_help_names_the_algorithms_that_take_k(capsys):
    assert main(["solve", "--help"]) == 0
    assert "size budget, for --algo exact, fpt-k, fpt-i only" in " ".join(capsys.readouterr().out.split())


def test_solve_fpt_k_on_many_classes(tmp_path, capsys):
    path = tmp_path / "wide.qkdg"
    path.write_text(serialize_instance(distinct_class_split()))
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-k", "--k", "0")
    assert code == 1
    assert "no quasi-kernel of size <= 0" in out
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-k", "--k", "1")
    assert code == 0
    assert "algorithm: fpt-k" in out and "set: 11" in out


def test_solve_fpt_i_reports_its_answer_as_a_minimum(tmp_path, capsys):
    # a quasi-kernel of a split digraph is independent, so it lies in one of
    # fpt-i's groups, and every group was refused each smaller size; fpt-k's
    # scan is not ordered by size, so its answer is not claimed minimum
    path = tmp_path / "dn2.qkdg"
    assert main(["gen", "dn", "--n", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-i", "--k", "99")
    assert code == 0
    assert "size: 5\n" in out and "minimum: true\n" in out
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-k", "--k", "99")
    assert code == 0
    assert "minimum: false\n" in out


def test_solve_precondition_failures_exit_1(tmp_path, capsys):
    sink = tmp_path / "sink.qkdg"
    sink.write_text("qkdg 1\nn 2\nk 0 1\na 0 1\n")
    assert main(["solve", str(sink), "--algo", "two-thirds"]) == 1
    assert main(["solve", str(sink), "--algo", "one-way"]) == 1
    plain = tmp_path / "plain.qkdg"
    plain.write_text("qkdg 1\nn 2\na 0 1\n")
    assert main(["solve", str(plain), "--algo", "two-thirds"]) == 1
    assert main(["solve", str(plain), "--algo", "fpt-k"]) == 1


def test_solve_exact_cap_exit_1(tmp_path, monkeypatch, capsys):
    # gen_dpn(6) takes about 86k steps
    path = tmp_path / "dpn6.qkdg"
    assert main(["gen", "dpn", "--n", "6", "--out", str(path)]) == 0
    monkeypatch.setattr(quasikernel.exact, "MAX_SEARCH_STEPS", 1_000)
    assert main(["solve", str(path), "--algo", "exact"]) == 1
    captured = capsys.readouterr()
    assert "over the step limit MAX_SEARCH_STEPS=1000" in captured.err
    assert captured.out == ""


def test_solve_exact_on_45_vertices(tmp_path, capsys):
    # |I| = 36; the plain digraph needs no split partition
    split, plain = tmp_path / "dn4.qkdg", tmp_path / "dn4-plain.qkdg"
    assert main(["gen", "dn", "--n", "4", "--out", str(split)]) == 0
    plain.write_text(serialize_instance(gen_dn(4).graph))
    for path in (split, plain):
        code, out = run(capsys, "solve", str(path), "--algo", "exact")
        assert code == 0
        assert "size: 17\n" in out and "minimum: true\n" in out
    # fpt-i decides sizes from k down on the same search: none of 16
    # vertices, and at k = 17 the minimum, which it reports as one
    code, out = run(capsys, "solve", str(split), "--algo", "fpt-i", "--k", "16")
    assert code == 1 and out == "no quasi-kernel of size <= 16\n"
    code, out = run(capsys, "solve", str(split), "--algo", "fpt-i", "--k", "17")
    assert code == 0
    assert "size: 17\n" in out and "minimum: true\n" in out


def test_solve_exact_on_gen_dpn_20(tmp_path, capsys):
    # 861 vertices, within MAX_SEARCH_STEPS: one failed decision, at size 380
    path = tmp_path / "dpn20.qkdg"
    assert main(["gen", "dpn", "--n", "20", "--out", str(path)]) == 0
    code, out = run(capsys, "solve", str(path), "--algo", "exact")
    assert code == 0
    assert "size: 381\n" in out and "minimum: true\n" in out


def test_solve_fpt_k_proves_the_minimum_of_gen_dn_6(tmp_path, capsys):
    # 91 vertices: the reachability cut proves that no quasi-kernel of 36
    # vertices exists, within MAX_SEARCH_STEPS; a refusal over the step
    # limit also exits 1, so the check is on the message
    path = tmp_path / "dn6.qkdg"
    assert main(["gen", "dn", "--n", "6", "--out", str(path)]) == 0
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-k", "--k", "36")
    assert code == 1 and out == "no quasi-kernel of size <= 36\n"
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-k", "--k", "37")
    assert code == 0 and "size: 37\n" in out


def test_solve_exact_on_a_sparse_120_vertex_digraph(tmp_path, capsys):
    # G(120, 0.03), seed 0: proving that no quasi-kernel of size 10 exists
    # took the lexicographic search past MAX_SEARCH_STEPS
    path = tmp_path / "g120.qkdg"
    path.write_text(serialize_instance(gnp(120, 0.03, 0)))
    code, out = run(capsys, "solve", str(path), "--algo", "exact")
    assert code == 0
    assert "size: 11\n" in out and "minimum: true\n" in out


def test_verify_good_and_bad_sets(tmp_path, capsys):
    path = write_dn1(tmp_path)
    capsys.readouterr()
    code, out = run(capsys, "verify", str(path), "0,4")
    assert code == 0
    assert out.startswith("qkcert 1")
    code, out = run(capsys, "verify", str(path), "0")
    assert code == 1
    assert "first offending vertex 4" in out


def test_verify_bad_literal(tmp_path):
    path = write_dn1(tmp_path)
    assert main(["verify", str(path), "0,x"]) == 2


def test_exit_code_2_on_malformed_inputs(tmp_path, capsys):
    cases = [
        "qkdg 2\nn 1\n",
        "n 1\n",
        "qkdg 1\nn 2\na 0 0\n",
        "qkdg 1\nn 2\na 0 1\na 0 1\n",
        "qkdg 1\nn 2\nk 0 1\n",
        "qkdg 1\nn --5\n",
        "qkdg 1\nn \u00b2\n",
        "qkdg 1\nn 30000000\n",
        b"qkdg 1\nn 2\na 0 1\xff\n",
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.qkdg"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert main(["solve", str(path)]) == 2
        assert main(["verify", str(path), "0"]) == 2
    assert "error: line 3: not UTF-8: byte 0xff" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.qkdg")]) == 2
    # unreadable paths: a directory as the instance or as the --out target
    for argv in (["solve"], ["verify", "0"], ["reduce", "--q", "1"], ["bounds"], ["dot"]):
        assert main([argv[0], str(tmp_path), *argv[1:]]) == 2
    good = write_dn1(tmp_path)
    assert main(["solve", str(good), "--out", str(tmp_path)]) == 2
    assert main(["dot", str(good), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error: [Errno") == 8  # missing file and 7 directories
    assert captured.out == ""  # no solve report for a certificate not written
    assert main(["solve"]) == 2  # argparse usage error


def test_instance_files_over_the_byte_cap_exit_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "comments.qkdg"
    text = "qkdg 1\n" + "# c\n" * 10 + "n 1\n"
    path.write_text(text)
    monkeypatch.setattr(quasikernel.cli, "MAX_INSTANCE_BYTES", len(text))
    assert main(["solve", str(path)]) == 0
    monkeypatch.setattr(quasikernel.cli, "MAX_INSTANCE_BYTES", len(text) - 1)
    assert main(["solve", str(path)]) == 2
    assert main(["verify", str(path), "0"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: line 12: file over the cap MAX_INSTANCE_BYTES={len(text) - 1}") == 2


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n", "\v", "\u2028"])
def test_read_errors_count_lines_as_the_parser_does(tmp_path, monkeypatch, capsys, end):
    # the byte errors of the file reader number lines as parse_instance
    # does, for every line end that str.splitlines knows: line 3 each time
    lines = ["qkdg 1", "n 2", "a 0 "]
    path = tmp_path / "bad.qkdg"
    path.write_bytes(end.join(lines).encode() + b"\xff" + end.encode())
    assert main(["solve", str(path)]) == 2
    path.write_text(end.join(lines) + "x" + end, encoding="utf-8", newline="")
    assert main(["solve", str(path)]) == 2
    text = end.join(lines) + "1" + end
    path.write_text(text, encoding="utf-8", newline="")
    # the cap falls on the last byte of line 3, then on its line end
    for cap in (len(text.encode()) - len(end.encode()) - 1, len(text.encode()) - 1):
        monkeypatch.setattr(quasikernel.cli, "MAX_INSTANCE_BYTES", cap)
        assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4
    assert all(line.startswith("error: line 3: ") for line in err)


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(
        st.sampled_from([b"a", b"\n", b"\r", b"\r\n", b"\x0b", b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80", b"\xff"]),
        min_size=1,
        max_size=12,
    ).map(b"".join),
)
def test_line_at_numbers_lines_as_splitlines_does(data):
    # the line of byte pos is the last str.splitlines line of the text
    # decoded through pos
    for pos in range(len(data)):
        expected = len(data[:pos + 1].decode("utf-8", "replace").splitlines())
        assert quasikernel.cli._line_at(data, pos) == expected


@pytest.mark.parametrize("argv", [
    ["solve", "F", "--k", "-1"],
    ["solve", "F", "--algo", "cl", "--k", "1"],
    ["verify", "F", "x"],
    ["reduce", "F", "--q", "0"],
])
def test_bad_arguments_exit_2_before_the_read(tmp_path, monkeypatch, capsys, argv):
    # a bad argument is refused before a file of up to MAX_INSTANCE_BYTES is read
    path = write_dn1(tmp_path)
    calls = []
    monkeypatch.setattr(quasikernel.cli, "_read_instance", lambda *args, **kwargs: calls.append(args))
    assert main([str(path) if arg == "F" else arg for arg in argv]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: ")


def test_instance_from_a_fifo(tmp_path, capsys):
    # a FIFO reports size 0 to stat, and its instance is still read whole
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs")
    path = tmp_path / "dn1.fifo"
    os.mkfifo(path)
    text = serialize_instance(gen_dn(1))
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        code, out = run(capsys, "solve", str(path))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == 0 and "size: 2\n" in out


def test_endless_instance_file_exit_2():
    # /dev/zero never ends.  The command runs in a child process whose
    # address space is capped at 512 MiB, so an uncapped read fails fast
    # instead of filling the memory.
    pytest.importorskip("resource")
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero")
    proc = run_python(*QKDG, "solve", "/dev/zero", address_space=1 << 29)
    assert proc.returncode == 2
    assert f"over the cap MAX_INSTANCE_BYTES={files.MAX_INSTANCE_BYTES}" in proc.stderr
    assert proc.stdout == ""


def test_reduce_counts_and_labels(tmp_path, capsys):
    src = tmp_path / "arc.qkdg"
    src.write_text("qkdg 1\nn 2\na 0 1\n")
    code, out = run(capsys, "reduce", str(src), "--q", "1")
    assert code == 0
    host = parse_instance(out)
    assert host.graph.n == 14
    assert len(host.graph.arcs) == 28
    assert "# label s1_0 1" in out
    assert main(["reduce", str(src), "--q", "0"]) == 2


def test_reduce_over_the_arc_cap_exit_1(tmp_path):
    # q = 10**9 asks for about 2e18 arcs.  The command runs in a child
    # process whose address space is capped at 1 GiB, so a gadget built
    # before the cap is checked fails fast instead of filling the memory.
    pytest.importorskip("resource")
    src = tmp_path / "arc.qkdg"
    src.write_text("qkdg 1\nn 2\na 0 1\n")
    proc = run_python(*QKDG, "reduce", str(src), "--q", "1000000000", address_space=1 << 30)
    assert proc.returncode == 1
    assert "over the cap MAX_ARCS=2000000" in proc.stderr
    assert proc.stdout == ""


def test_bounds_reports_applicable_rows(tmp_path, capsys):
    path = write_dn1(tmp_path)
    capsys.readouterr()
    code, out = run(capsys, "bounds", str(path))
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()]
    assert names == ["cl", "one-way", "two-thirds", "exact"]
    assert all("verified=yes" in line for line in out.splitlines())
    one_way_row = [l for l in out.splitlines() if l.startswith("one-way")][0]
    assert "bound=2/1" in one_way_row and "achieved=2" in one_way_row


def test_bounds_on_bigger_one_way_family(tmp_path, capsys):
    path = tmp_path / "dn2.qkdg"
    assert main(["gen", "dn", "--n", "2", "--out", str(path)]) == 0
    code, out = run(capsys, "bounds", str(path))
    assert code == 0
    one_way_row = [l for l in out.splitlines() if l.startswith("one-way")][0]
    assert "bound=5/1" in one_way_row  # floor((15+3)/2 - sqrt(15))
    achieved = int(one_way_row.split("achieved=")[1].split()[0])
    assert achieved <= 5
    exact_row = [l for l in out.splitlines() if l.startswith("exact")][0]
    assert "achieved=5" in exact_row


def test_bounds_plain_digraph_has_exact_row(tmp_path, capsys):
    path = tmp_path / "plain.qkdg"
    path.write_text("qkdg 1\nn 3\na 0 1\na 1 2\na 2 0\n")
    code, out = run(capsys, "bounds", str(path))
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()]
    assert names == ["cl", "exact"]


def test_bounds_includes_peel_row_for_sinks(tmp_path, capsys):
    path = tmp_path / "sink.qkdg"
    path.write_text("qkdg 1\nn 3\nk 0 1\na 0 1\na 0 2\n")
    code, out = run(capsys, "bounds", str(path))
    assert code == 0
    peel_row = [l for l in out.splitlines() if l.startswith("peel")][0]
    assert "bound=8/3" in peel_row


@pytest.mark.parametrize("algo, make, seed", [
    ("one-way", lambda: near_transitive_ladder(150), 12),
    ("peel", lambda: gen_random_split(3, 150, 150, p_i_to_k=0.01, p_k_to_i=0.005), 14),
])
def test_solve_and_bounds_agree_off_a_prefix(tmp_path, capsys, algo, make, seed):
    # a one-way ladder and a random split with sinks, relabelled so that
    # the clique is not a vertex prefix: auto picks the construction,
    # bounds achieves the same size, and the set verifies
    sd = make()
    perm = list(range(sd.graph.n))
    random.Random(seed).shuffle(perm)
    sd = relabel_split(sd, perm)
    assert sd.clique != (1 << sd.clique.bit_count()) - 1
    path = tmp_path / "split.qkdg"
    path.write_text(serialize_instance(sd))
    code, out = run(capsys, "solve", str(path))
    assert code == 0 and f"algorithm: {algo}\n" in out
    size = next(line for line in out.splitlines() if line.startswith("size: "))[len("size: "):]
    vertices = next(line for line in out.splitlines() if line.startswith("set: "))[len("set: "):]
    code, out = run(capsys, "bounds", str(path))
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith(f"{algo} "))
    assert row.endswith(f" achieved={size} verified=yes")
    assert main(["verify", str(path), vertices.replace(" ", ",")]) == 0


def test_dot_subcommand(tmp_path, capsys):
    path = write_dn1(tmp_path)
    capsys.readouterr()
    code, out = run(capsys, "dot", str(path))
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 6


# --- certificate digests made as the instance is read ----------------------


def _chunk_starts(text: str, chunk: int) -> set[int]:
    """Where parse_instance starts each chunk of the arc block of text."""
    pos = text.find("\na ") + 1
    starts = set()
    while pos < len(text):
        starts.add(pos)
        pos = files._chunk_end(text, pos, min(len(text), pos + chunk))
    return starts


def _line_starts(head: str, lines: list[str]) -> list[int]:
    """The offset of each arc line in head + '\\n' + the lines."""
    starts = [len(head) + 1]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)
    return starts[:-1]


def _tail(line: str) -> str:
    return line.split()[1]


@functools.cache
def digest_forms() -> dict[str, tuple[str, int | None]]:
    """(text, BULK_CHUNK to read it with, or None) for each form of a dense
    120-vertex split digraph whose digest a certificate must name."""
    text = serialize_instance(gen_random_split(7, 60, 60))
    head, arcs = text.split("\na ", 1)
    magic, n_line, k_line = head.split("\n")
    lines = ("a " + arcs).splitlines()

    def join(head_lines, arc_lines):
        return "\n".join([*head_lines, *arc_lines]) + "\n"

    # two lines of one run, swapped within a chunk
    starts = _chunk_starts(text, files.BULK_CHUNK)
    offsets = _line_starts(head, lines)
    i = next(i for i in range(len(lines) // 2, len(lines) - 1)
             if _tail(lines[i]) == _tail(lines[i + 1]) and offsets[i + 1] not in starts)
    swapped = list(lines)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    # two lines of one run and of one length, swapped across a chunk
    # boundary: each chunk is in order, the heads across it are not
    across = next(
        (chunk, i)
        for chunk in range(60, 400)
        for i in range(len(lines) - 1)
        if _tail(lines[i]) == _tail(lines[i + 1]) and len(lines[i]) == len(lines[i + 1])
        and offsets[i + 1] in _chunk_starts(text, chunk)
    )
    heads_across = list(lines)
    heads_across[across[1]], heads_across[across[1] + 1] = lines[across[1] + 1], lines[across[1]]
    # the last arc of the first run moved to the start of a later chunk: no
    # duplicate there, and a head above its tail's others, but a tail below
    # the last one before it
    first_end = next(i for i, line in enumerate(lines) if _tail(line) != _tail(lines[0])) - 1
    moved = lines[:first_end] + lines[first_end + 1:]
    tail_across = next(
        (chunk, moved[:j] + [lines[first_end]] + moved[j:])
        for chunk in range(60, 400)
        for j in range(first_end + 2, len(moved))
        if _tail(moved[j - 1]) != _tail(lines[first_end])
        and _line_starts(head, moved)[j] in _chunk_starts(join([head], moved), chunk)
    )
    middle = len(lines) // 2
    return {
        "canonical": (text, None),
        "header comments": (join([magic, "# made by hand", n_line, "", "# k next", k_line], lines), None),
        "permuted k": (join([magic, n_line, " ".join(["k", *k_line.split()[:0:-1]])], lines), None),
        "swapped heads": (join([head], swapped), None),
        "heads across a chunk": (join([head], heads_across), across[0]),
        "tail across a chunk": (join([head], tail_across[1]), tail_across[0]),
        "double space": (join([head], lines[:middle] + [lines[middle].replace(" ", "  ", 1)] + lines[middle + 1:]), None),
        "trailing space": (join([head], lines[:middle] + [lines[middle] + " "] + lines[middle + 1:]), None),
        "CRLF": (text.replace("\n", "\r\n"), None),
        "comment after the last arc": (text + "# end\n", None),
        "n < 64": (serialize_instance(gen_random_split(7, 20, 20)), None),
        "no arcs": ("qkdg 1\nn 70\n", None),
    }


def _written_digest(text: str) -> str:
    return next(line for line in text.splitlines() if line.startswith("instance "))[len("instance "):]


@pytest.mark.parametrize("form", list(digest_forms()))
def test_certificates_name_the_instance_digest(tmp_path, monkeypatch, capsys, form):
    text, chunk = digest_forms()[form]
    expected = instance_digest(parse_instance(text))
    path = tmp_path / "instance.qkdg"
    path.write_bytes(text.encode())
    if chunk is not None:
        monkeypatch.setattr(files, "BULK_CHUNK", chunk)
    solved = tmp_path / "solve.qkcert"
    assert main(["solve", str(path), "--out", str(solved)]) == 0
    vertices = parse_certificate(solved.read_text()).vertices
    verified = tmp_path / "verify.qkcert"
    literal = ",".join(map(str, vertices))
    assert main(["verify", str(path), literal, "--out", str(verified)]) == 0
    code, out = run(capsys, "verify", str(path), literal)
    assert code == 0
    assert _written_digest(solved.read_text()) == expected
    assert _written_digest(verified.read_text()) == expected
    assert _written_digest(out) == expected


def test_verify_digests_a_canonical_file_without_serializing_it(tmp_path, monkeypatch):
    text, _ = digest_forms()["header comments"]
    swapped, _ = digest_forms()["swapped heads"]
    expected = instance_digest(parse_instance(text))
    literal = ",".join(map(str, sorted(quasi_kernel_cl(parse_instance(text).graph))))
    for name, content in (("canonical", text), ("swapped", swapped)):
        (tmp_path / f"{name}.qkdg").write_text(content, encoding="utf-8")
    serialize = files.serialize_instance

    def refused(obj, comments=()):
        raise AssertionError("the instance was serialized again")

    monkeypatch.setattr(files, "serialize_instance", refused)
    out = tmp_path / "canonical.qkcert"
    assert main(["verify", str(tmp_path / "canonical.qkdg"), literal, "--out", str(out)]) == 0
    assert _written_digest(out.read_text()) == expected
    # a file that is not canonical is serialized once, for its digest
    calls = []

    def counted(obj, comments=()):
        calls.append(obj)
        return serialize(obj, comments)

    monkeypatch.setattr(files, "serialize_instance", counted)
    out = tmp_path / "swapped.qkcert"
    assert main(["verify", str(tmp_path / "swapped.qkdg"), literal, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert _written_digest(out.read_text()) == expected


def _solve_peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reads_hold_the_file_once(tmp_path, capsys):
    # the bytes of a file are freed once decoded, so the parse holds its
    # text alone
    path = tmp_path / "big.qkdg"
    path.write_text(serialize_instance(gen_random_split(3, 200, 200, sink_free=True)), encoding="utf-8")
    size = path.stat().st_size
    # the parser and the lazy imports are built outside the traced calls
    assert main(["bounds", str(path)]) == 0
    for command in ("solve", "bounds"):
        assert _solve_peak([command, str(path)]) < 2.4 * size
    capsys.readouterr()


def test_solve_out_peaks_as_solve_does(tmp_path, capsys):
    # the digest comes from the text as it is read: no second text of the
    # instance, and no list of its lines, is made for it
    path = tmp_path / "big.qkdg"
    path.write_text(serialize_instance(gen_random_split(3, 200, 200, sink_free=True)), encoding="utf-8")
    plain = _solve_peak(["solve", str(path)])
    written = _solve_peak(["solve", str(path), "--out", str(tmp_path / "big.qkcert")])
    capsys.readouterr()
    assert written <= 1.1 * plain


# --- --out files: written in place, cut at the new end ---------------------

# each command that takes --out, by the arguments before it; "{dn1}" is the
# path of a gen_dn(1) instance, where 0,4 is a quasi-kernel
WRITERS = {
    "gen": ["gen", "dn", "--n", "2"],
    "solve": ["solve", "{dn1}"],
    "verify": ["verify", "{dn1}", "0,4"],
    "reduce": ["reduce", "{dn1}", "--q", "1"],
    "dot": ["dot", "{dn1}"],
}


def _writer_argv(command: str, dn1: Path, out: str) -> list[str]:
    return [arg.format(dn1=dn1) for arg in WRITERS[command]] + ["--out", out]


@pytest.mark.parametrize("command", list(WRITERS))
def test_out_over_a_longer_file_equals_a_fresh_write(tmp_path, capsys, command):
    dn1 = write_dn1(tmp_path)
    fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
    assert main(_writer_argv(command, dn1, str(fresh))) == 0
    fresh_bytes = fresh.read_bytes()
    old.write_bytes(b"x" * (len(fresh_bytes) + 100_000))
    old.chmod(0o600)
    link = tmp_path / "link.out"
    os.link(old, link)
    inode = old.stat().st_ino
    assert main(_writer_argv(command, dn1, str(old))) == 0
    # the same bytes, in the same inode, with its mode and its links
    assert old.read_bytes() == fresh_bytes
    assert link.read_bytes() == fresh_bytes
    assert old.stat().st_ino == inode and old.stat().st_nlink == 2
    assert old.stat().st_mode & 0o777 == 0o600
    capsys.readouterr()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("command", list(WRITERS))
def test_out_to_dev_null_is_written_but_not_cut(tmp_path, capsys, command):
    dn1 = write_dn1(tmp_path)
    capsys.readouterr()
    code, out = run(capsys, *_writer_argv(command, dn1, str(tmp_path / "regular.out")))
    assert code == 0
    # /dev/null cannot be truncated: a cut there would exit 2
    assert run(capsys, *_writer_argv(command, dn1, "/dev/null")) == (0, out)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_certificate_write_that_fails_exits_2_with_no_report(tmp_path, capsys, command):
    dn1 = write_dn1(tmp_path)
    capsys.readouterr()
    assert main(_writer_argv(command, dn1, "/dev/full")) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 28]")
    assert captured.out == ""


def test_a_new_out_file_gets_the_mode_open_gives_it(tmp_path, capsys):
    dn1 = write_dn1(tmp_path)
    old_umask = os.umask(0o027)
    try:
        assert main(_writer_argv("solve", dn1, str(tmp_path / "new.qkcert"))) == 0
        with open(tmp_path / "by_open.txt", "w"):
            pass
    finally:
        os.umask(old_umask)
    mode = (tmp_path / "new.qkcert").stat().st_mode & 0o777
    assert mode == 0o666 & ~0o027 == (tmp_path / "by_open.txt").stat().st_mode & 0o777
    capsys.readouterr()


# --- fuzz of main(argv) ----------------------------------------------------

ALGOS = ["auto", "cl", "one-way", "two-thirds", "peel", "complete-split", "fpt-k", "fpt-i", "exact"]
LINES = ["qkdg 1", "qkdg 2", "n 0", "n 3", "n -1", "k 0", "k 0 1", "k 5", "a 0 1", "a 1 0",
         "a 1 2", "a 0 0", "a 9 1", "a 0", "# c", "", "x"]

instance_bytes = st.one_of(
    st.one_of(digraphs(max_n=6), split_digraphs(max_k=3, max_i=4)).map(
        lambda g: serialize_instance(g).encode()
    ),
    st.lists(st.sampled_from(LINES), max_size=6).map(lambda ls: "\n".join(ls).encode()),
    st.binary(max_size=16).map(lambda tail: b"qkdg 1\nn 2\n" + tail),
)
small = st.integers(-1, 3).map(str)
prob = st.one_of(st.floats(-0.5, 1.5).map(str), st.sampled_from(["nan", "inf", "x"]))


@st.composite
def argvs(draw, paths: dict[str, str]) -> list[str]:
    path = draw(st.sampled_from([paths["instance"], paths["dir"], paths["missing"]]))
    out = draw(st.sampled_from([[], ["--out", paths["out"]], ["--out", paths["dir"]]]))
    command = draw(st.sampled_from(["gen", "solve", "verify", "reduce", "bounds", "dot", "raw"]))
    if command == "gen":
        family = draw(st.sampled_from(["dn", "dpn", "random-split", "random-complete-split"]))
        if family in ("dn", "dpn"):
            return ["gen", family, "--n", draw(small), *out]
        argv = ["gen", family, "--seed", draw(small), "--nk", draw(small), "--ni", draw(small)]
        flags = ["--p-digon", "--sink-free"]
        if family == "random-split":
            flags += ["--p-ki", "--p-ik", "--one-way"]
        for flag in draw(st.lists(st.sampled_from(flags), unique=True)):
            argv += [flag] if flag in ("--sink-free", "--one-way") else [flag, draw(prob)]
        return argv + out
    if command == "solve":
        k = draw(st.sampled_from([[], ["--k", draw(small)]]))
        return ["solve", path, "--algo", draw(st.sampled_from(ALGOS)), *k, *out]
    if command == "verify":
        return ["verify", path, draw(st.text("0123,- x", max_size=6)), *out]
    if command == "reduce":
        return ["reduce", path, "--q", draw(small), *out]
    if command == "bounds":
        return ["bounds", path]
    if command == "dot":
        return ["dot", path, *out]
    tokens = ["gen", "solve", "verify", "dn", "--n", "--k", "--algo", "exact", "1", "-1", path]
    return draw(st.lists(st.sampled_from(tokens), max_size=5))


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("fuzz")
    names = {"instance": "drawn.qkdg", "missing": "missing.qkdg", "out": "out.txt"}
    return {"dir": str(root), **{key: str(root / name) for key, name in names.items()}}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), content=instance_bytes)
def test_main_returns_an_exit_code_on_any_argv(fuzz_paths, data, content):
    Path(fuzz_paths["instance"]).write_bytes(content)
    assert main(data.draw(argvs(fuzz_paths))) in (0, 1, 2)
