import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import distinct_class_split

import quasikernel
from quasikernel import (
    check_certificate,
    gen_dn,
    parse_certificate,
    parse_instance,
    serialize_instance,
)
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


def test_solve_fpt_k_on_many_classes(tmp_path, capsys):
    path = tmp_path / "wide.qkdg"
    path.write_text(serialize_instance(distinct_class_split()))
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-k", "--k", "0")
    assert code == 1
    assert "no quasi-kernel of size <= 0" in out
    code, out = run(capsys, "solve", str(path), "--algo", "fpt-k", "--k", "1")
    assert code == 0
    assert "algorithm: fpt-k" in out and "set: 11" in out


def test_solve_precondition_failures_exit_1(tmp_path, capsys):
    sink = tmp_path / "sink.qkdg"
    sink.write_text("qkdg 1\nn 2\nk 0 1\na 0 1\n")
    assert main(["solve", str(sink), "--algo", "two-thirds"]) == 1
    assert main(["solve", str(sink), "--algo", "one-way"]) == 1
    plain = tmp_path / "plain.qkdg"
    plain.write_text("qkdg 1\nn 2\na 0 1\n")
    assert main(["solve", str(plain), "--algo", "two-thirds"]) == 1
    assert main(["solve", str(plain), "--algo", "fpt-k"]) == 1


def test_solve_exact_cap_exit_1(tmp_path):
    path = tmp_path / "big.qkdg"
    path.write_text("qkdg 1\nn 30\n" + "".join(f"a {v} {v+1}\n" for v in range(29)))
    assert main(["solve", str(path), "--algo", "exact"]) == 1


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
    assert main(["solve"]) == 2  # argparse usage error


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
    resource = pytest.importorskip("resource")
    src = tmp_path / "arc.qkdg"
    src.write_text("qkdg 1\nn 2\na 0 1\n")
    package_root = str(Path(quasikernel.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    limit = 1 << 30
    script = "import sys; from quasikernel.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, "reduce", str(src), "--q", "1000000000"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
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


def test_dot_subcommand(tmp_path, capsys):
    path = write_dn1(tmp_path)
    capsys.readouterr()
    code, out = run(capsys, "dot", str(path))
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 6
