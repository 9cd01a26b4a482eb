"""The qkdg console script, run as its entry point runs it: app() in a
fresh interpreter, whose exit status reaches the shell through
sys.exit.  The other tests call main() in-process and see only its
return value.  The demos run here too, each as its own script.

Every process works in tmp_path.
"""
from pathlib import Path

import pytest

from conftest import QKDG, run_python

from quasikernel import check_certificate, parse_certificate, parse_instance
from quasikernel.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("argv, status", [
    (["gen", "dn", "--n", "2"], 0),
    # fpt-i finds no quasi-kernel of 16 vertices in gen_dn(4), whose minimum is 17
    (["solve", "dn4.qkdg", "--algo", "fpt-i", "--k", "16"], 1),
    (["solve", "."], 2),
])
def test_app_exits_with_the_status_main_returns(tmp_path, monkeypatch, capsys, argv, status):
    # the process prints what main prints and exits with what main returns
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "dn", "--n", "4", "--out", "dn4.qkdg"]) == 0
    proc = run_python(*QKDG, *argv, cwd=tmp_path)
    capsys.readouterr()
    assert main(argv) == status
    captured = capsys.readouterr()
    assert proc.returncode == status
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)


def test_certificates_written_by_one_process_check_in_another(tmp_path):
    # solve's and verify's certificates name the instance that a later
    # process reads, and each passes check_certificate against it
    path = tmp_path / "dn2.qkdg"
    assert main(["gen", "dn", "--n", "2", "--out", str(path)]) == 0
    assert run_python(*QKDG, "solve", "dn2.qkdg", "--out", "solve.qkcert", cwd=tmp_path).returncode == 0
    solved_text = (tmp_path / "solve.qkcert").read_text(encoding="utf-8")
    solved, solved_digest = parse_certificate(solved_text)
    literal = ",".join(map(str, solved.sorted_vertices()))
    verify = run_python(*QKDG, "verify", "dn2.qkdg", literal, "--out", "verify.qkcert", cwd=tmp_path)
    assert verify.returncode == 0
    verified_text = (tmp_path / "verify.qkcert").read_text(encoding="utf-8")
    verified, verified_digest = parse_certificate(verified_text)
    assert verified.algorithm == "verify"
    assert verified_digest == solved_digest
    instance = parse_instance(path.read_text(encoding="utf-8"))
    for text in (solved_text, verified_text):
        check_certificate(text, instance)


@pytest.mark.parametrize("demo", ["bounds_tour.py", "hardness_gadget.py"])
def test_demo_asserts_what_it_prints(tmp_path, demo):
    proc = run_python(str(DEMOS / demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and proc.stderr == ""
