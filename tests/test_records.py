"""The public names, the public value records and the modules a CLI
process loads.

Every name in ``quasikernel.__all__`` resolves.  The four records are
NamedTuples: fixed field names, immutable, equal when their fields are,
and shown as ``Name(field=value, ...)``.  A fresh ``qkdg`` process
imports neither ``dataclasses`` (with ``inspect``) nor ``hashlib`` until
it makes a digest, and never ``pathlib``.
"""
import json

import pytest

from conftest import run_python

import quasikernel
from quasikernel import (
    Digraph,
    QkCertificate,
    gen_dn,
    min_quasi_kernel,
    reduce_dds_to_qk,
    serialize_instance,
)


def _records():
    sd = gen_dn(1)
    cert = sd.graph.certify({0, 4}, "test")
    return {
        "SplitFlags": (sd.classify(), ("one_way", "complete_split", "orientation", "sink_free")),
        "QkCertificate": (cert, ("vertices", "witnesses", "algorithm", "bound")),
        "SolveReport": (min_quasi_kernel(sd), ("certificate", "explored")),
        "ReductionArtifact": (
            reduce_dds_to_qk(Digraph(2, [(0, 1)]), 1),
            ("host", "source", "q", "b", "source_n", "source_m", "labels", "names"),
        ),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_record_contract(name):
    record, fields = _records()[name]
    assert type(record).__name__ == name
    assert type(record)._fields == fields
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    copy = type(record)(*(getattr(record, f) for f in fields))
    assert copy == record and copy is not record
    assert copy == tuple(getattr(record, f) for f in fields)
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{name}({shown})"


def test_certificate_bound_defaults_to_none():
    cert = QkCertificate(frozenset({0}), {}, "test")
    assert cert.bound is None
    assert cert.size == 1 and len(cert) == 4


def test_public_names_resolve_and_the_removed_ones_are_gone():
    for name in quasikernel.__all__:
        getattr(quasikernel, name)
    # the arc view, the 2-serf wrapper and the boolean check that only
    # tests reached
    assert not hasattr(quasikernel.digraph, "ArcView")
    assert not hasattr(quasikernel, "two_serf_semicomplete")
    assert not hasattr(quasikernel.construct, "two_serf_semicomplete")
    assert not hasattr(QkCertificate, "verify")
    # the second certificate record, a QkCertificate plus a digest, and the
    # oracle adapter that only peel_split called
    assert not hasattr(quasikernel, "CertificateDocument")
    assert not hasattr(quasikernel.files, "CertificateDocument")
    assert not hasattr(quasikernel, "split_subset_oracle")
    assert not hasattr(quasikernel.split_qk, "split_subset_oracle")
    arcs = Digraph(3, [(2, 0), (0, 2), (0, 1), (0, 1)]).arcs
    assert type(arcs) is tuple and arcs == ((0, 1), (0, 2), (2, 0))


def test_cli_import_loads_no_dataclasses_inspect_or_hashlib(tmp_path):
    # nor pathlib, also not in the commands that write --out files; -S
    # keeps out what site's .pth hooks import
    path = tmp_path / "dn1.qkdg"
    path.write_text(serialize_instance(gen_dn(1)), encoding="utf-8")
    script = (
        "import json, sys\n"
        "import quasikernel.cli\n"
        "from quasikernel.cli import main\n"
        "from quasikernel.files import instance_digest, parse_instance\n"
        "names = ('dataclasses', 'inspect', 'hashlib', 'pathlib')\n"
        "seen = [[m for m in names if m in sys.modules]]\n"
        "inst, out = sys.argv[1], sys.argv[2]\n"
        "main(['solve', inst])\n"
        "main(['bounds', inst])\n"
        "seen.append([m for m in names if m in sys.modules])\n"
        "for argv in (['gen', 'dn', '--n', '1'], ['solve', inst], ['verify', inst, '0,4'],\n"
        "             ['reduce', inst, '--q', '1'], ['dot', inst]):\n"
        "    assert main([*argv, '--out', out]) == 0\n"
        "seen.append([m for m in names if m in sys.modules])\n"
        "instance_digest(parse_instance(open(inst).read()))\n"
        "seen.append([m for m in names if m in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    proc = run_python("-S", "-c", script, str(path), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    after_import, after_solve, after_writes, after_digest = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == []
    assert after_solve == []
    # a certificate names its instance's digest
    assert after_writes == ["hashlib"]
    assert after_digest == ["hashlib"]
