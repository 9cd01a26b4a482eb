"""Closed-loop calls of ``quasikernel.cli.main``, one timed call at a time.

Each call runs in-process with stdout and stderr captured in memory, after
a ``gc.collect()`` that is not timed; gc itself stays enabled.  Every answer
is checked against the expectations the workload states, using ``oracle``
only.  A check that fails marks its call as failed; it never stops the run.

The host's processor speed drifts by up to 2x for seconds to minutes at a
time, and a slow spell can cover a whole run.  So each timed call is
bracketed by a fixed speed probe, and its wall time is also reported scaled
to the speed at which the probe takes ``REFERENCE_PROBE_S``: the call's
wall time times ``REFERENCE_PROBE_S`` over the mean of the two probe times.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import random
import sys
import tracemalloc
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracle


# the speed probe's fastest time on the 2-vCPU, 2.1 GHz reference host
REFERENCE_PROBE_S = 0.0055


def _probe_input(n: int = 300, draws: int = 3600) -> str:
    rng = random.Random(20231215)
    arcs = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(draws)})
    return "\n".join(f"a {t} {h}" for t, h in arcs)


_PROBE_TEXT = _probe_input()


def probe() -> float:
    """Seconds taken by a fixed piece of work that, like the package, parses
    arc lines, unions sets of out-neighbours and formats text."""
    start = perf_counter()
    out: dict[int, set[int]] = {}
    for line in _PROBE_TEXT.splitlines():
        _, t, h = line.split()
        out.setdefault(int(t), set()).add(int(h))
    for heads in out.values():
        two = set(heads)
        for w in heads:
            two |= out.get(w, set())
    "\n".join(f"{v} {' '.join(map(str, sorted(h)))}" for v, h in out.items())
    return perf_counter() - start


def scaled_call(fn: Callable[[], object], reps: int = 1) -> tuple[object, float, float]:
    """fn called reps times in a row: the last result, and the wall time per
    call, as measured and at the reference speed."""
    before = probe()
    start = perf_counter()
    for _ in range(reps):
        result = fn()
    seconds = (perf_counter() - start) / reps
    after = probe()
    return result, seconds, seconds * 2 * REFERENCE_PROBE_S / (before + after)


def reps_for(seconds: float, min_sample_s: float) -> int:
    """How many calls of the given length make a sample of at least min_sample_s."""
    return max(1, math.ceil(min_sample_s / max(seconds, 1e-9)))


class Mismatch(Exception):
    """An answer differs from what the workload expects."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


@dataclass
class Result:
    index: int
    label: str
    code: int | None
    stdout: str
    stderr: str

    def report(self) -> dict[str, str]:
        """The 'key: value' lines of a solve report."""
        return dict(
            line.split(": ", 1) for line in self.stdout.splitlines() if ": " in line
        )


@dataclass
class PassRecord:
    """Wall time and scaled time per call label, and the solve sizes, of one pass."""

    op_seconds: dict[str, float] = field(default_factory=dict)
    op_scaled: dict[str, float] = field(default_factory=dict)
    qk_size_sum: int = 0


class Runner:
    def __init__(self, main: Callable[[list[str]], int], work: Path, files: dict[str, Path]):
        self.main = main
        self.work = work
        self.files = files
        self.insts = {name: oracle.Instance(path.read_text()) for name, path in files.items()}
        self.attempted = 0
        self.failures: dict[int, list[str]] = {}
        self.digests: dict[str, str] = {}
        self.record = PassRecord()
        self.on_op: Callable[[str], None] | None = None
        self.trace_memory = False
        self.peak_bytes = 0
        # with min_sample_s set, a call shorter than it is repeated within
        # its sample; the count per label is fixed by the label's first call
        self.min_sample_s = 0.0
        self.reps: dict[str, int] = {}

    # -- calls ------------------------------------------------------------

    def new_pass(self) -> PassRecord:
        self.record = PassRecord()
        return self.record

    def op(self, command: str, name: str, argv: list[str]) -> Result:
        """One timed ``qkdg <command> <argv>`` call, labelled '<command> <name>'."""
        label = f"{command} {name}"
        self.attempted += 1
        if self.on_op is not None:
            self.on_op(label)
        out, err = io.StringIO(), io.StringIO()

        def call() -> int | None:
            for buffer in (out, err):
                buffer.seek(0)
                buffer.truncate()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return self.main([command, *argv])
                except Exception:
                    err.write(traceback.format_exc())
                    return None

        gc.collect()
        if self.trace_memory:
            tracemalloc.start()
            code = call()
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        else:
            code, seconds, scaled = scaled_call(call, self.reps.get(label, 1))
            self.record.op_seconds[label] = seconds
            self.record.op_scaled[label] = scaled
            if self.min_sample_s and label not in self.reps:
                self.reps[label] = reps_for(seconds, self.min_sample_s)
        return Result(self.attempted, label, code, out.getvalue(), err.getvalue())

    def expect(self, res: Result, check: Callable, *args):
        """Run check(res, *args); record a failure instead of raising."""
        try:
            return check(res, *args)
        except (Mismatch, ValueError, KeyError, OSError) as exc:
            self.fail(res.index, res.label, f"{type(exc).__name__}: {exc}")
            if res.stderr:
                print(res.stderr, file=sys.stderr)
            return None

    def fail(self, index: int, label: str, reason: str) -> None:
        self.failures.setdefault(index, []).append(f"{label}: {reason}")

    def skip(self, label: str, reason: str) -> None:
        """Count a call that could not be made because an earlier one failed."""
        self.attempted += 1
        self.fail(self.attempted, label, reason)

    # -- the three commands, each with its own answer check --------------

    def certificate(self, res: Result, inst: str, path: Path, algorithm: str) -> frozenset[int]:
        text = path.read_text()
        self.digests[res.label] = hashlib.sha256(text.encode()).hexdigest()
        fields = oracle.read_certificate(text)
        require(fields["algorithm"] == algorithm, f"certificate algorithm {fields['algorithm']}")
        require(fields["instance"] == self.insts[inst].digest(), "certificate digest mismatch")
        qk = frozenset(int(v) for v in fields.get("set", "").split())
        bad = oracle.qk_violation(self.insts[inst], qk)
        require(bad is None, f"certificate set is not a quasi-kernel: {bad}")
        return qk

    def _cert_path(self, command: str, name: str) -> Path:
        return self.work / f"{command}-{name.replace(' ', '-')}.qkcert"

    def solve(
        self,
        inst: str,
        args: list[str],
        algorithm: str,
        size_ok: Callable[[int], bool],
        minimum: bool | None = None,
        name: str | None = None,
    ) -> frozenset[int] | None:
        """solve --out; the report, the certificate and its size must agree."""
        name = name or inst
        path = self._cert_path("solve", name)
        res = self.op("solve", name, [str(self.files[inst]), *args, "--out", str(path)])

        def check(res: Result) -> frozenset[int]:
            require(res.code == 0, f"exit code {res.code}")
            rep = res.report()
            require(rep["algorithm"] == algorithm, f"algorithm {rep['algorithm']}")
            qk = self.certificate(res, inst, path, algorithm)
            require(qk == frozenset(int(v) for v in rep["set"].split()), "report set != certificate")
            require(size_ok(len(qk)), f"size {len(qk)} out of the expected range")
            if minimum is not None:
                require(rep["minimum"] == str(minimum).lower(), f"minimum: {rep['minimum']}")
            return qk

        qk = self.expect(res, check)
        if qk is not None:
            self.record.qk_size_sum += len(qk)
        return qk

    def solve_none(self, name: str, inst: str, args: list[str], k: int) -> None:
        """A solve that must report 'no quasi-kernel of size <= k' and exit 1."""
        res = self.op("solve", name, [str(self.files[inst]), *args])

        def check(res: Result) -> None:
            require(res.code == 1, f"exit code {res.code}")
            require(res.stdout == f"no quasi-kernel of size <= {k}\n", "missing 'no quasi-kernel'")

        self.expect(res, check)

    def verify(self, inst: str, qk: frozenset[int] | None) -> None:
        if qk is None:
            self.skip(f"verify {inst}", "no set from the solve before it")
            return
        path = self._cert_path("verify", inst)
        literal = ",".join(map(str, sorted(qk)))
        res = self.op("verify", inst, [str(self.files[inst]), literal, "--out", str(path)])

        def check(res: Result) -> None:
            require(res.code == 0, f"exit code {res.code}")
            require(self.certificate(res, inst, path, "verify") == qk, "verified set changed")

        self.expect(res, check)

    def bounds(self, inst: str, checks: dict[str, Callable[[int], bool]]) -> None:
        """bounds; the rows must be exactly ``checks``' keys, each within its
        printed bound and accepted by its check."""
        res = self.op("bounds", inst, [str(self.files[inst])])

        def check(res: Result) -> None:
            require(res.code == 0, f"exit code {res.code}")
            rows: dict[str, int] = {}
            for line in res.stdout.splitlines():
                name, bound, achieved, verified = line.split()
                require(verified == "verified=yes", f"{name} row not verified")
                size = int(achieved.removeprefix("achieved="))
                bound = bound.removeprefix("bound=")
                require(bound == "null" or size <= Fraction(bound), f"{name} over its bound")
                rows[name] = size
            require(set(rows) == set(checks), f"rows {sorted(rows)}")
            for name, ok in checks.items():
                require(ok(rows[name]), f"{name} achieved {rows[name]} out of the expected range")

        self.expect(res, check)
