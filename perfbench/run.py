"""Benchmark of the qkdg command line, in-process and single-threaded.

    python3 perfbench/run.py --workload oneway-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/``.
Instance files are generated from the seed into ``.perfbench/`` and removed
at exit; the spans of a traced run are kept there.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
where the metrics are the ``end_to_end`` entries of BENCHMARK.json with
``--trace 0`` and the ``per_layer`` entries with ``--trace 1``.  The lines
before it report each timing's per-pass median, tail percentile and sample
count, and the sha256 of every certificate written.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from harness import reps_for, scaled_call

ROOT = Path(__file__).resolve().parents[1]
# set-up runs before the first pass and again after every pass, so its
# samples spread over the run like the passes do
SETUP_ROUND_SECONDS = 0.2
# shorter calls and set-ups are repeated within one timed sample, so that
# timer and probe noise stay small against the sample
MIN_SAMPLE_SECONDS = 0.1
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
COMMANDS = ("solve", "bounds", "verify")


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered)) - 1
        if len(ordered) - 1 - rank >= 10:
            return f"p{p}={ordered[rank]:.6g}"
    return "no percentile has ten samples above it"


def timed_setup(workload, seed: int, work: Path, times: list[float], reps: int) -> dict[str, Path]:
    """Set up in samples of reps set-ups, for at least SETUP_ROUND_SECONDS of
    wall time, appending each sample's time per set-up at the reference speed."""
    spent = 0.0
    while spent < SETUP_ROUND_SECONDS:
        gc.collect()
        files, seconds, scaled = scaled_call(lambda: workload.setup(seed, work), reps)
        times.append(scaled)
        spent += seconds * reps
    return files


def fits(start: float, seconds: float, rounds: int) -> bool:
    """Whether one more round, as long as the mean round so far, ends within seconds."""
    elapsed = perf_counter() - start
    return rounds == 0 or elapsed + elapsed / rounds <= seconds


def one_pass(runner, workload):
    record = runner.new_pass()
    workload.run_pass(runner)
    return record


def median_sums(passes, times: str = "op_scaled") -> dict[str, float]:
    """Per command and for the whole pass: the sum, over the pass's calls, of
    each call's median time over the passes."""
    medians = {
        label: statistics.median(getattr(p, times)[label] for p in passes
                                 if label in getattr(p, times))
        for label in getattr(passes[0], times)
    }
    sums = {f"{c}_s": sum(t for label, t in medians.items() if label.split()[0] == c)
            for c in COMMANDS}
    sums["pass_s"] = sum(medians.values())
    return sums


def end_to_end(make_runner, workload, seed: int, seconds: float, work: Path):
    setup_times: list[float] = []
    # the first set-ups run cold; the third fixes the repeat count
    for _ in range(3):
        files, last, _ = scaled_call(lambda: workload.setup(seed, work))
    setup_reps = reps_for(last, MIN_SAMPLE_SECONDS)
    timed_setup(workload, seed, work, setup_times, setup_reps)
    r = make_runner(files)
    # memory is measured apart, since tracemalloc slows every allocation;
    # this call also warms the imports and caches the passes use
    r.new_pass()
    r.trace_memory = True
    workload.peak(r)
    r.trace_memory = False
    r.min_sample_s = MIN_SAMPLE_SECONDS
    one_pass(r, workload)  # warm-up that fixes the repeat counts, not counted
    passes = []
    start = perf_counter()
    while fits(start, seconds, len(passes)):
        passes.append(one_pass(r, workload))
        timed_setup(workload, seed, work, setup_times, setup_reps)

    values = median_sums(passes)
    wall = median_sums(passes, "op_seconds")
    values["setup_s"] = statistics.median(setup_times)
    print(f"setup_s: median={values['setup_s']:.6g} {tail(setup_times)} n={len(setup_times)}")
    for name in ("solve_s", "bounds_s", "verify_s", "pass_s"):
        sums = [sum(t for label, t in p.op_scaled.items()
                    if name == "pass_s" or f"{label.split()[0]}_s" == name) for p in passes]
        print(f"{name}: sum of call medians={values[name]:.6g} (wall {wall[name]:.6g});"
              f" per-pass sums median={statistics.median(sums):.6g} {tail(sums)} n={len(sums)}")
    values["peak_mb"] = r.peak_bytes / 2**20
    values["qk_size_sum"] = statistics.median(p.qk_size_sum for p in passes)
    values["ok_ratio"] = (r.attempted - len(r.failures)) / r.attempted
    return r, values


def layer_values(self_s, calls, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    values = {f"{name}.self_s": s for name, s in self_s.items()}
    values.update({f"{name}.calls": c for name, c in calls.items()})
    values.update(counts)
    values["split_qk.peel_sinks.oracle_calls"] = calls["split_qk.peel_sinks.oracle"]
    values["exact.fpt_by_independent.candidates"] = counts[
        "digraph.Digraph.is_quasi_kernel.calls.in.exact.fpt_by_independent"
    ]
    explored = counts["exact.explored"]
    values["exact.hit_ratio"] = counts["exact.hits"] / explored if explored else 0.0
    return values


def per_layer(make_runner, workload, seed: int, seconds: float, work: Path, spans_path: Path):
    from tracer import Tracer, self_times

    tracer = Tracer()
    tracer.install()
    files = workload.setup(seed, work)
    setup_self, _, _ = tracer.take(0)
    tracer.uninstall()

    r = make_runner(files)
    r.on_op = lambda label: setattr(tracer, "op", label)
    plain, traced, layers = [], [], []
    first_pass_span = len(tracer.spans)
    start = perf_counter()
    while fits(start, seconds, len(traced)):
        plain.append(one_pass(r, workload))
        since = len(tracer.spans)
        tracer.install()
        try:
            traced.append(one_pass(r, workload))
        finally:
            tracer.uninstall()
        layers.append(layer_values(*tracer.take(since)))
    tracer.write(spans_path)

    values: dict[str, float] = {}
    for name in {k for row in layers for k in row}:
        values[name] = statistics.median(row.get(name, 0) for row in layers)
    values["instances.generate.self_s"] = setup_self["instances.generate"]
    values["trace.overhead_ratio"] = median_sums(traced)["pass_s"] / median_sums(plain)["pass_s"]
    rungs = [(int(label.removeprefix("solve k")), statistics.median(p.op_scaled[label] for p in plain))
             for label in plain[0].op_seconds if re.fullmatch(r"solve k\d+", label)]
    for k, s in rungs:
        values[f"curve.solve_s.k{k}"] = s
    if len(rungs) >= 2:
        values["curve.scaling_exp"] = _slope([math.log(k) for k, _ in rungs],
                                             [math.log(s) for _, s in rungs])
    # where each command's time goes: labels start with the command
    by_command = self_times(tracer.spans[first_pass_span:], lambda s: (s[3].split()[0], s[2]))
    for command in sorted({c for c, _ in by_command}):
        layer_s = {name: t for (c, name), t in by_command.items() if c == command}
        total = sum(layer_s.values())
        top = sorted(layer_s.items(), key=lambda kv: -kv[1])[:5]
        print(f"{command} self time: " + ", ".join(f"{n} {t / total:.1%}" for n, t in top))
    for op, explored in sorted(layers[0].items()):
        if op.startswith("exact.explored.op."):
            print(f"explored {op.removeprefix('exact.explored.op.')}: {explored}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; spans in {spans_path}")
    return r, values


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "quasikernel" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/quasikernel package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import quasikernel.cli as cli
    from harness import Runner
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # cli.main is looked up per call, so the tracer's wrapper is the one called
    make_runner = lambda files: Runner(lambda argv: cli.main(argv), work, files)
    try:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            r, values = per_layer(make_runner, workload, args.seed, args.seconds, work, spans)
            declared = spec["per_layer"]
        else:
            r, values = end_to_end(make_runner, workload, args.seed, args.seconds, work)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work)

    for label, digest in sorted(r.digests.items()):
        print(f"certificate {label}: sha256:{digest}")
    for reasons in r.failures.values():
        for reason in reasons:
            print(f"FAILED {reason}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": not r.failures,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
