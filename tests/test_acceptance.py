"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is exact (integer or rational arithmetic); the stated
runtime limits are asserted with the clock.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from quasikernel import (
    Digraph,
    check_certificate,
    complete_split_min_qk,
    fpt_by_clique,
    fpt_by_independent,
    gen_dn,
    gen_dpn,
    gen_random_complete_split,
    gen_random_split,
    has_qk_of_size_at_most,
    min_dominating_set,
    min_quasi_kernel,
    one_way_qk,
    parse_instance,
    peel_split,
    quasi_kernel_rooted,
    reduce_dds_to_qk,
    serialize_instance,
    two_thirds_qk,
)
from quasikernel.cli import main


def _report(num: int, ok: bool, detail: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {num:02d} {status} — {detail} [{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, detail
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.2f}s)"


def one_way_bound_holds(n: int, size: int) -> bool:
    t = n + 3 - 2 * size
    return t >= 0 and t * t >= 4 * n


def test_criterion_01_extremal_family_minimums():
    t0 = time.perf_counter()
    sizes = {n: min_quasi_kernel(gen_dn(n)).certificate.size for n in (1, 2)}
    ok = sizes == {1: 2, 2: 5}
    _report(1, ok, f"one-way family minimums n^2+1: {sizes}", t0, 5.0)


def test_criterion_02_strong_family_bracket():
    t0 = time.perf_counter()
    s1 = min_quasi_kernel(gen_dpn(1)).certificate.size
    s2 = min_quasi_kernel(gen_dpn(2)).certificate.size
    ok = s1 == 2 and 3 <= s2 <= 5
    _report(2, ok, f"strong family minimums: n=1 -> {s1} (exact 2), n=2 -> {s2} in [3,5]", t0, 5.0)


def _two_thirds_corpus(seed: int):
    rng = random.Random(seed * 7919 + 1)
    nk = rng.randint(1, 12)
    ni = rng.randint(0, 28)
    if nk == 1 and ni == 0:
        nk = 2
    return gen_random_split(
        seed,
        nk,
        ni,
        p_k_to_i=rng.uniform(0.05, 0.5),
        p_i_to_k=rng.uniform(0.05, 0.5),
        p_digon_k=rng.uniform(0.0, 0.4),
        sink_free=True,
    )


def test_criterion_03_two_thirds_bound_campaign():
    t0 = time.perf_counter()
    violations = 0
    for seed in range(1000):
        sd = _two_thirds_corpus(seed)
        cert = two_thirds_qk(sd)
        cert.check(sd.graph)
        if 3 * cert.size > 2 * sd.graph.n:
            violations += 1
    _report(3, violations == 0, f"1000 sink-free split runs, {violations} bound violations", t0, 60.0)


def test_criterion_04_one_way_bound_campaign():
    t0 = time.perf_counter()
    violations = 0
    for seed in range(1000):
        rng = random.Random(seed * 104729 + 3)
        sd = gen_random_split(
            seed,
            rng.randint(2, 12),
            rng.randint(1, 28),
            p_i_to_k=rng.uniform(0.05, 0.5),
            p_digon_k=rng.uniform(0.0, 0.4),
            one_way=True,
            sink_free=True,
        )
        cert = one_way_qk(sd)
        cert.check(sd.graph)
        n = sd.graph.n
        if not one_way_bound_holds(n, cert.size) or (n >= 3 and cert.size > n // 2):
            violations += 1
    _report(4, violations == 0, f"1000 one-way runs, {violations} bound violations", t0, 60.0)


def test_criterion_05_complete_split_minimums():
    t0 = time.perf_counter()
    oversize = 0
    for seed in range(500):
        rng = random.Random(seed * 15485863 + 5)
        sd = gen_random_complete_split(
            seed, rng.randint(2, 15), rng.randint(1, 25), p_digon=rng.uniform(0.05, 0.4), sink_free=True
        )
        cert = complete_split_min_qk(sd)
        cert.check(sd.graph)
        if cert.size > 2:
            oversize += 1
    mismatches = 0
    compared = 0
    for seed in range(120):
        rng = random.Random(seed * 65537 + 9)
        sd = gen_random_complete_split(
            seed,
            rng.randint(1, 6),
            rng.randint(1, 12),
            p_digon=rng.uniform(0.05, 0.4),
            sink_free=seed % 2 == 0,
        )
        compared += 1
        if complete_split_min_qk(sd).size != min_quasi_kernel(sd).certificate.size:
            mismatches += 1
    ok = oversize == 0 and mismatches == 0 and compared >= 100
    _report(
        5,
        ok,
        f"500 sink-free runs ({oversize} over size 2); {compared} exact comparisons, {mismatches} mismatches",
        t0,
        120.0,
    )


def test_criterion_06_reduction_equivalence():
    t0 = time.perf_counter()
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    bad_equiv = 0
    bad_counts = 0
    for bits in range(64):
        d = Digraph(3, [pairs[i] for i in range(6) if bits >> i & 1])
        for q in (1, 2):
            art = reduce_dds_to_qk(d, q)
            n, m, b = d.n, len(d.arcs), 2 * q + 3
            if art.host.graph.n != n + m + 2 * b + 1:
                bad_counts += 1
            if len(art.host.graph.arcs) != math.comb(m + b, 2) + 3 * m + 2 * b:
                bad_counts += 1
            has_dom = min_dominating_set(d, budget=q) is not None
            has_qk = has_qk_of_size_at_most(art.host, q + 1)
            if has_dom != has_qk:
                bad_equiv += 1
    ok = bad_equiv == 0 and bad_counts == 0
    _report(6, ok, f"64 sources x q in (1,2): {bad_equiv} equivalence / {bad_counts} count failures", t0, 600.0)


def test_criterion_07_fpt_agreement():
    t0 = time.perf_counter()
    disagreements = 0
    unverified = 0
    for seed in range(200):
        rng = random.Random(seed * 31337 + 11)
        nk = rng.randint(1, 5)
        sd = gen_random_split(
            seed,
            nk,
            rng.randint(1, 10),
            p_k_to_i=rng.uniform(0.0, 0.5),
            p_i_to_k=rng.uniform(0.0, 0.6),
            p_digon_k=rng.uniform(0.0, 0.4),
            sink_free=bool(seed % 2) and nk >= 2,
        )
        for k in range(7):
            by_k = fpt_by_clique(sd, k)
            by_i = fpt_by_independent(sd, k)
            oracle = has_qk_of_size_at_most(sd, k)
            if (by_k is not None) != oracle or (by_i is not None) != oracle:
                disagreements += 1
            for cert in (by_k, by_i):
                if cert is not None:
                    cert.check(sd.graph)
                    unverified += cert.size > k
    ok = disagreements == 0 and unverified == 0
    _report(7, ok, f"200 instances x k<=6: {disagreements} verdict / {unverified} certificate failures", t0, 120.0)


def test_criterion_08_peeling_bound():
    t0 = time.perf_counter()
    kept = 0
    seed = 0
    violations = 0
    while kept < 300:
        rng = random.Random(seed * 7 + 77)
        sd = gen_random_split(
            seed,
            rng.randint(1, 12),
            rng.randint(1, 28),
            p_k_to_i=rng.uniform(0.0, 0.4),
            p_i_to_k=rng.uniform(0.0, 0.4),
            p_digon_k=rng.uniform(0.0, 0.3),
            sink_free=False,
        )
        seed += 1
        sinks = sd.graph.sinks()
        if not sinks:
            continue
        kept += 1
        cert = peel_split(sd)
        cert.check(sd.graph)
        bound = Fraction(2, 3) * (
            sd.graph.n + sinks.bit_count() - sd.graph.in_set_mask(sinks).bit_count()
        )
        if cert.size > bound:
            violations += 1
    _report(8, violations == 0, f"300 sink-containing runs, {violations} bound violations", t0, 60.0)


def test_criterion_09_rooted_campaign():
    t0 = time.perf_counter()
    violations = 0
    for seed in range(500):
        rng = random.Random(seed * 13 + 5)
        n = rng.randint(1, 30)
        p = rng.uniform(0.05, 0.4)
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p]
        d = Digraph(n, arcs)
        r = rng.randrange(n)
        q = quasi_kernel_rooted(d, r)
        if not d.is_quasi_kernel(q) or (r not in q and not d.out_masks[r] & d.mask_of(q)):
            violations += 1
    _report(9, violations == 0, f"500 rooted runs, {violations} property violations", t0, 30.0)


def test_criterion_10_cli_round_trips(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    notes = []

    generated = [
        ["gen", "dn", "--n", "1"],
        ["gen", "dn", "--n", "2"],
        ["gen", "dpn", "--n", "1"],
        ["gen", "random-split", "--seed", "5", "--nk", "4", "--ni", "8", "--sink-free"],
        ["gen", "random-split", "--seed", "6", "--nk", "3", "--ni", "6", "--one-way", "--sink-free"],
        ["gen", "random-complete-split", "--seed", "7", "--nk", "3", "--ni", "5", "--sink-free"],
    ]
    for i, argv in enumerate(generated):
        out_path = tmp_path / f"inst{i}.qkdg"
        if main(argv + ["--out", str(out_path)]) != 0:
            ok = False
            notes.append(f"gen failed: {argv}")
            continue
        text = out_path.read_text()
        inst = parse_instance(text)
        if serialize_instance(inst) != "".join(
            line + "\n" for line in text.splitlines() if not line.startswith("#")
        ):
            ok = False
            notes.append(f"round-trip not identical: {argv}")
        cert_path = tmp_path / f"inst{i}.qkcert"
        if main(["solve", str(out_path), "--out", str(cert_path)]) != 0:
            ok = False
            notes.append(f"solve failed: {argv}")
            continue
        try:
            check_certificate(cert_path.read_text(), inst)
        except Exception as exc:  # noqa: BLE001 - acceptance tallies any failure
            ok = False
            notes.append(f"certificate re-verification failed: {exc}")

    malformed = [
        "qkdg 2\nn 1\n",
        "n 1\n",
        "qkdg 1\nn 2\na 0 0\n",
        "qkdg 1\nn 2\na 0 1\na 0 1\n",
        "qkdg 1\nn 2\nk 0 1\n",
        "qkdg 1\nn 2\na 0 5\n",
    ]
    for i, text in enumerate(malformed):
        path = tmp_path / f"bad{i}.qkdg"
        path.write_text(text)
        if main(["solve", str(path)]) != 2:
            ok = False
            notes.append(f"malformed case {i} did not exit 2")

    dn1 = tmp_path / "dn1.qkdg"
    main(["gen", "dn", "--n", "1", "--out", str(dn1)])
    if main(["verify", str(dn1), "0,4"]) != 0:
        ok = False
        notes.append("verify 0,4 should exit 0")
    if main(["verify", str(dn1), "0"]) != 1:
        ok = False
        notes.append("verify 0 should exit 1")
    if main(["solve", str(dn1), "--algo", "fpt-k", "--k", "1"]) != 1:
        ok = False
        notes.append("fpt-k k=1 should exit 1")
    capsys.readouterr()
    _report(10, ok, "CLI round-trips, certificates, exit codes" + ("; ".join([""] + notes)), t0, 10.0)
