"""Command-line front end: generate, solve, verify, reduce, bounds, dot.

Exit codes: 0 success, 1 semantic failure (not a quasi-kernel, no solution
within the requested size, precondition, cap or MAX_SEARCH_STEPS refusal),
2 input error (unreadable, unparsable or oversized file, bad parameters).
``files._read_instance`` reads instance files and numbers their errors' lines.
"""
from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from collections import Counter

from .construct import quasi_kernel_cl
from .digraph import (
    LABELS,
    Digraph,
    NotQuasiKernelError,
    PreconditionError,
    QkCertificate,
    SplitDigraph,
    VerificationError,
)
from .exact import fpt_by_clique, fpt_by_independent, min_quasi_kernel
from .files import (
    InstanceParseError,
    _read_instance,
    certificate_document,
    format_bound,
    serialize_instance,
    to_dot,
)
from .instances import (
    GenerationError,
    family_labels,
    gen_dn,
    gen_dpn,
    gen_random_complete_split,
    gen_random_split,
    reduce_dds_to_qk,
)
from .split_qk import complete_split_min_qk, one_way_qk, peel_split, two_thirds_qk

# the rows of bounds depend on n alone, never on how far a search gets
EXACT_BOUNDS_LIMIT = 18
# the algorithms that take a size budget --k
BUDGETED = ("exact", "fpt-k", "fpt-i")
# the algorithms whose certificates are minima: a split digraph's quasi-kernels
# are independent, so each lies in an fpt-i group, all refused every smaller size
MINIMA = ("exact", "complete-split", "fpt-i")


def _write(path: str, text: str) -> None:
    """Write text to path as UTF-8 over the old bytes, then cut a regular
    file at the new end. Without O_TRUNC, ext4 (auto_da_alloc) starts no
    writeback on close, which costs this write and holds up the next
    overwrite; a device, FIFO or tty is written but not cut, as O_TRUNC leaves it
    too. A failed or killed write leaves new bytes before old ones (README,
    "Output files")."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _print_certificate_report(cert: QkCertificate) -> None:
    print(f"algorithm: {cert.algorithm}")
    print(f"size: {cert.size}")
    print("set: " + " ".join(str(v) for v in cert.sorted_vertices()))
    print(f"bound: {format_bound(cert.bound)}")
    print(f"minimum: {'true' if cert.algorithm in MINIMA else 'false'}")
    print("verified: true")


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        comments: list[str] = []
        if args.family in ("dn", "dpn"):
            sd = (gen_dn if args.family == "dn" else gen_dpn)(args.n)
            comments = [f"label {name} {idx}" for idx, name in enumerate(family_labels(args.n))]
        elif args.family == "random-split":
            sd = gen_random_split(
                args.seed, args.nk, args.ni, p_k_to_i=args.p_ki, p_i_to_k=args.p_ik,
                p_digon_k=args.p_digon, one_way=args.one_way, sink_free=args.sink_free,
            )
        else:
            sd = gen_random_complete_split(
                args.seed, args.nk, args.ni, p_digon=args.p_digon, sink_free=args.sink_free
            )
    except (ValueError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(serialize_instance(sd, comments=comments), args.out)
    return 0


def _split_constructions(inst: Digraph | SplitDigraph) -> list[str]:
    """The split-digraph constructions whose preconditions inst meets,
    strongest first, as bounds prints them; none for a plain Digraph."""
    if not isinstance(inst, SplitDigraph):
        return []
    flags = inst.classify()
    algos = ["complete-split"] if flags.complete_split else []
    if flags.one_way and flags.sink_free:
        algos.append("one-way")
    algos.append("two-thirds" if flags.sink_free else "peel")
    return algos


def _solve_with(inst: Digraph | SplitDigraph, algo: str, k: int | None) -> QkCertificate | None:
    """Run one algorithm; its certificate, or None when none fits the budget."""
    graph = inst.graph if isinstance(inst, SplitDigraph) else inst
    if algo == "cl":
        return graph.certify(quasi_kernel_cl(graph), "cl")
    if algo == "exact":
        return min_quasi_kernel(inst, budget=k).certificate
    if not isinstance(inst, SplitDigraph):
        raise PreconditionError(f"algorithm '{algo}' needs a split partition (k line)")
    if algo == "one-way":
        return one_way_qk(inst)
    if algo == "two-thirds":
        return two_thirds_qk(inst)
    if algo == "peel":
        return peel_split(inst)
    if algo == "complete-split":
        return complete_split_min_qk(inst)
    if k is None:
        raise PreconditionError("--k is required for fpt algorithms")
    if algo == "fpt-k":
        return fpt_by_clique(inst, k)
    return fpt_by_independent(inst, k)


def cmd_solve(args: argparse.Namespace) -> int:
    if args.k is not None and args.k < 0:
        print("error: --k must be a non-negative integer", file=sys.stderr)
        return 2
    if args.k is not None and args.algo not in BUDGETED:
        print(f"error: --k applies only to --algo {', '.join(BUDGETED)}", file=sys.stderr)
        return 2
    # only a certificate to write needs the digest
    if args.out:
        inst, digest = _read_instance(args.instance, digest=True)
    else:
        inst, digest = _read_instance(args.instance), None
    algo = args.algo
    if algo == "auto":
        algo = (_split_constructions(inst) or ["cl"])[0]
    cert = _solve_with(inst, algo, args.k)
    if cert is None:
        print(f"no quasi-kernel of size <= {args.k}")
        return 1
    # the document is checked as it is built; the report follows the write,
    # so a failed write prints no report
    if args.out:
        _write(args.out, certificate_document(cert, inst, digest))
    else:
        cert.check(inst.graph if isinstance(inst, SplitDigraph) else inst)
    _print_certificate_report(cert)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    literal = args.set.strip()
    try:
        vertices = [int(f) for f in literal.split(",")] if literal else []
    except ValueError:
        print(f"error: set literal must be comma-separated integers: '{args.set}'", file=sys.stderr)
        return 2
    repeated = [v for v, count in Counter(vertices).items() if count > 1]
    if repeated:
        print(f"error: set literal repeats vertex {repeated[0]}: '{args.set}'", file=sys.stderr)
        return 2
    inst, digest = _read_instance(args.instance, digest=True)
    graph = inst.graph if isinstance(inst, SplitDigraph) else inst
    try:
        cert = graph.certify(vertices, "verify")
    except ValueError as exc:
        if isinstance(exc, NotQuasiKernelError):
            print(f"not a quasi-kernel: first offending vertex {exc.vertex}")
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(certificate_document(cert, inst, digest), args.out)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    if args.q < 1:
        print("error: --q must be a positive integer", file=sys.stderr)
        return 2
    inst = _read_instance(args.instance)
    graph = inst.graph if isinstance(inst, SplitDigraph) else inst
    art = reduce_dds_to_qk(graph, args.q)
    comments = [f"reduction q={art.q} b={art.b} source_n={art.source_n} source_m={art.source_m}"]
    comments += [f"label {name} {idx}" for idx, name in enumerate(art.names)]
    _emit(serialize_instance(art.host, comments=comments), args.out)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    graph = inst.graph if isinstance(inst, SplitDigraph) else inst
    algos = ["cl", *_split_constructions(inst)]
    if graph.n <= EXACT_BOUNDS_LIMIT:
        algos.append("exact")
    rows = [(algo, _solve_with(inst, algo, None)) for algo in algos]
    for name, cert in rows:
        cert.check(graph)
        print(f"{name} bound={format_bound(cert.bound)} achieved={cert.size} verified=yes")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    _emit(to_dot(inst), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="qkdg", description="Small quasi-kernels in (split) digraphs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.set_defaults(func=cmd_gen)
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for fam in ("dn", "dpn"):
        gen_sub.add_parser(fam).add_argument("--n", type=int, required=True)
    # the options both random models take
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--seed", type=int, required=True)
    model.add_argument("--nk", type=int, required=True)
    model.add_argument("--ni", type=int, required=True)
    model.add_argument("--p-digon", type=float, default=0.15)
    model.add_argument("--sink-free", action="store_true")
    p = gen_sub.add_parser("random-split", parents=[model])
    p.add_argument("--p-ki", type=float, default=0.25)
    p.add_argument("--p-ik", type=float, default=0.25)
    p.add_argument("--one-way", action="store_true")
    gen_sub.add_parser("random-complete-split", parents=[model])

    solve = sub.add_parser("solve", help="run a quasi-kernel algorithm")
    solve.add_argument("instance")
    solve.add_argument(
        "--algo",
        choices=["auto", *(label for label in LABELS if label != "verify")],
        default="auto",
    )
    solve.add_argument(
        "--k", type=int, default=None, help=f"size budget, for --algo {', '.join(BUDGETED)} only"
    )
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="verify a vertex set against an instance")
    verify.add_argument("instance")
    verify.add_argument("set", help="comma-separated vertex indices, e.g. '0,4'")
    verify.set_defaults(func=cmd_verify)

    reduce_p = sub.add_parser("reduce", help="emit the dominating-set gadget for an instance")
    reduce_p.add_argument("instance")
    reduce_p.add_argument("--q", type=int, required=True)
    reduce_p.set_defaults(func=cmd_reduce)

    bounds = sub.add_parser("bounds", help="tabulate applicable bounds vs achieved sizes")
    bounds.add_argument("instance")
    bounds.set_defaults(func=cmd_bounds)

    dot = sub.add_parser("dot", help="export an instance in DOT format")
    dot.add_argument("instance")
    dot.set_defaults(func=cmd_dot)

    # every command that writes a file takes --out, after its other options
    for p in [*gen_sub.choices.values(), solve, verify, reduce_p, dot]:
        p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, InstanceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
