"""Outside-in tracer for the package's layers.

``install`` replaces each traced function at every module attribute and
function default of the package that refers to it, and each traced method
on its class, with a wrapper that records a span; ``uninstall`` puts the
originals back, so untraced passes run the package unchanged.  Spans stay in
memory as (id, parent id, name, call label, start, end) and are written out
when the run ends.  Counts come from arguments and return values, and the
complete-split pair-scan fallback from a handler on the split_qk logger.
"""
from __future__ import annotations

import importlib
import json
import logging
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (module, attribute) -> span name; a span's self time excludes its children
FUNCTIONS = {
    ("cli", "main"): "cli.main",
    ("files", "parse_instance"): "files.parse_instance",
    ("files", "certificate_document"): "files.certificate_document",
    ("files", "serialize_certificate"): "files.serialize_certificate",
    ("construct", "quasi_kernel_cl"): "construct.quasi_kernel_cl",
    ("construct", "dominate_two_serf"): "construct.dominate_two_serf",
    ("split_qk", "one_way_qk"): "split_qk.one_way_qk",
    ("split_qk", "two_thirds_qk"): "split_qk.two_thirds_qk",
    ("split_qk", "peel_sinks"): "split_qk.peel_sinks",
    ("split_qk", "complete_split_min_qk"): "split_qk.complete_split_min_qk",
    ("exact", "min_quasi_kernel"): "exact.min_quasi_kernel",
    ("exact", "fpt_by_clique"): "exact.fpt_by_clique",
    ("exact", "fpt_by_independent"): "exact.fpt_by_independent",
    ("instances", "gen_dn"): "instances.generate",
    ("instances", "gen_dpn"): "instances.generate",
    ("instances", "gen_random_split"): "instances.generate",
    ("instances", "gen_random_complete_split"): "instances.generate",
    ("instances", "reduce_dds_to_qk"): "instances.reduce_dds_to_qk",
}
# (module, class, method) -> span name
METHODS = {
    ("digraph", "Digraph", "__init__"): "digraph.Digraph.init",
    ("digraph", "Digraph", "induced"): "digraph.Digraph.induced",
    ("digraph", "Digraph", "semicomplete_violation"): "digraph.Digraph.semicomplete_violation",
    ("digraph", "Digraph", "certify"): "digraph.Digraph.certify",
    ("digraph", "SplitDigraph", "__init__"): "digraph.SplitDigraph.init",
    ("digraph", "SplitDigraph", "classify"): "digraph.SplitDigraph.classify",
    ("digraph", "QkCertificate", "check"): "digraph.QkCertificate.check",
}
# called up to a few hundred thousand times per pass, so counted, not spanned
COUNTED = {("digraph", "Digraph", "is_quasi_kernel"): "digraph.Digraph.is_quasi_kernel"}

MODULES = ("cli", "construct", "digraph", "exact", "files", "instances", "split_qk")


class _WarningCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        self.counts["split_qk.pair_scan_fallbacks"] += 1


class Tracer:
    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._undo: list[Callable[[], None]] = []
        self._logger = logging.getLogger("quasikernel.split_qk")
        self._handler = _WarningCounter(self.counts)

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                args = before(self, args)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, self.op, start, end))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.counts[f"{name}.calls"] += 1
            if self._stack:
                self.counts[f"{name}.calls.in.{self._stack[-1][1]}"] += 1
            return fn(*args, **kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"quasikernel.{m}") for m in MODULES]
        modules.append(importlib.import_module("quasikernel"))
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(importlib.import_module(f"quasikernel.{mod}"), attr)
            self._rebind(modules, original, self.span(name, original))
        for table, wrap in ((METHODS, self.span), (COUNTED, self.counted)):
            for (mod, cls_name, attr), name in table.items():
                cls = getattr(importlib.import_module(f"quasikernel.{mod}"), cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, wrap(name, original))
                self._undo.append(lambda cls=cls, attr=attr, original=original: setattr(cls, attr, original))
        self._logger.addHandler(self._handler)
        self._undo.append(lambda: self._logger.removeHandler(self._handler))

    def _rebind(self, modules: list, original: Callable, wrapper: Callable) -> None:
        """Point every module attribute and function default at wrapper."""
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(lambda m=module, k=key: setattr(m, k, original))
                defaults = getattr(value, "__defaults__", None)
                if defaults and any(d is original for d in defaults):
                    value.__defaults__ = tuple(wrapper if d is original else d for d in defaults)
                    self._undo.append(lambda f=value, d=defaults: setattr(f, "__defaults__", d))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------

    def take(self, since: int) -> tuple[Counter, Counter, Counter]:
        """Self time and call count per span name over spans[since:], and the
        counts gathered since the last take (which are then cleared)."""
        spans = self.spans[since:]
        counts = Counter(self.counts)
        self.counts.clear()
        return self_times(spans, lambda span: span[2]), Counter(s[2] for s in spans), counts

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, name, op, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "op": op,
                    "start": start - self.origin, "end": end - self.origin,
                }) + "\n")


def self_times(spans: list, key: Callable[[tuple], Any]) -> Counter:
    """Sum of span duration minus the time its child spans cover, per key(span)."""
    covered: defaultdict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        covered[parent] += end - start
    totals: Counter = Counter()
    for span in spans:
        sid, _, _, _, start, end = span
        totals[key(span)] += end - start - covered[sid]
    return totals


def _trace_oracle(tracer: Tracer, args: tuple) -> tuple:
    # peel_sinks(d, oracle, alpha): each oracle call becomes a child span
    return (args[0], tracer.span("split_qk.peel_sinks.oracle", args[1]), *args[2:])


def _bytes_in(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["files.parse_instance.bytes"] += len(args[0].encode())


def _bytes_out(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["files.serialize_certificate.bytes"] += len(result.encode())


def _explored(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["exact.explored"] += result.explored
    tracer.counts["exact.hits"] += result.certificate is not None
    tracer.counts[f"exact.explored.op.{tracer.op}"] += result.explored


_BEFORE = {"split_qk.peel_sinks": _trace_oracle}
_AFTER = {
    "files.parse_instance": _bytes_in,
    "files.serialize_certificate": _bytes_out,
    "exact.min_quasi_kernel": _explored,
}
