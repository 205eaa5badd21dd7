"""Layer tracing from outside the package.

A Tracer replaces the public functions of cli, sieve, bulk, density and arith
with wrappers, at the attribute each caller looks up (sieve and density reach
bulk through the module, so `bulk.powmod_vector` covers both; sieve imported
`jacobi` and density imported `factor` by name, so those are wrapped where
they were imported).  Wrappers record spans (name, start, end, parent) in
memory; the hottest scalar leaves only count calls, because a span per call
would cost more than the call.  Every wrapped attribute is restored when the
`installed()` block exits.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter

from pseudoprimes import bulk, cli, density, sieve

SPAN, GENERATOR, COUNT = "span", "generator", "count"


def _powmod_counts(tracer, result):
    tracer.counts["bulk.powmod_vector.elems"] += result.size
    if tracer.current_name() == "sieve.iter_psp_values":
        tracer.counts["sieve.scan.elems"] += result.size


def _class_conditions_counts(tracer, result):
    if result.cond_jacobi is sieve.JacobiCondition.UNKNOWN:
        tracer.counts["sieve.class_conditions.unknown"] += 1


def _ingest_counts(tracer, result):
    tracer.counts["sieve.ingest_psp_list.lines"] += sum(result.counts.values())


def _hit_counts(tracer, item):
    tracer.counts["sieve.iter_psp_values.hits"] += item.size


# (owner, attribute, layer name, kind, count hook)
LAYERS = (
    (cli, "run", "cli.run", SPAN, None),
    (sieve, "count_psp_table", "sieve.count_psp_table", SPAN, None),
    (sieve, "count_psp_in_classes", "sieve.count_psp_in_classes", SPAN, None),
    (sieve, "psp_values", "sieve.psp_values", SPAN, None),
    (sieve, "iter_psp_values", "sieve.iter_psp_values", GENERATOR, _hit_counts),
    (sieve, "enumerate_even_psp", "sieve.enumerate_even_psp", SPAN, None),
    (sieve, "scan_empty_classes", "sieve.scan_empty_classes", SPAN, None),
    (sieve, "class_conditions", "sieve.class_conditions", SPAN, _class_conditions_counts),
    (sieve, "ingest_psp_list", "sieve.ingest_psp_list", SPAN, _ingest_counts),
    (sieve, "emit_table", "sieve.emit_table", SPAN, None),
    (sieve.ResidueClass, "intersect", "sieve.ResidueClass.intersect", COUNT, None),
    (sieve, "jacobi", "arith.jacobi", COUNT, None),
    (bulk, "powmod_vector", "bulk.powmod_vector", SPAN, _powmod_counts),
    (bulk, "composite_flags", "bulk.composite_flags", SPAN, None),
    (bulk, "primes_upto", "bulk.primes_upto", SPAN, None),
    (bulk, "spf_window", "bulk.spf_window", SPAN, None),
    (bulk, "phi_lambda_arrays", "bulk.phi_lambda_arrays", SPAN, None),
    (bulk, "coprime_part_array", "bulk.coprime_part_array", SPAN, None),
    (bulk, "tau_array", "bulk.tau_array", SPAN, None),
    (density, "count_S", "density.count_S", SPAN, None),
    (density, "tail_bound", "density.tail_bound", SPAN, None),
    (density, "c1_partial", "density.c1_partial", SPAN, None),
    (density, "sb_density", "density.sb_density", SPAN, None),
    (density, "unit_order_counts", "density.unit_order_counts", SPAN, None),
    (density, "union_density", "density.union_density", SPAN, None),
    (density, "sb_class_system", "density.sb_class_system", SPAN, None),
    (density, "factor", "arith.factor", SPAN, None),
)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, kind, hook):
        tracer = self
        if kind == COUNT:
            key = name + ".calls"

            def counted(*args, **kwargs):
                tracer.counts[key] += 1
                return fn(*args, **kwargs)

            return counted
        if kind == GENERATOR:

            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    hook(tracer, item)
                    yield item

            return generator

        def spanned(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer, result)
            return result

        return spanned

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer attribute for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, kind, hook in LAYERS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, kind, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, out, pass_index: int) -> None:
        """Write every recorded span to the text stream `out`, one JSON line
        each; `parent` indexes the spans of the same pass, -1 for a root."""
        for name, start, end, parent in self.spans:
            record = {
                "pass": pass_index, "name": name, "start": start, "end": end, "parent": parent
            }
            out.write(json.dumps(record) + "\n")


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass that took `wall` seconds.

    For every layer: calls and, for spanned layers, inclusive seconds (.s) and
    self seconds (.self_s: span time minus the time its child spans cover).
    Then the counters, the derived rates, and trace.residual_s, the part of
    `wall` that no span covers.
    """
    child = defaultdict(float)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for _, _, name, kind, _ in LAYERS:
        out[name + ".calls"] = 0
        if kind != COUNT:
            out[name + ".s"] = 0.0
            out[name + ".self_s"] = 0.0
    roots = 0.0
    for index, (name, start, end, parent) in enumerate(tracer.spans):
        out[name + ".calls"] += 1
        out[name + ".s"] += end - start
        out[name + ".self_s"] += end - start - child[index]
        if parent < 0:
            roots += end - start
    for key in (
        "bulk.powmod_vector.elems",
        "sieve.scan.elems",
        "sieve.iter_psp_values.hits",
        "sieve.class_conditions.unknown",
        "sieve.ingest_psp_list.lines",
    ):
        out[key] = 0
    out.update(tracer.counts)
    out["cli.overhead_s"] = out["cli.run.self_s"]
    out["bulk.powmod_vector.elems_per_s"] = _ratio(
        out["bulk.powmod_vector.elems"], out["bulk.powmod_vector.s"]
    )
    out["bulk.powmod_vector.elems_per_call"] = _ratio(
        out["bulk.powmod_vector.elems"], out["bulk.powmod_vector.calls"]
    )
    out["sieve.scan.hit_ratio"] = _ratio(
        out["sieve.iter_psp_values.hits"], out["sieve.scan.elems"]
    )
    out["sieve.ingest_psp_list.lines_per_s"] = _ratio(
        out["sieve.ingest_psp_list.lines"], out["sieve.ingest_psp_list.s"]
    )
    out["trace.residual_s"] = wall - roots
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
