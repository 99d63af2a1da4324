"""Spans and counters recorded from the benchmark's side of each layer boundary.

`Tracer` wraps the public functions of every lerchsum module for the length
of a `with` block.  Each wrapped name is replaced in every lerchsum module
that bound it (`identities`, `oracle`, `cli`, `verifier` and `functions`
itself import by name), so no call slips past the wrapper.  Spans (name,
start, end, parent) and counters stay in memory; `metrics()` derives self
times from them after the block ends.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

from evalmix import PHI_BANDS

# public functions traced as spans, per module that defines them
SPAN_FUNCTIONS = {
    "functions": ("lerch_phi", "lerch_phi_integral", "hurwitz_zeta", "polylog",
                  "log_gamma", "digamma", "stieltjes_gamma1"),
    "identities": ("evaluate_side", "nielsen_partial_product"),
    "verifier": ("verify_identity", "sample_points"),
    "report": ("write_report",),
    "cli": ("main",),
}
# numerics primitives are only counted: they run about a million times a suite
COUNTED_FUNCTIONS = ("principal_log", "principal_pow")
FUNCTION_METRICS = ("hurwitz_zeta", "stieltjes_gamma1", "log_gamma", "digamma",
                    "lerch_phi_integral")
SIDE = "identities.side"


def phi_band(z: complex) -> str:
    """The |z| band of a Phi call; |z| >= 0.999 counts as rim."""
    az = abs(complex(z))
    return next((name for name, _, hi in PHI_BANDS if az < hi), PHI_BANDS[-1][0])


class Tracer:
    """Context manager that traces the lerchsum package `lib` while active."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []  # [name, start, end, parent, adds, label, cpu]
        self.stack = []
        self.counts = Counter()
        self.add_s = 0.0
        self._patched = []
        self._side_ids = {}
        for spec in lib.list_identities():
            self._side_ids[id(spec.lhs)] = spec.id
            self._side_ids[id(spec.rhs)] = spec.id

    # -- wrapping -----------------------------------------------------------

    def _modules(self):
        lib = self.lib
        return (lib, lib.numerics, lib.functions, lib.identities, lib.oracle,
                lib.verifier, lib.report, lib.cli)

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, original))

    def _label(self, name: str, args) -> str:
        if name == "lerch_phi":
            return phi_band(args[0].z)
        if name == "evaluate_side":
            return self._side_ids.get(id(args[1]), "other")
        if name == "nielsen_partial_product":
            return "ID-12"  # the verifier's trend gate is ID-12's only side
        return ""

    def _span(self, layer: str, name: str, fn):
        spans, stack, label = self.spans, self.stack, self._label
        clock, cpu_clock = time.perf_counter, time.process_time
        full = SIDE if layer == "identities" else f"{layer}.{name}"
        with_cpu = name == "verify_identity"

        def wrapper(*args, **kwargs):
            record = [full, 0.0, 0.0, stack[-1] if stack else -1, 0,
                      label(name, args), cpu_clock() if with_cpu else 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                if with_cpu:
                    record[6] = cpu_clock() - record[6]
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _meter_add(self, original):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def add(meter, term):
            start = clock()
            try:
                return original(meter, term)
            finally:
                tracer.add_s += clock() - start
                tracer.counts["meter_add"] += 1
                if stack:
                    spans[stack[-1]][4] += 1

        return add

    def __enter__(self):
        lib = self.lib
        for layer, names in SPAN_FUNCTIONS.items():
            module = getattr(lib, layer)
            for name in names:
                original = getattr(module, name)
                self._replace_everywhere(original, self._span(layer, name, original))
        for name in COUNTED_FUNCTIONS:
            original = getattr(lib.numerics, name)
            self._replace_everywhere(original, self._counted(name, original))
        meter = lib.numerics.CancellationMeter
        original_add = meter.add
        meter.add = self._meter_add(original_add)
        self._patched.append((meter, "add", original_add))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        return False

    # -- derived metrics ----------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; see DESIGN.md."""
        spans, own = self.spans, self.self_times()
        out = {
            "numerics.meter_adds": (self.counts["meter_add"], "count"),
            "numerics.meter_add_s": (self.add_s, "s"),
            "numerics.principal_log_calls": (self.counts["principal_log"], "count"),
            "numerics.principal_pow_calls": (self.counts["principal_pow"], "count"),
        }
        calls, self_s, terms, terms_max = Counter(), defaultdict(float), Counter(), Counter()
        side_s, side_self = defaultdict(float), 0.0
        for i, (name, start, end, parent, adds, label, _) in enumerate(spans):
            key = f"{name}.{label}" if name == "functions.lerch_phi" else name
            calls[key] += 1
            self_s[key] += own[i]
            if name == "functions.lerch_phi":
                terms[key] += adds  # one compensated add per series term
                terms_max[key] = max(terms_max[key], adds)
            elif name == SIDE:
                side_self += own[i]
                if parent < 0 or spans[parent][0] != SIDE:
                    side_s[label] += end - start
        for band, _, _ in PHI_BANDS:
            key = f"functions.lerch_phi.{band}"
            out[f"{key}.calls"] = (calls[key], "count")
            out[f"{key}.terms"] = (terms[key], "count")
            out[f"{key}.terms_max"] = (terms_max[key], "count")
            out[f"{key}.self_s"] = (self_s[key], "s")
        for fn in FUNCTION_METRICS:
            out[f"functions.{fn}.calls"] = (calls[f"functions.{fn}"], "count")
            out[f"functions.{fn}.self_s"] = (self_s[f"functions.{fn}"], "s")
        out["functions.polylog.calls"] = (calls["functions.polylog"], "count")
        for spec in self.lib.list_identities():
            out[f"identities.{spec.id}.side_s"] = (side_s[spec.id], "s")
        out["identities.self_s"] = (side_self, "s")
        out["verifier.sample_s"] = (sum(end - start for name, start, end, *_ in spans
                                        if name == "verifier.sample_points"), "s")
        out["verifier.judge_s"] = (self_s["verifier.verify_identity"], "s")
        out["verifier.cpu_s"] = (sum(rec[6] for rec in spans
                                     if rec[0] == "verifier.verify_identity"), "s")
        out["report.write_s"] = (sum(end - start for name, start, end, *_ in spans
                                     if name == "report.write_report"), "s")
        out["cli.main_s"] = (self_s["cli.main"], "s")
        return out


def median_metrics(runs: list) -> dict:
    """Merge per-rep metric dicts: median for times, and the counts, which
    must repeat exactly (a differing count raises ValueError)."""
    merged = {}
    for name, (value, unit) in runs[0].items():
        values = [run[name][0] for run in runs]
        if unit == "s":
            merged[name] = (statistics.median(values), unit)
        elif any(v != value for v in values):
            raise ValueError(f"counter {name} differs between traced reps: {values}")
        else:
            merged[name] = (value, unit)
    return merged
