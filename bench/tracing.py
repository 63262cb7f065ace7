"""In-process span tracing of one audit, built from the benchmark's files only.

The public functions are wrapped where ``biasaudit.cli``, ``biasaudit.report``
and ``biasaudit.svm`` bind them, so every call the audit makes through those
names becomes a span. Spans stay in memory and are written out at the end;
nothing goes into ``report.json`` or the package.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

# per-layer time metric -> the wrapped names whose self times it sums
TIME_METRICS = {
    "cli.self_s": ("main",),
    "data.load_csv_s": ("load_csv",),
    "data.load_codes_s": ("load_codes_csv",),
    "data.select_s": ("bona_fide_responses", "attack_responses"),
    "report.run_audit_self_s": ("run_audit",),
    "report.render_json_s": ("render_json",),
    "plots.render_s": ("render_plots",),
    "dip.null_s": ("dip_critical_value",),
    "dip.statistic_s": ("dip_statistic",),
    "stats.summary_s": ("summary_stats",),
    "stats.mwu_s": ("mann_whitney_u",),
    "stats.chi2_anchor_s": ("chi_squared_one_sided",),
    "thresholds.sweep_s": ("bias_sweep",),
    "thresholds.regions_s": ("significant_regions",),
    "thresholds.roc_eer_s": ("roc_curve", "eer_operating_point"),
    "thresholds.anchor_s": ("threshold_for_bonafide_error", "hter_at", "outcomes_at"),
    "svm.cv_s": ("cross_validated_auc",),
    "svm.fit_s": ("train_svm_smo",),
}
# per-layer count metric -> the wrapped name whose calls it is taken from
COUNT_METRICS = {
    "data.rows": "load_csv",
    "dip.null_calls": "dip_critical_value",
    "dip.null_draws": "dip_critical_value",
    "thresholds.sweep_points": "bias_sweep",
    "svm.fits": "train_svm_smo",
    "svm.smo_passes": "train_svm_smo",
    "svm.converged_ratio": "train_svm_smo",
    "svm.kernel_mb": "train_svm_smo",
    "report.json_bytes": "render_json",
    "plots.files": "render_plots",
    "plots.bytes": "render_plots",
}
WRAPPED = {name for names in TIME_METRICS.values() for name in names}
MODULES = ("biasaudit.cli", "biasaudit.report", "biasaudit.svm")
MB = 1e6


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    workload: str


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Records spans and per-layer counts while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.kernel_bytes = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _observe(self, name: str, bound: inspect.BoundArguments, result) -> None:
        """Counts that the wrapped call's arguments and result carry."""
        if name == "load_csv":
            self._count("data.rows", len(result))
        elif name == "dip_critical_value":
            self._count("dip.null_calls", 1)
            self._count("dip.null_draws", bound.arguments["n"] * bound.arguments["replicas"])
        elif name == "bias_sweep":
            self._count("thresholds.sweep_points", len(result.grid))
        elif name == "train_svm_smo":
            n_train = len(bound.arguments["features"])
            self._count("svm.fits", 1)
            self._count("svm.smo_passes", result.passes)
            self._count("svm.converged", int(result.converged))
            self.kernel_bytes = max(self.kernel_bytes, n_train * n_train * 8)
        elif name == "render_json":
            self._count("report.json_bytes", len(result))
        elif name == "render_plots":
            self._count("plots.files", len(result))
            self._count("plots.bytes", sum(p.stat().st_size for p in result))

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            span = Span(name, 0.0, 0.0, parent, self.workload)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self._observe(name, bound, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every bound name; returns the names bound nowhere."""
        found = set()
        for mod_name in MODULES:
            module = importlib.import_module(mod_name)
            for name in sorted(WRAPPED):
                fn = getattr(module, name, None)
                if callable(fn):
                    self._restore.append((module, name, fn))
                    setattr(module, name, self._wrap(name, fn))
                    found.add(name)
        return sorted(WRAPPED - found)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()

    def layer_metrics(self, missing: list[str]) -> dict[str, float]:
        """Self time per layer and the counts, over every span so far.

        A metric whose every source name is ``missing`` is left out rather
        than reported as 0; a layer that simply did no work reads 0.
        """
        times = dict.fromkeys(TIME_METRICS, 0.0)
        metric_of = {name: m for m, names in TIME_METRICS.items() for name in names}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            times[metric_of[span.name]] += self_s
        fits = self.counts.get("svm.fits", 0)
        counts = {
            "svm.converged_ratio": self.counts.get("svm.converged", 0) / fits if fits else 0.0,
            "svm.kernel_mb": self.kernel_bytes / MB,
        }
        counts.update({m: self.counts.get(m, 0) for m in COUNT_METRICS if m not in counts})
        out = {m: v for m, v in times.items() if not set(TIME_METRICS[m]) <= set(missing)}
        out.update({m: v for m, v in counts.items() if COUNT_METRICS[m] not in missing})
        return out

    def dump(self) -> list[dict]:
        return [vars(s) for s in self.spans]
