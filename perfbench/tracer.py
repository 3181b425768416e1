"""Per-layer tracing by wrapping causalkit's public functions from outside.

The package has no tracing of its own, so a traced pass replaces each public
function at every module attribute where callers look it up (for example
``glm.fit`` and the ``enumerate_paths`` name that ``cli`` imported) with a
wrapper that records a span: calls, total time, self time (total minus the
time of child spans) and the parent span that caused it.  Hooks add counts
taken from the arguments and results at the same boundary.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.links: Counter = Counter()
        self._stack: list = []

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span called ``name``; ``hook(tracer, args, result)``
        runs after a successful call."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.errors.{type(exc).__name__}"] += 1
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    self.links[(parent[0], name)] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name: str, fn: Callable) -> Callable:
        """A call counter without a span, for functions called very often."""

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": self.calls[name], "s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.total_s)
            },
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "links": [[parent, child, n] for (parent, child), n in sorted(self.links.items())],
        }


# -- hooks: counts taken where the work happens --------------------------------


def _uniform_matrix(t, args, result):
    t.counts["rng.uniform_matrix.draws"] += int(result.size)


def _sample(t, args, result):
    t.counts["scm.sample.rows"] += result.n


def _apply_selection(t, args, result):
    t.counts["scm.apply_selection.rows_in"] += args[0].n
    t.counts["scm.apply_selection.rows_kept"] += result.n


def _aggregate(t, args, result):
    t.counts["scm.aggregate.rows_in"] += args[0].n
    t.counts["scm.aggregate.configs_out"] += result.n


def _to_csv(t, args, result):
    t.counts["scm.csv_bytes"] += len(result)


def _from_csv(t, args, result):
    t.counts["scm.csv_bytes"] += len(args[-1])


def _enumerate_population(t, args, result):
    t.counts["scm.enumerate_population.configs"] += result.n


def _fit(t, args, result):
    t.counts["glm.fit.rows"] += args[0].n
    t.counts["glm.fit.iterations"] += result.iterations


def _predict(t, args, result):
    t.counts["glm.predict.rows"] += len(result)


def _bootstrap(t, args, result):
    diagnostics = result[1]
    t.counts["estimators.bootstrap.replicates"] += diagnostics["bootstrap_replicates"]
    t.counts["estimators.bootstrap.failures"] += diagnostics["bootstrap_failures"]


def _minimal_sets(t, args, result):
    t.counts["dag.adjust.sets"] += len(result)


def _enumerate_paths(t, args, result):
    t.counts["dag.enumerate_paths.paths"] += len(result)


# (module, attribute, span name, hook).  Functions are patched wherever a
# causalkit module holds them; Dataset methods are patched on the class.
FUNCTIONS = (
    ("rng", "uniform_matrix", "rng.uniform_matrix", _uniform_matrix),
    ("scm", "sample", "scm.sample", _sample),
    ("scm", "apply_selection", "scm.apply_selection", _apply_selection),
    ("scm", "enumerate_population", "scm.enumerate_population", _enumerate_population),
    ("glm", "fit", "glm.fit", _fit),
    ("glm", "predict", "glm.predict", _predict),
    ("estimators", "unadjusted_rr", "estimators.point", None),
    ("estimators", "outcome_regression_rr", "estimators.point", None),
    ("estimators", "g_computation_rr", "estimators.point", None),
    ("estimators", "ipw_rr", "estimators.point", None),
    ("estimators", "bootstrap_ci", "estimators.bootstrap_ci", _bootstrap),
    ("estimators", "population_estimand", "estimators.population_estimand", None),
    ("dag", "parse_dag_text", "dag.parse_dag_text", None),
    ("dag", "minimal_adjustment_sets", "dag.minimal_adjustment_sets", _minimal_sets),
    ("dag", "is_valid_adjustment", "dag.is_valid_adjustment", None),
    ("dag", "enumerate_paths", "dag.enumerate_paths", _enumerate_paths),
    ("scenario", "parse_scenario", "scenario.parse_scenario", None),
    ("scenario", "run_scenario", "scenario.run_scenario", None),
    ("scenario", "reproduce", "scenario.reproduce", None),
)
DATASET_METHODS = (
    ("aggregate", "scm.aggregate", _aggregate),
    ("to_csv", "scm.to_csv", _to_csv),
)
COUNTED = (("dag", "path_open", "dag.path_open"),)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name != "causalkit" and not module_name.startswith("causalkit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> Callable:
    """Wrap the traced functions; returns a callable that runs one CLI
    command inside the root span."""
    import importlib

    from causalkit import cli
    from causalkit.scm import Dataset

    for module_name, attr, span, hook in FUNCTIONS:
        module = importlib.import_module(f"causalkit.{module_name}")
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(span, original, hook))
    for module_name, attr, name in COUNTED:
        module = importlib.import_module(f"causalkit.{module_name}")
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.count_calls(name, original))
    for attr, span, hook in DATASET_METHODS:
        setattr(Dataset, attr, tracer.wrap(span, getattr(Dataset, attr), hook))
    from_csv = Dataset.__dict__["from_csv"].__func__
    Dataset.from_csv = classmethod(tracer.wrap("scm.from_csv", from_csv, _from_csv))
    return tracer.wrap(ROOT_SPAN, cli.main)


def layer_metrics(report: dict) -> Dict[str, float]:
    """Flatten a trace report into the named per-layer metrics; a ratio
    reads 0 when nothing was attempted."""
    spans, calls, counts = report["spans"], report["calls"], report["counts"]

    def s(name):
        return spans.get(name, {}).get("s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def n(name):
        return calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def c(key):
        return counts.get(key, 0)

    return {
        "rng.uniform_matrix.s": s("rng.uniform_matrix"),
        "rng.uniform_matrix.draws": c("rng.uniform_matrix.draws"),
        "scm.sample.s": s("scm.sample"),
        "scm.sample.rows": c("scm.sample.rows"),
        "scm.apply_selection.s": s("scm.apply_selection"),
        "scm.apply_selection.kept_frac": ratio(c("scm.apply_selection.rows_kept"),
                                               c("scm.apply_selection.rows_in")),
        "scm.aggregate.s": s("scm.aggregate"),
        "scm.aggregate.calls": n("scm.aggregate"),
        "scm.aggregate.rows_in": c("scm.aggregate.rows_in"),
        "scm.aggregate.configs_out": c("scm.aggregate.configs_out"),
        "scm.aggregate.collapse_ratio": ratio(c("scm.aggregate.configs_out"),
                                              c("scm.aggregate.rows_in")),
        "scm.to_csv.s": s("scm.to_csv"),
        "scm.from_csv.s": s("scm.from_csv"),
        "scm.csv_bytes": c("scm.csv_bytes"),
        "scm.enumerate_population.s": s("scm.enumerate_population"),
        "scm.enumerate_population.calls": n("scm.enumerate_population"),
        "scm.enumerate_population.configs": c("scm.enumerate_population.configs"),
        "glm.fit.s": s("glm.fit"),
        "glm.fit.calls": n("glm.fit"),
        "glm.fit.rows": c("glm.fit.rows"),
        "glm.fit.iterations": c("glm.fit.iterations"),
        "glm.fit.errors": c("glm.fit.errors"),
        "glm.predict.s": s("glm.predict"),
        "glm.predict.rows": c("glm.predict.rows"),
        "estimators.point.self_s": self_s("estimators.point"),
        "estimators.bootstrap_ci.s": s("estimators.bootstrap_ci"),
        "estimators.bootstrap_ci.self_s": self_s("estimators.bootstrap_ci"),
        "estimators.bootstrap.replicates": c("estimators.bootstrap.replicates"),
        "estimators.bootstrap.failures": c("estimators.bootstrap.failures"),
        "estimators.bootstrap.ok_ratio": ratio(
            c("estimators.bootstrap.replicates") - c("estimators.bootstrap.failures"),
            c("estimators.bootstrap.replicates")),
        "estimators.population_estimand.s": s("estimators.population_estimand"),
        "estimators.population_estimand.calls": n("estimators.population_estimand"),
        "dag.parse_dag_text.s": s("dag.parse_dag_text"),
        "dag.minimal_adjustment_sets.s": s("dag.minimal_adjustment_sets"),
        "dag.is_valid_adjustment.s": s("dag.is_valid_adjustment"),
        "dag.is_valid_adjustment.calls": n("dag.is_valid_adjustment"),
        "dag.adjust.useful_ratio": ratio(c("dag.adjust.sets"), n("dag.is_valid_adjustment")),
        "dag.enumerate_paths.s": s("dag.enumerate_paths"),
        "dag.enumerate_paths.calls": n("dag.enumerate_paths"),
        "dag.enumerate_paths.paths": c("dag.enumerate_paths.paths"),
        "dag.path_open.calls": n("dag.path_open"),
        "scenario.parse_scenario.s": s("scenario.parse_scenario"),
        "scenario.run_scenario.s": s("scenario.run_scenario"),
        "scenario.reproduce.s": s("scenario.reproduce"),
        "cli.self_s": self_s(ROOT_SPAN),
    }


# Which end-to-end metric on which workload each layer metric should move.
EXPECTED_MOVERS = (
    ("rng.", "simulate_s on csv_pipeline; under 3% of reproduce"),
    ("scm.sample", "simulate_s on csv_pipeline; reproduce slightly"),
    ("scm.apply_selection", "simulate_s on csv_pipeline; reproduce slightly"),
    ("scm.aggregate", "wall_s on reproduce, estimate_s on csv_pipeline; not dag_adjust "
                      "or oracle_k20"),
    ("scm.to_csv", "csv_pipeline only"),
    ("scm.from_csv", "csv_pipeline only"),
    ("scm.csv_bytes", "csv_pipeline only"),
    ("scm.enumerate_population", "wall_s and peak_rss_mb on oracle_k20; little elsewhere"),
    ("glm.fit.rows", "wall_s on reproduce, estimate_s; cannot shrink on oracle_k20"),
    ("glm.", "wall_s on reproduce, estimate_s on csv_pipeline, wall_s and peak_rss_mb "
             "on oracle_k20"),
    ("estimators.bootstrap.failures", "should stay 0"),
    ("estimators.", "wall_s on reproduce and csv_pipeline"),
    ("dag.", "wall_s on dag_adjust only"),
    ("scenario.", "wall_s on reproduce"),
    ("cli.", "all workloads: time in the CLI outside traced layers"),
    ("trace.", "tracing overhead: traced minus untraced wall_s"),
)


def expected_mover(metric: str) -> str:
    for prefix, mover in EXPECTED_MOVERS:
        if metric.startswith(prefix):
            return mover
    return "-"
