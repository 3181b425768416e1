"""Scenario files, analysis execution and the reproduction harness.

A scenario bundles a structural model, a sample size and seed, an optional
selection rule and a list of analyses.  Its constructor checks that every
node it names is in the model, so a ``Scenario`` that exists is valid.
``run_scenario`` draws one counts table, selects from it and runs every
analysis against it, mirroring how a real study analyses a single sample
several ways.  ``reproduce`` runs the built-in scenarios behind the
published case-study and building-block result tables, compares each risk
ratio against its exact population oracle and the reference value, and
reports PASS/FAIL per tolerance band; tables 2-5 analyse one draw.

``TARGETS`` is the one table of those targets: per target, its scenario's
settings and, per row, the analysis, the risk ratio the original study
reports and the band.  A target's model is built only when its scenario
is asked for.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from . import estimators, fixtures
from .dag import CausalDag
from .errors import ModelError, ScenarioError, SemanticError
from .estimators import METHODS, BootstrapSpec, EffectEstimate
from .glm import FAMILIES
from .scm import (
    Dataset,
    NodeEquation,
    SelectionRule,
    StructuralModel,
    apply_selection,
    csv_body,
    csv_header,
    sample,
    sample_blocks,
)


@dataclass(frozen=True)
class Analysis:
    method: str
    treatment: str
    outcome: str
    adjust: Tuple[str, ...] = ()
    interactions: bool = False
    family: str = "binomial"
    bootstrap: Optional[BootstrapSpec] = None

    def __post_init__(self):
        for role in ("method", "treatment", "outcome"):
            _expect(isinstance(getattr(self, role), str), role, "a string", getattr(self, role))
        _expect(
            isinstance(self.adjust, (list, tuple))
            and all(isinstance(column, str) for column in self.adjust),
            "adjust", "a list of column names", self.adjust,
        )
        object.__setattr__(self, "adjust", tuple(self.adjust))
        if self.method not in METHODS:
            raise ScenarioError(f"unknown method {self.method!r}")
        _expect(isinstance(self.interactions, bool), "interactions", "true or false",
                self.interactions)
        _expect(self.family in FAMILIES, "family", " or ".join(FAMILIES), self.family)
        # An option left at its default is never ignored; any other must be
        # one the method takes.
        ignored = [
            f.name for f in fields(self)
            if f.default is not MISSING and getattr(self, f.name) != f.default
            and f.name not in METHODS[self.method].options
        ]
        if ignored:
            raise ScenarioError(f"method {self.method!r} takes no {ignored[0]} option")
        if self.treatment == self.outcome:
            raise ScenarioError(f"treatment and outcome are both {self.treatment!r}")
        roles = {self.treatment, self.outcome} & set(self.adjust)
        if roles:
            raise ScenarioError(
                f"adjust may not include the treatment or outcome: {sorted(roles)}"
            )
        if len(set(self.adjust)) != len(self.adjust):
            raise ScenarioError(f"adjust names a column twice: {list(self.adjust)}")

    def options(self) -> Dict[str, object]:
        """The options this analysis's method takes, by name."""
        return {name: getattr(self, name) for name in METHODS[self.method].options}


@dataclass(frozen=True)
class Scenario:
    model: StructuralModel
    sample_size: int
    seed: int
    analyses: Tuple[Analysis, ...] = ()
    selection: Optional[SelectionRule] = None
    analysis_edge: Optional[Tuple[str, str]] = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "analyses", tuple(self.analyses))
        # ``type(...) is int`` also turns away a JSON true or false.
        _expect(type(self.sample_size) is int and self.sample_size >= 0,
                "sample_size", "a non-negative integer", self.sample_size)
        _expect(type(self.seed) is int, "seed", "an integer", self.seed)
        _expect(isinstance(self.label, str), "label", "a string", self.label)
        if self.analysis_edge is not None:
            _expect(isinstance(self.analysis_edge, (list, tuple)) and len(self.analysis_edge) == 2
                    and all(isinstance(endpoint, str) for endpoint in self.analysis_edge),
                    "analysis_edge", "a pair of node names", self.analysis_edge)
            object.__setattr__(self, "analysis_edge", tuple(self.analysis_edge))
        names = set(self.model.node_names())
        if self.selection is not None and self.selection.node not in names:
            raise SemanticError(f"selection node {self.selection.node!r} not in model")
        if self.analysis_edge is not None:
            for endpoint in self.analysis_edge:
                if endpoint not in names:
                    raise SemanticError(f"analysis edge endpoint {endpoint!r} not in model")
        for index, analysis in enumerate(self.analyses):
            for column in (analysis.treatment, analysis.outcome, *analysis.adjust):
                if column not in names:
                    raise SemanticError(
                        f"analysis {index}: column {column!r} not in model"
                    )

    def paired_dag(self) -> CausalDag:
        """The causal diagram this scenario's data is analysed under."""
        roles: Dict[str, str] = {}
        if self.analysis_edge is not None:
            roles[self.analysis_edge[0]] = "treatment"
            roles[self.analysis_edge[1]] = "outcome"
        elif self.analyses:
            roles[self.analyses[0].treatment] = "treatment"
            roles[self.analyses[0].outcome] = "outcome"
        if self.selection is not None:
            roles[self.selection.node] = "conditioned"
        return self.model.to_dag(roles=roles, analysis_edge=self.analysis_edge)


# ---------------------------------------------------------------------------
# JSON parsing (strict: unknown keys rejected)


def _expect(ok: bool, where: str, what: str, value) -> None:
    if not ok:
        raise ScenarioError(f"{where} must be {what}, not {value!r}")


def _require_keys(obj, required: Sequence[str], optional: Sequence[str], where: str):
    _expect(isinstance(obj, dict), where, "a JSON object", obj)
    missing = [k for k in required if k not in obj]
    if missing:
        raise ScenarioError(f"{where}: missing key(s) {missing}")
    unknown = [k for k in obj if k not in (*required, *optional)]
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {unknown}")


def _build(cls, obj, where: str, *, required: Sequence[str] = (), **parse):
    """The ``cls`` the JSON object ``obj`` at ``where`` describes: its keys
    are the dataclass's fields, those without a default or in ``required``
    required, and an omitted one takes its default.  ``parse`` maps a key to
    a function of its value and path giving the field's value.  A
    :class:`ScenarioError` from the constructor is re-raised prefixed with
    ``where``; a :class:`ModelError` names what it refuses and passes."""
    required = [f.name for f in fields(cls) if f.default is MISSING or f.name in required]
    _require_keys(obj, required, [f.name for f in fields(cls) if f.name not in required], where)
    values = {key: parse[key](value, f"{where}.{key}") if key in parse else value
              for key, value in obj.items()}
    try:
        return cls(**values)
    except ScenarioError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parents(parents, where: str) -> Tuple[Tuple[str, object], ...]:
    # null, like an empty object, means no parents.
    _expect(parents is None or isinstance(parents, dict), where, "a JSON object", parents)
    return tuple((parents or {}).items())


def _bootstrap(spec, where: str) -> Optional[BootstrapSpec]:
    # A file's bootstrap names its replicates and seed.
    return None if spec is None else _build(BootstrapSpec, spec, where,
                                            required=("replicates", "seed"))


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario from JSON text.

    The parser checks only the JSON's shape: objects, lists and known keys.
    Every value rule belongs to the constructor the value goes to
    (``NodeEquation``, ``SelectionRule``, ``Analysis``, ``BootstrapSpec``,
    ``StructuralModel``, ``Scenario``), which holds it for files and API
    callers alike, and an omitted key takes the constructor's default.  The
    objects are built in file order, so a malformed file ends in one
    :class:`FormatError` about its first fault.  An analysis's refusal is
    prefixed with its path (``analyses[2]: ...``).  A node equation, selection
    rule or model that its constructor refuses is malformed input in a
    file, so its :class:`ModelError` is re-raised as a :class:`ScenarioError`.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    _require_keys(
        obj,
        required=("nodes", "sample_size", "seed"),
        optional=("selection", "analyses", "analysis_edge", "label"),
        where="scenario",
    )
    settings = dict(obj)
    nodes = settings.pop("nodes")
    _expect(isinstance(nodes, list), "nodes", "a list", nodes)
    try:
        equations = tuple(_build(NodeEquation, node, f"nodes[{i}]", parents=_parents)
                          for i, node in enumerate(nodes))
        if settings.get("selection") is not None:
            settings["selection"] = _build(SelectionRule, settings["selection"], "selection")
        if "analyses" in settings:
            specs = settings["analyses"]
            _expect(isinstance(specs, list), "analyses", "a list", specs)
            settings["analyses"] = tuple(
                _build(Analysis, spec, f"analyses[{i}]", bootstrap=_bootstrap)
                for i, spec in enumerate(specs)
            )
        model = StructuralModel(equations)
    except ModelError as exc:
        raise ScenarioError(str(exc)) from None
    return Scenario(model=model, **settings)


# ---------------------------------------------------------------------------
# Execution


@dataclass(frozen=True)
class ResultTable:
    """A titled table of estimates, one row each, labelled by method."""

    title: str
    estimates: Tuple[EffectEstimate, ...]

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            return self._render_text()
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(("model", "adjustment", "risk_ratio", "ci_low", "ci_high"))
            for e in self.estimates:
                ci = e.ci or (float("nan"), float("nan"))
                writer.writerow((METHODS[e.method].label, " + ".join(e.adjustment) or "-",
                                 f"{e.risk_ratio:.4f}", f"{ci[0]:.4f}", f"{ci[1]:.4f}"))
            return buf.getvalue()
        if fmt == "json":
            return json.dumps(
                {
                    "title": self.title,
                    "rows": [
                        {
                            "model": METHODS[e.method].label,
                            "adjustment": list(e.adjustment),
                            "risk_ratio": e.risk_ratio,
                            "ci": list(e.ci) if e.ci else None,
                            "ci_method": e.ci_method,
                            "n": e.n,
                        }
                        for e in self.estimates
                    ],
                },
                indent=2,
            ) + "\n"
        raise ValueError(f"unknown format {fmt!r}")

    def _render_text(self) -> str:
        header = ("MODEL", "ADJUSTMENT VARIABLE(S)", "RISK RATIO", "CONFIDENCE INTERVAL")
        body = []
        for e in self.estimates:
            ci = f"({e.ci[0]:.4f}, {e.ci[1]:.4f})" if e.ci is not None else "-"
            body.append(
                (METHODS[e.method].label, ", ".join(e.adjustment) or "-",
                 f"{e.risk_ratio:.4f}", ci)
            )
        widths = [
            max(len(header[j]), *(len(r[j]) for r in body)) if body else len(header[j])
            for j in range(4)
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for r in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"


def run_analysis(dataset: Dataset, analysis: Analysis) -> EffectEstimate:
    """Run the analysis's sample estimator with the options its method takes."""
    return getattr(estimators, METHODS[analysis.method].estimator)(
        dataset, analysis.treatment, analysis.outcome, **analysis.options()
    )


def oracle_value(scenario: Scenario, analysis: Analysis) -> float:
    """The analysis's exact population value under the scenario's model and
    selection rule: :func:`causalkit.estimators.population_estimand` with
    the options its method takes but ``bootstrap``."""
    options = analysis.options()
    options.pop("bootstrap", None)
    return estimators.population_estimand(
        scenario.model, analysis.method, analysis.treatment, analysis.outcome,
        selection=scenario.selection, **options,
    )


def write_csv(scenario: Scenario, out: TextIO) -> int:
    """Write the CSV text of the scenario's sampled rows after its selection
    rule to ``out`` and return the number of rows written.

    Each block of :func:`causalkit.scm.sample_blocks` is filtered by the
    selection rule, formatted by :func:`causalkit.scm.csv_body` and written
    before the next is drawn, so memory holds one block however many rows
    there are.  The text is ``Dataset(names, rows).to_csv()`` of the same
    rows held whole.
    """
    names = scenario.model.node_names()
    out.write(csv_header(names))
    rows = 0
    for block in sample_blocks(scenario.model, scenario.sample_size, scenario.seed):
        if scenario.selection is not None:
            block = block[block[:, names.index(scenario.selection.node)]
                          == scenario.selection.value]
        out.write(csv_body(block))
        rows += len(block)
    return rows


def run_scenario(scenario: Scenario, *, draw: Callable[..., Dataset] = sample) -> ResultTable:
    """Sample once, straight to configuration counts (``draw`` is
    :func:`causalkit.scm.sample` or a cache of it; no row matrix),
    apply the selection rule to that table and run every analysis on it.
    Nothing writes to the drawn table, so scenarios may share it."""
    dataset = draw(scenario.model, scenario.sample_size, scenario.seed)
    if scenario.selection is not None:
        dataset = apply_selection(dataset, scenario.selection)
    estimates = []
    for index, analysis in enumerate(scenario.analyses):
        try:
            estimates.append(run_analysis(dataset, analysis))
        except Exception as exc:
            raise ScenarioError(f"analysis {index} ({analysis.method}): {exc}") from exc
    return ResultTable(scenario.label, tuple(estimates))


# ---------------------------------------------------------------------------
# The reproduction targets


@dataclass(frozen=True)
class ReproCheck:
    """The band check of the estimate at the same index of the report's table."""

    oracle: float
    reference: float
    band: str
    passed: bool


@dataclass(frozen=True)
class ReproReport:
    name: str
    table: ResultTable
    checks: Tuple[ReproCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [self.table.render("text").rstrip()]
        for e, check in zip(self.table.estimates, self.checks, strict=True):
            status = "PASS" if check.passed else "FAIL"
            lines.append(
                f"  [{status}] {METHODS[e.method].label} | {', '.join(e.adjustment) or '-'} | "
                f"estimate {e.risk_ratio:.4f} | oracle {check.oracle:.4f} | "
                f"reference {check.reference:.4f} | band: {check.band}"
            )
        return "\n".join(lines) + "\n"


def _ci_excludes_one(ci) -> bool:
    return ci is not None and (ci[1] < 1.0 or ci[0] > 1.0)


def _ci_covers_one(ci) -> bool:
    return ci is not None and ci[0] <= 1.0 <= ci[1]


def _within_3_mc_se(estimate: EffectEstimate, oracle: float) -> bool:
    # Indexed: an estimate without a Wald SE has no band, not a zero-width one.
    se = estimate.diagnostics["se_log_rr"]
    low = oracle * math.exp(-3.0 * se)
    high = oracle * math.exp(3.0 * se)
    return low <= estimate.risk_ratio <= high


@dataclass(frozen=True)
class Band:
    """A row's tolerance band: the text printed with it and its test, a
    function of the row's estimate, its oracle, its reference risk ratio and
    the risk ratios of every row of its table."""

    text: str
    holds: Callable[[EffectEstimate, float, float, Tuple[float, ...]], bool]


_NULL_COVERED = Band(
    "|estimate - 1| <= 0.02 and CI covers 1",
    lambda e, oracle, ref, rrs: abs(e.risk_ratio - 1.0) <= 0.02 and _ci_covers_one(e.ci),
)
_COLLIDER_BIAS = Band(
    "CI excludes 1; within 0.05 of reference and 0.01 of oracle",
    lambda e, oracle, ref, rrs: _ci_excludes_one(e.ci)
    and abs(e.risk_ratio - ref) <= 0.05 and abs(e.risk_ratio - oracle) <= 0.01,
)
_SELECTION_BIAS = Band(
    "estimate in [1.10, 1.17] and CI excludes 1",
    lambda e, oracle, ref, rrs: 1.10 <= e.risk_ratio <= 1.17 and _ci_excludes_one(e.ci),
)
_NULL = Band("|estimate - 1| <= 0.02", lambda e, oracle, ref, rrs: abs(e.risk_ratio - 1.0) <= 0.02)
# Appendix triples: the estimate within 3 Monte Carlo standard errors of its oracle.
_MC = Band(
    "within 3 MC standard errors of oracle",
    lambda e, oracle, ref, rrs: _within_3_mc_se(e, oracle),
)


@dataclass(frozen=True)
class Target:
    """A reproduction target: its scenario's settings and its rows, each an
    analysis, the risk ratio the original study reports for it and the band
    its estimate must meet.  ``model`` builds the structural model, so no
    model exists until the target's scenario is asked for."""

    label: str
    model: Callable[[], StructuralModel]
    sample_size: int
    seed: int
    rows: Tuple[Tuple[Analysis, float, Band], ...]
    selection: Optional[SelectionRule] = None
    analysis_edge: Optional[Tuple[str, str]] = None

    def scenario(self) -> Scenario:
        return Scenario(
            model=self.model(),
            sample_size=self.sample_size,
            seed=self.seed,
            analyses=tuple(analysis for analysis, _, _ in self.rows),
            selection=self.selection,
            analysis_edge=self.analysis_edge,
            label=self.label,
        )


CASE_STUDY_SEED = 20230110
CASE_STUDY_N = 1_000_000
APPENDIX_SEED = 987654321
APPENDIX_N = 10_000
BOOTSTRAP_B = 200

_T = fixtures.CHILDCARE
_Y = fixtures.CONDUCT_SCHOOL
_CE = fixtures.CONDUCT_ENTRY
_E = fixtures.EDUCATION
_P = fixtures.PLAYGROUP


def _case_study(label, rows, selection=None) -> Target:
    return Target(label, fixtures.case_study_model, CASE_STUDY_N, CASE_STUDY_SEED, rows,
                  selection, analysis_edge=(_T, _Y))


def _triple(label, model, rows) -> Target:
    return Target(label, model, APPENDIX_N, APPENDIX_SEED, rows)


def _bootstrapped(method, adjust, seed) -> Analysis:
    return Analysis(method, _T, _Y, adjust, bootstrap=BootstrapSpec(BOOTSTRAP_B, seed))


def _regression(adjust) -> Analysis:
    return Analysis("outcome_regression", _T, _Y, adjust, family="poisson")


# Building-block rows: plain and adjusted log-link poisson regressions of
# B on A, the appendix-style working model for a risk ratio.
_PLAIN = Analysis("outcome_regression", "A", "B", (), family="poisson")
_ADJUSTED = Analysis("outcome_regression", "A", "B", ("C",), family="poisson")

TARGETS: Dict[str, Target] = {
    "table2": _case_study("table2: confounding adjustment on the full sample", (
        (Analysis("unadjusted", _T, _Y), 2.4129,
         Band("|estimate - oracle| <= 0.03",
              lambda e, oracle, ref, rrs: abs(e.risk_ratio - oracle) <= 0.03)),
        (_regression((_CE,)), 1.0006, _NULL_COVERED),
        (_bootstrapped("g_computation", (_CE,), 1002), 1.0006, _NULL_COVERED),
        (_bootstrapped("ipw", (_CE,), 1003), 1.0006, _NULL_COVERED),
    )),
    "table3": _case_study("table3: adjusting for the collider on the full sample", (
        (_regression((_CE, _P)), 1.2453, _COLLIDER_BIAS),
        (_bootstrapped("g_computation", (_CE, _P), 1012), 1.2905, _COLLIDER_BIAS),
        (_bootstrapped("ipw", (_CE, _P), 1013), 1.4097, _COLLIDER_BIAS),
    )),
    "table4": _case_study("table4: selected sample, confounder-only adjustment", (
        (_regression((_CE,)), 1.1409, _SELECTION_BIAS),
        (_bootstrapped("g_computation", (_CE,), 1022), 1.1273, _SELECTION_BIAS),
        (_bootstrapped("ipw", (_CE,), 1023), 1.1485, _SELECTION_BIAS),
    ), selection=SelectionRule(_P, 1)),
    "table5": _case_study("table5: selected sample, adding parent education", (
        (_regression((_CE, _E)), 1.0426,
         Band("outcome regression >= 0.02 above G-computation and IPW",
              lambda e, oracle, ref, rrs: all(e.risk_ratio - other >= 0.02 for other in rrs[1:]))),
        (_bootstrapped("g_computation", (_CE, _E), 1032), 1.0119, _NULL),
        (_bootstrapped("ipw", (_CE, _E), 1033), 1.0092, _NULL),
    ), selection=SelectionRule(_P, 1)),
    "table6": _triple("table6: confounder triple", fixtures.confounder_model, (
        (_PLAIN, 1.696, _MC),
        (_ADJUSTED, 1.031, _MC),
    )),
    "table7": _triple("table7: mediator triple", fixtures.mediator_model, (
        (_PLAIN, 1.656, _MC),
        (_ADJUSTED, 0.983, _MC),
    )),
    "table8": _triple("table8: collider triple", fixtures.collider_model, (
        (_PLAIN, 1.093, _MC),
        (_ADJUSTED, 0.546,
         Band("within 3 MC standard errors of oracle; RR < 1 with CI excluding 1",
              lambda e, oracle, ref, rrs: _within_3_mc_se(e, oracle)
              and e.risk_ratio < 1.0 and e.ci[1] < 1.0)),
    )),
}

REPRODUCE_TARGETS = tuple(TARGETS)


def builtin_scenario(name: str) -> Scenario:
    if name not in TARGETS:
        raise ScenarioError(f"unknown scenario {name!r}")
    return TARGETS[name].scenario()


def reproduce(name: str, *, draw: Callable[..., Dataset] = sample) -> ReproReport:
    """Run one reproduction target (drawn by ``draw``, see
    :func:`run_scenario`) and check each row against its band."""
    scenario = builtin_scenario(name)
    table = run_scenario(scenario, draw=draw)
    ratios = tuple(e.risk_ratio for e in table.estimates)
    checks = []
    # run_scenario gives one estimate per analysis, in the target's order.
    for (a, reference, band), e in zip(TARGETS[name].rows, table.estimates, strict=True):
        oracle = oracle_value(scenario, a)
        checks.append(
            ReproCheck(oracle, reference, band.text, band.holds(e, oracle, reference, ratios))
        )
    return ReproReport(name, table, tuple(checks))


def reproduce_many(target: str) -> List[ReproReport]:
    """Reproduce a target, or all of them, drawing each distinct ``(model, n,
    seed)`` once; the cache ends with the call, so calls draw independently."""
    names = REPRODUCE_TARGETS if target == "all" else (target,)
    draw = functools.lru_cache(maxsize=None)(sample)
    return [reproduce(name, draw=draw) for name in names]
