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

import functools
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


def _is_number(value) -> bool:
    return type(value) in (int, float)


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario from JSON text.

    Every value is checked for its JSON type here or in the constructor it
    goes to (``StructuralModel``, ``Scenario``, ``Analysis``,
    ``BootstrapSpec``), so a malformed file ends in one :class:`FormatError`.
    That includes a model that ``NodeEquation`` or ``StructuralModel``
    rejects, such as a number too large for a float: in a file it is
    malformed input, so its :class:`ModelError` is re-raised as a
    :class:`ScenarioError`.
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
    _expect(isinstance(obj["nodes"], list), "nodes", "a list", obj["nodes"])
    nodes = []
    for i, node in enumerate(obj["nodes"]):
        where = f"nodes[{i}]"
        _require_keys(node, ("name", "intercept"), ("parents",), where)
        parents = {} if node.get("parents") is None else node["parents"]
        _expect(isinstance(node["name"], str), f"{where}.name", "a string", node["name"])
        _expect(_is_number(node["intercept"]), f"{where}.intercept", "a number",
                node["intercept"])
        _expect(isinstance(parents, dict) and all(map(_is_number, parents.values())),
                f"{where}.parents", "an object of numbers", parents)
        nodes.append((node["name"], node["intercept"], tuple(parents.items())))
    selection = None
    if obj.get("selection") is not None:
        rule = obj["selection"]
        _require_keys(rule, ("node", "value"), (), "selection")
        _expect(isinstance(rule["node"], str), "selection.node", "a string", rule["node"])
        _expect(type(rule["value"]) is int and rule["value"] in (0, 1),
                "selection.value", "0 or 1", rule["value"])
        selection = SelectionRule(rule["node"], rule["value"])
    specs = obj.get("analyses", [])
    _expect(isinstance(specs, list), "analyses", "a list", specs)
    analyses = []
    for i, spec in enumerate(specs):
        where = f"analyses[{i}]"
        _require_keys(
            spec,
            ("method", "treatment", "outcome"),
            ("adjust", "interactions", "bootstrap", "family"),
            where,
        )
        try:
            bootstrap = None
            if spec.get("bootstrap") is not None:
                _require_keys(spec["bootstrap"], ("replicates", "seed"), ("level",), "bootstrap")
                bootstrap = BootstrapSpec(
                    replicates=spec["bootstrap"]["replicates"],
                    seed=spec["bootstrap"]["seed"],
                    level=spec["bootstrap"].get("level", BootstrapSpec.level),
                )
            analyses.append(
                Analysis(
                    method=spec["method"],
                    treatment=spec["treatment"],
                    outcome=spec["outcome"],
                    adjust=spec.get("adjust", ()),
                    interactions=spec.get("interactions", False),
                    family=spec.get("family", "binomial"),
                    bootstrap=bootstrap,
                )
            )
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
    analysis_edge = None
    if obj.get("analysis_edge") is not None:
        edge = obj["analysis_edge"]
        _expect(isinstance(edge, list) and len(edge) == 2
                and all(isinstance(e, str) for e in edge),
                "analysis_edge", "a list of two node names", edge)
        analysis_edge = (edge[0], edge[1])
    try:
        model = StructuralModel(tuple(NodeEquation(*node) for node in nodes))
    except ModelError as exc:
        raise ScenarioError(str(exc)) from None
    return Scenario(
        model=model,
        sample_size=obj["sample_size"],
        seed=obj["seed"],
        analyses=tuple(analyses),
        selection=selection,
        analysis_edge=analysis_edge,
        label=obj.get("label", ""),
    )


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
            lines = ["model,adjustment,risk_ratio,ci_low,ci_high"]
            for e in self.estimates:
                ci = e.ci or (float("nan"), float("nan"))
                lines.append(
                    f"{METHODS[e.method].label},{' + '.join(e.adjustment) or '-'},"
                    f"{e.risk_ratio:.4f},{ci[0]:.4f},{ci[1]:.4f}"
                )
            return "\n".join(lines) + "\n"
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
    method = METHODS[analysis.method]
    return getattr(estimators, method.estimator)(
        dataset, analysis.treatment, analysis.outcome,
        **{name: getattr(analysis, name) for name in method.options},
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
        oracle = estimators.population_estimand(
            scenario.model, a.method, a.treatment, a.outcome, a.adjust,
            scenario.selection, a.interactions, a.family,
        )
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
