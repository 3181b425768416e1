"""Scenario files, analysis execution and the reproduction harness.

A scenario bundles a structural model, a sample size and seed, an optional
selection rule and a list of analyses.  ``run_scenario`` draws one dataset
and runs every analysis against it, mirroring how a real study analyses a
single sample several ways.  ``reproduce`` runs the built-in scenarios behind
the published case-study and building-block result tables, compares each risk
ratio against its exact population oracle and the reference value, and
reports PASS/FAIL per tolerance band.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import estimators, fixtures
from .dag import CausalDag
from .errors import ScenarioError, SemanticError
from .estimators import BootstrapSpec, EffectEstimate
from .scm import (
    Dataset,
    NodeEquation,
    SelectionRule,
    StructuralModel,
    apply_selection,
    sample,
    validate_model,
)

METHOD_LABELS = {
    "unadjusted": "No adjustment",
    "outcome_regression": "Outcome regression",
    "g_computation": "G-computation",
    "ipw": "IPW",
}


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
        object.__setattr__(self, "adjust", tuple(self.adjust))
        if self.method not in METHOD_LABELS:
            raise ScenarioError(f"unknown method {self.method!r}")


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

    def validate(self) -> None:
        validate_model(self.model)
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


# ---------------------------------------------------------------------------
# JSON parsing (strict: unknown keys rejected)


def _require_keys(obj: dict, required: Sequence[str], optional: Sequence[str], where: str):
    missing = [k for k in required if k not in obj]
    if missing:
        raise ScenarioError(f"{where}: missing key(s) {missing}")
    unknown = [k for k in obj if k not in (*required, *optional)]
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {unknown}")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario from JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    _require_keys(
        obj,
        required=("nodes", "sample_size", "seed"),
        optional=("selection", "analyses", "analysis_edge", "label"),
        where="scenario",
    )
    equations = []
    for i, node in enumerate(obj["nodes"]):
        _require_keys(node, ("name", "intercept"), ("parents",), f"nodes[{i}]")
        parents = tuple(sorted((node.get("parents") or {}).items()))
        equations.append(NodeEquation(node["name"], float(node["intercept"]), parents))
    selection = None
    if obj.get("selection") is not None:
        _require_keys(obj["selection"], ("node", "value"), (), "selection")
        selection = SelectionRule(obj["selection"]["node"], int(obj["selection"]["value"]))
    analyses = []
    for i, spec in enumerate(obj.get("analyses", ())):
        where = f"analyses[{i}]"
        _require_keys(
            spec,
            ("method", "treatment", "outcome"),
            ("adjust", "interactions", "bootstrap", "family"),
            where,
        )
        bootstrap = None
        if spec.get("bootstrap") is not None:
            _require_keys(spec["bootstrap"], ("replicates", "seed"), ("level",), f"{where}.bootstrap")
            bootstrap = BootstrapSpec(
                replicates=int(spec["bootstrap"]["replicates"]),
                seed=int(spec["bootstrap"]["seed"]),
                level=float(spec["bootstrap"].get("level", 0.95)),
            )
        analyses.append(
            Analysis(
                method=spec["method"],
                treatment=spec["treatment"],
                outcome=spec["outcome"],
                adjust=tuple(spec.get("adjust", ())),
                interactions=bool(spec.get("interactions", False)),
                family=spec.get("family", "binomial"),
                bootstrap=bootstrap,
            )
        )
    analysis_edge = None
    if obj.get("analysis_edge") is not None:
        edge = obj["analysis_edge"]
        if not (isinstance(edge, list) and len(edge) == 2):
            raise ScenarioError("analysis_edge must be a two-element list")
        analysis_edge = (edge[0], edge[1])
    scenario = Scenario(
        model=StructuralModel(tuple(equations)),
        sample_size=int(obj["sample_size"]),
        seed=int(obj["seed"]),
        analyses=tuple(analyses),
        selection=selection,
        analysis_edge=analysis_edge,
        label=obj.get("label", ""),
    )
    scenario.validate()
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    obj: dict = {
        "label": scenario.label,
        "nodes": [
            {
                "name": eq.name,
                "intercept": eq.intercept,
                "parents": {name: coef for name, coef in eq.parents},
            }
            for eq in scenario.model.equations
        ],
        "sample_size": scenario.sample_size,
        "seed": scenario.seed,
        "analyses": [],
    }
    if scenario.selection is not None:
        obj["selection"] = {"node": scenario.selection.node, "value": scenario.selection.value}
    if scenario.analysis_edge is not None:
        obj["analysis_edge"] = list(scenario.analysis_edge)
    for analysis in scenario.analyses:
        entry: dict = {
            "method": analysis.method,
            "treatment": analysis.treatment,
            "outcome": analysis.outcome,
            "adjust": list(analysis.adjust),
        }
        if analysis.interactions:
            entry["interactions"] = True
        if analysis.family != "binomial":
            entry["family"] = analysis.family
        if analysis.bootstrap is not None:
            entry["bootstrap"] = {
                "replicates": analysis.bootstrap.replicates,
                "seed": analysis.bootstrap.seed,
            }
        obj["analyses"].append(entry)
    return obj


# ---------------------------------------------------------------------------
# Execution


@dataclass(frozen=True)
class ResultRow:
    label: str
    adjustment: Tuple[str, ...]
    estimate: EffectEstimate


@dataclass(frozen=True)
class ResultTable:
    title: str
    rows: Tuple[ResultRow, ...]

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            return self._render_text()
        if fmt == "csv":
            lines = ["model,adjustment,risk_ratio,ci_low,ci_high"]
            for row in self.rows:
                ci = row.estimate.ci or (float("nan"), float("nan"))
                lines.append(
                    f"{row.label},{' + '.join(row.adjustment) or '-'},"
                    f"{row.estimate.risk_ratio:.4f},{ci[0]:.4f},{ci[1]:.4f}"
                )
            return "\n".join(lines) + "\n"
        if fmt == "json":
            return json.dumps(
                {
                    "title": self.title,
                    "rows": [
                        {
                            "model": row.label,
                            "adjustment": list(row.adjustment),
                            "risk_ratio": row.estimate.risk_ratio,
                            "ci": list(row.estimate.ci) if row.estimate.ci else None,
                            "ci_method": row.estimate.ci_method,
                            "n": row.estimate.n,
                        }
                        for row in self.rows
                    ],
                },
                indent=2,
            ) + "\n"
        raise ValueError(f"unknown format {fmt!r}")

    def _render_text(self) -> str:
        header = ("MODEL", "ADJUSTMENT VARIABLE(S)", "RISK RATIO", "CONFIDENCE INTERVAL")
        body = []
        for row in self.rows:
            if row.estimate.ci is not None:
                ci = f"({row.estimate.ci[0]:.4f}, {row.estimate.ci[1]:.4f})"
            else:
                ci = "-"
            body.append(
                (
                    row.label,
                    ", ".join(row.adjustment) or "-",
                    f"{row.estimate.risk_ratio:.4f}",
                    ci,
                )
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
    if analysis.method == "unadjusted":
        return estimators.unadjusted_rr(dataset, analysis.treatment, analysis.outcome)
    if analysis.method == "outcome_regression":
        return estimators.outcome_regression_rr(
            dataset, analysis.treatment, analysis.outcome, analysis.adjust,
            family=analysis.family,
        )
    if analysis.method == "g_computation":
        return estimators.g_computation_rr(
            dataset, analysis.treatment, analysis.outcome, analysis.adjust,
            interactions=analysis.interactions, bootstrap=analysis.bootstrap,
        )
    if analysis.method == "ipw":
        return estimators.ipw_rr(
            dataset, analysis.treatment, analysis.outcome, analysis.adjust,
            bootstrap=analysis.bootstrap,
        )
    raise ScenarioError(f"unknown method {analysis.method!r}")


def scenario_dataset(scenario: Scenario, seed: Optional[int] = None) -> Dataset:
    """Draw the scenario's dataset (one draw shared by all its analyses)."""
    dataset = sample(scenario.model, scenario.sample_size, seed if seed is not None else scenario.seed)
    if scenario.selection is not None:
        dataset = apply_selection(dataset, scenario.selection)
    return dataset


def run_scenario(scenario: Scenario, seed: Optional[int] = None) -> ResultTable:
    """Sample once, apply selection, collapse to configuration counts and run
    every analysis on the shared counts table."""
    scenario.validate()
    dataset = scenario_dataset(scenario, seed).aggregate()
    rows = []
    for index, analysis in enumerate(scenario.analyses):
        try:
            estimate = run_analysis(dataset, analysis)
        except Exception as exc:
            raise ScenarioError(f"analysis {index} ({analysis.method}): {exc}") from exc
        rows.append(
            ResultRow(METHOD_LABELS[analysis.method], analysis.adjust, estimate)
        )
    return ResultTable(scenario.label, tuple(rows))


# ---------------------------------------------------------------------------
# Built-in scenarios for the reproduction targets

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


def _case_study_scenario(label, analyses, selection=None) -> Scenario:
    return Scenario(
        model=fixtures.case_study_model(),
        sample_size=CASE_STUDY_N,
        seed=CASE_STUDY_SEED,
        analyses=analyses,
        selection=selection,
        analysis_edge=(_T, _Y),
        label=label,
    )


def _triple_scenario(label, model, adjusted_node) -> Scenario:
    # Building-block rows: plain and adjusted log-link poisson regressions of
    # B on A, the appendix-style working model for a risk ratio.
    return Scenario(
        model=model,
        sample_size=APPENDIX_N,
        seed=APPENDIX_SEED,
        analyses=(
            Analysis("outcome_regression", "A", "B", (), family="poisson"),
            Analysis("outcome_regression", "A", "B", (adjusted_node,), family="poisson"),
        ),
        label=label,
    )


def builtin_scenario(name: str) -> Scenario:
    builders = {
        "table2": lambda: _case_study_scenario(
            "table2: confounding adjustment on the full sample",
            (
                Analysis("unadjusted", _T, _Y),
                Analysis("outcome_regression", _T, _Y, (_CE,), family="poisson"),
                Analysis("g_computation", _T, _Y, (_CE,), bootstrap=BootstrapSpec(BOOTSTRAP_B, 1002)),
                Analysis("ipw", _T, _Y, (_CE,), bootstrap=BootstrapSpec(BOOTSTRAP_B, 1003)),
            ),
        ),
        "table3": lambda: _case_study_scenario(
            "table3: adjusting for the collider on the full sample",
            (
                Analysis("outcome_regression", _T, _Y, (_CE, _P), family="poisson"),
                Analysis("g_computation", _T, _Y, (_CE, _P), bootstrap=BootstrapSpec(BOOTSTRAP_B, 1012)),
                Analysis("ipw", _T, _Y, (_CE, _P), bootstrap=BootstrapSpec(BOOTSTRAP_B, 1013)),
            ),
        ),
        "table4": lambda: _case_study_scenario(
            "table4: selected sample, confounder-only adjustment",
            (
                Analysis("outcome_regression", _T, _Y, (_CE,), family="poisson"),
                Analysis("g_computation", _T, _Y, (_CE,), bootstrap=BootstrapSpec(BOOTSTRAP_B, 1022)),
                Analysis("ipw", _T, _Y, (_CE,), bootstrap=BootstrapSpec(BOOTSTRAP_B, 1023)),
            ),
            selection=SelectionRule(_P, 1),
        ),
        "table5": lambda: _case_study_scenario(
            "table5: selected sample, adding parent education",
            (
                Analysis("outcome_regression", _T, _Y, (_CE, _E), family="poisson"),
                Analysis("g_computation", _T, _Y, (_CE, _E), bootstrap=BootstrapSpec(BOOTSTRAP_B, 1032)),
                Analysis("ipw", _T, _Y, (_CE, _E), bootstrap=BootstrapSpec(BOOTSTRAP_B, 1033)),
            ),
            selection=SelectionRule(_P, 1),
        ),
        "table6": lambda: _triple_scenario(
            "table6: confounder triple", fixtures.confounder_model(), "C"
        ),
        "table7": lambda: _triple_scenario(
            "table7: mediator triple", fixtures.mediator_model(), "C"
        ),
        "table8": lambda: _triple_scenario(
            "table8: collider triple", fixtures.collider_model(), "C"
        ),
    }
    if name not in builders:
        raise ScenarioError(f"unknown scenario {name!r}")
    return builders[name]()


REPRODUCE_TARGETS = ("table2", "table3", "table4", "table5", "table6", "table7", "table8")

# Reference risk ratios and confidence intervals from the original study.
REFERENCE_VALUES = {
    "table2": ((2.4129, (2.3897, 2.4363)), (1.0006, (0.9896, 1.0118)),
               (1.0006, (0.9924, 1.0086)), (1.0006, (0.9938, 1.0075))),
    "table3": ((1.2453, (1.2306, 1.26018)), (1.2905, (1.2758, 1.3029)),
               (1.4097, (1.4006, 1.4188))),
    "table4": ((1.1409, (1.1230, 1.1590)), (1.1273, (1.1116, 1.1429)),
               (1.1485, (1.1380, 1.1592))),
    "table5": ((1.0426, (1.0259, 1.0597)), (1.0119, (0.9954, 1.0107)),
               (1.0092, (1.0001, 1.0185))),
    "table6": ((1.696, (1.602, 1.795)), (1.031, (0.967, 1.099))),
    "table7": ((1.656, (1.565, 1.754)), (0.983, (0.922, 1.047))),
    "table8": ((1.093, (0.883, 1.336)), (0.546, (0.439, 0.670))),
}


@dataclass(frozen=True)
class ReproCheck:
    row_label: str
    adjustment: Tuple[str, ...]
    estimate: float
    ci: Optional[Tuple[float, float]]
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
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(
                f"  [{status}] {check.row_label} | {', '.join(check.adjustment) or '-'} | "
                f"estimate {check.estimate:.4f} | oracle {check.oracle:.4f} | "
                f"reference {check.reference:.4f} | band: {check.band}"
            )
        return "\n".join(lines) + "\n"


def _oracle_for(scenario: Scenario, analysis: Analysis) -> float:
    return estimators.population_estimand(
        scenario.model, analysis.method, analysis.treatment, analysis.outcome,
        adjust=analysis.adjust, selection=scenario.selection,
        interactions=analysis.interactions, family=analysis.family,
    )


def _ci_excludes_one(ci) -> bool:
    return ci is not None and (ci[1] < 1.0 or ci[0] > 1.0)


def _ci_covers_one(ci) -> bool:
    return ci is not None and ci[0] <= 1.0 <= ci[1]


def reproduce(name: str) -> ReproReport:
    """Run one reproduction target and check its tolerance bands."""
    scenario = builtin_scenario(name)
    table = run_scenario(scenario)
    oracles = [_oracle_for(scenario, a) for a in scenario.analyses]
    references = REFERENCE_VALUES[name]
    checks: List[ReproCheck] = []

    def add(i, band, passed):
        row = table.rows[i]
        checks.append(
            ReproCheck(
                row_label=row.label,
                adjustment=row.adjustment,
                estimate=row.estimate.risk_ratio,
                ci=row.estimate.ci,
                oracle=oracles[i],
                reference=references[i][0],
                band=band,
                passed=passed,
            )
        )

    estimates = [row.estimate for row in table.rows]
    if name == "table2":
        add(0, "|estimate - oracle| <= 0.03",
            abs(estimates[0].risk_ratio - oracles[0]) <= 0.03)
        for i in (1, 2, 3):
            ok = abs(estimates[i].risk_ratio - 1.0) <= 0.02 and _ci_covers_one(estimates[i].ci)
            add(i, "|estimate - 1| <= 0.02 and CI covers 1", ok)
    elif name == "table3":
        for i in range(3):
            ok = (
                _ci_excludes_one(estimates[i].ci)
                and abs(estimates[i].risk_ratio - references[i][0]) <= 0.05
                and abs(estimates[i].risk_ratio - oracles[i]) <= 0.01
            )
            add(i, "CI excludes 1; within 0.05 of reference and 0.01 of oracle", ok)
    elif name == "table4":
        for i in range(3):
            ok = 1.10 <= estimates[i].risk_ratio <= 1.17 and _ci_excludes_one(estimates[i].ci)
            add(i, "estimate in [1.10, 1.17] and CI excludes 1", ok)
    elif name == "table5":
        margin = 0.02
        outcome_reg = estimates[0].risk_ratio
        others = [estimates[1].risk_ratio, estimates[2].risk_ratio]
        add(0, "outcome regression >= 0.02 above G-computation and IPW",
            all(outcome_reg - other >= margin for other in others))
        for i in (1, 2):
            add(i, "|estimate - 1| <= 0.02", abs(estimates[i].risk_ratio - 1.0) <= 0.02)
    else:  # appendix triples: estimate within 3 MC standard errors of its oracle
        for i in range(2):
            se = estimates[i].diagnostics.get("se_log_rr", 0.0)
            low = oracles[i] * math.exp(-3.0 * se)
            high = oracles[i] * math.exp(3.0 * se)
            ok = low <= estimates[i].risk_ratio <= high
            band = "within 3 MC standard errors of oracle"
            if name == "table8" and i == 1:
                ok = ok and estimates[i].risk_ratio < 1.0 and estimates[i].ci[1] < 1.0
                band += "; RR < 1 with CI excluding 1"
            add(i, band, ok)
    return ReproReport(name, table, tuple(checks))


def reproduce_many(target: str) -> List[ReproReport]:
    names = REPRODUCE_TARGETS if target == "all" else (target,)
    return [reproduce(name) for name in names]
