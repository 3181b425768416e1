"""Command-line interface.

Subcommands: ``dag check|paths|adjust``, ``simulate``, ``estimate``,
``oracle``, ``reproduce``.  Exit codes: 0 success, 1 analysis failure,
2 usage or parse error.  Seed precedence: --seed flag, then the
CAUSALKIT_SEED environment variable, then the scenario file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import scenario as scenario_mod
from .dag import (
    AdjustmentQuery,
    enumerate_paths,
    minimal_adjustment_sets,
    parse_dag_text,
    path_open,
)
from .errors import CausalKitError, FormatError
from .estimators import BootstrapSpec
from .scm import Dataset

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_dag(path: str):
    dag = parse_dag_text(_read_text(path))
    dag.validate()
    return dag


def _effective_seed(args, file_seed: int) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("CAUSALKIT_SEED")
    if env is not None:
        return int(env)
    return file_seed


# ---------------------------------------------------------------------------
# dag subcommands


def cmd_dag_check(args) -> int:
    dag = _load_dag(args.file)
    print(f"ok: {len(dag.nodes)} nodes, {len(dag.edges)} edges")
    return EXIT_OK


def cmd_dag_paths(args) -> int:
    dag = _load_dag(args.file)
    given = frozenset(args.given or ())
    paths = enumerate_paths(dag, args.source, args.target)
    if not paths:
        print("no paths")
        return EXIT_OK
    for path in paths:
        state = "OPEN" if path_open(dag, path, given) else "CLOSED"
        kind = "back-door" if path.is_backdoor() else (
            "causal" if path.is_causal() else "non-causal"
        )
        print(f"{state:6s} {kind:9s} {path}")
    return EXIT_OK


def cmd_dag_adjust(args) -> int:
    dag = _load_dag(args.file)
    treatment = args.treatment or next(iter(dag.nodes_with_role("treatment")), None)
    outcome = args.outcome or next(iter(dag.nodes_with_role("outcome")), None)
    if treatment is None or outcome is None:
        print("error: treatment/outcome not given and not annotated in the file",
              file=sys.stderr)
        return EXIT_USAGE
    forced = frozenset(args.forced or ()) | frozenset(dag.nodes_with_role("conditioned"))
    query = AdjustmentQuery(treatment, outcome, forced=forced)
    sets = minimal_adjustment_sets(dag, query)
    if not sets:
        print("no valid adjustment set")
        return EXIT_ANALYSIS
    for chosen in sets:
        print("{" + ", ".join(sorted(chosen)) + "}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / estimate / oracle / reproduce


def cmd_simulate(args) -> int:
    s = scenario_mod.parse_scenario(_read_text(args.scenario))
    seed = _effective_seed(args, s.seed)
    if args.n is not None:
        from dataclasses import replace
        s = replace(s, sample_size=args.n)
    dataset = scenario_mod.scenario_dataset(s, seed)
    text = dataset.to_csv()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {dataset.n} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_estimate(args) -> int:
    dataset = Dataset.from_csv(_read_text(args.data)).aggregate()
    bootstrap = None
    if args.method in ("g_computation", "ipw"):
        bootstrap = BootstrapSpec(args.replicates, args.bootstrap_seed)
    analysis = scenario_mod.Analysis(
        method=args.method,
        treatment=args.treatment,
        outcome=args.outcome,
        adjust=tuple(args.adjust or ()),
        interactions=args.interactions,
        family=args.family,
        bootstrap=bootstrap,
    )
    estimate = scenario_mod.run_analysis(dataset, analysis)
    row = scenario_mod.ResultRow(
        scenario_mod.METHOD_LABELS[analysis.method], analysis.adjust, estimate
    )
    sys.stdout.write(scenario_mod.ResultTable("", (row,)).render(args.format))
    return EXIT_OK


def cmd_oracle(args) -> int:
    s = scenario_mod.parse_scenario(_read_text(args.scenario))
    results = []
    for analysis in s.analyses:
        value = scenario_mod._oracle_for(s, analysis)
        results.append(
            {
                "method": analysis.method,
                "adjust": list(analysis.adjust),
                "risk_ratio": value,
            }
        )
    if args.format == "json":
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            adjust = ", ".join(r["adjust"]) or "-"
            print(f"{r['method']:20s} {adjust:40s} {r['risk_ratio']:.10f}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    reports = scenario_mod.reproduce_many(args.target)
    chunks = [report.render() for report in reports]
    output = "\n".join(chunks)
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    sys.stdout.write(output)
    ok = all(report.passed for report in reports)
    print("ALL PASS" if ok else "FAILURES PRESENT")
    return EXIT_OK if ok else EXIT_ANALYSIS


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalkit",
        description="Causal diagrams, binary SCM simulation and risk-ratio estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dag_parser = sub.add_parser("dag", help="causal diagram queries")
    dag_sub = dag_parser.add_subparsers(dest="dag_command", required=True)

    p = dag_sub.add_parser("check", help="validate a DAG file")
    p.add_argument("file")
    p.set_defaults(func=cmd_dag_check)

    p = dag_sub.add_parser("paths", help="list paths with open/closed status")
    p.add_argument("file")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--given", nargs="*", default=[])
    p.set_defaults(func=cmd_dag_paths)

    p = dag_sub.add_parser("adjust", help="minimal adjustment sets")
    p.add_argument("file")
    p.add_argument("--treatment")
    p.add_argument("--outcome")
    p.add_argument("--forced", nargs="*", default=[])
    p.set_defaults(func=cmd_dag_adjust)

    p = sub.add_parser("simulate", help="draw a dataset from a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate a risk ratio from a CSV file")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True,
                   choices=["unadjusted", "outcome_regression", "g_computation", "ipw"])
    p.add_argument("--treatment", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--adjust", nargs="*", default=[])
    p.add_argument("--interactions", action="store_true")
    p.add_argument("--family", default="binomial", choices=["binomial", "poisson"])
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--bootstrap-seed", type=int, default=0)
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", help="exact population values for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reproduce", help="run built-in result-table scenarios")
    p.add_argument("target",
                   choices=list(scenario_mod.REPRODUCE_TARGETS) + ["all"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CausalKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
