"""Command-line interface.

Subcommands: ``dag check|paths|adjust``, ``simulate``, ``estimate``,
``oracle``, ``reproduce``.  Exit codes: 0 success, 1 analysis failure,
2 usage or parse error.  Seed precedence: --seed flag, then the
CAUSALKIT_SEED environment variable, then the scenario file.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import scenario as scenario_mod
from .dag import (
    AdjustmentQuery,
    enumerate_paths,
    minimal_adjustment_sets,
    parse_dag_text,
    path_open_test,
)
from .errors import CausalKitError, EndpointConditioned, FormatError, NotUtf8Text, SemanticError
from .estimators import METHODS, BootstrapSpec
from .glm import FAMILIES
from .scm import Dataset

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    """The text of a DAG or scenario file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


@contextmanager
def _mapped(path: str):
    """A read-only map of a data file, or the file's bytes where it cannot
    be mapped: an empty file, or a pipe such as ``/dev/stdin``."""
    with open(path, "rb") as file:
        try:
            data = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            data = file.read()
    try:
        yield data
    finally:
        if isinstance(data, mmap.mmap):
            data.close()


def _require_names(names, known, kind: str, path: str) -> None:
    """Reject a name given on the command line that the input file lacks."""
    for name in names:
        if name not in known:
            raise SemanticError(f"{kind} {name!r} is not in {path}")


def _effective_seed(args, file_seed: int) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("CAUSALKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise FormatError(f"CAUSALKIT_SEED={env!r} is not an integer") from None
    return file_seed


# ---------------------------------------------------------------------------
# dag subcommands


def cmd_dag_check(args) -> int:
    dag = parse_dag_text(_read_text(args.file))
    print(f"ok: {len(dag.nodes)} nodes, {len(dag.edges)} edges")
    return EXIT_OK


def cmd_dag_paths(args) -> int:
    dag = parse_dag_text(_read_text(args.file))
    given = frozenset(args.given or ())
    _require_names([args.source, args.target, *args.given], dag.nodes, "node", args.file)
    for endpoint in (args.source, args.target):
        if endpoint in given:
            raise EndpointConditioned(endpoint)
    paths = enumerate_paths(dag, args.source, args.target)
    if not paths:
        print("no paths")
        return EXIT_OK
    is_open = path_open_test(dag, given)
    lines = []
    for path in paths:
        state = "OPEN" if is_open(path) else "CLOSED"
        kind = "back-door" if path.is_backdoor() else (
            "causal" if path.is_causal() else "non-causal"
        )
        lines.append(f"{state:6s} {kind:9s} {path}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_dag_adjust(args) -> int:
    dag = parse_dag_text(_read_text(args.file))
    treatment = args.treatment or next(iter(dag.nodes_with_role("treatment")), None)
    outcome = args.outcome or next(iter(dag.nodes_with_role("outcome")), None)
    if treatment is None or outcome is None:
        raise SemanticError("treatment/outcome not given and not annotated in the file")
    _require_names([treatment, outcome, *args.forced], dag.nodes, "node", args.file)
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
    """Write the scenario's sample as CSV to ``--out`` or stdout as it is
    drawn, one sampling block at a time (:func:`scenario.write_csv`), so
    neither the rows nor the file's text is ever held whole."""
    s = scenario_mod.parse_scenario(_read_text(args.scenario))
    s = replace(s, seed=_effective_seed(args, s.seed),
                sample_size=s.sample_size if args.n is None else args.n)
    if not args.out:
        scenario_mod.write_csv(s, sys.stdout)
        return EXIT_OK
    with open(args.out, "w", encoding="utf-8") as out:
        rows = scenario_mod.write_csv(s, out)
    print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    """Estimate from ``--data``, which :meth:`Dataset.from_csv` reads a
    block at a time from a map of the file (:func:`_mapped`)."""
    with _mapped(args.data) as data:
        try:
            dataset = Dataset.from_csv(data)
        except NotUtf8Text as exc:
            raise FormatError(f"{args.data}: {exc}") from None
    _require_names([args.treatment, args.outcome, *args.adjust], dataset.columns,
                   "column", args.data)
    # A bootstrap flag given to a Wald method reaches Analysis, which rejects it.
    given = {key: value for key, value in
             (("replicates", args.replicates), ("seed", args.bootstrap_seed))
             if value is not None}
    bootstrap = None
    if given or "bootstrap" in METHODS[args.method].options:
        bootstrap = BootstrapSpec(**given)
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
    sys.stdout.write(scenario_mod.ResultTable("", (estimate,)).render(args.format))
    return EXIT_OK


def cmd_oracle(args) -> int:
    s = scenario_mod.parse_scenario(_read_text(args.scenario))
    results = [
        {"method": a.method, "adjust": list(a.adjust),
         "risk_ratio": scenario_mod.oracle_value(s, a)}
        for a in s.analyses
    ]
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
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--treatment", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--adjust", nargs="*", default=[])
    p.add_argument("--interactions", action="store_true")
    p.add_argument("--family", default="binomial", choices=list(FAMILIES))
    p.add_argument("--replicates", type=int)  # default: BootstrapSpec's
    p.add_argument("--bootstrap-seed", type=int)
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
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CausalKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except MemoryError as exc:
        # An input too large to hold, such as a huge sample size.
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
