"""Workload definitions: seeded input generators and the CLI commands of one pass.

Each workload is chosen to exercise one mechanism that a planned optimisation
changes and, on the other workloads, to bypass it:

* ``reproduce``: ``causalkit reproduce all``, the paper's headline task
  (tables 2-8).  Dominated by ``Dataset.aggregate`` on 10^6 raw rows and by
  ``glm.fit`` on raw rows plus about 600 bootstrap fits on collapsed counts,
  so a counts-table core must show up here.
* ``csv_pipeline``: ``simulate`` writes 10^6 rows to CSV, then two
  ``estimate`` commands read the file back.  The only workload that writes and
  re-reads data; both directions are per-row Python loops.
* ``dag_adjust``: ``dag adjust`` and ``dag paths`` on the bundled case-study
  DAG and on 8 seeded random 12-node, 26-edge DAGs.  The only workload that
  runs the exponential subset search and path enumeration; it spends no time
  in ``scm``, ``glm`` or ``estimators``.
* ``oracle_k20``: ``oracle`` on a seeded random 20-node binary SCM.  Every
  enumerated row is already a unique configuration, so collapsing to counts
  cannot shrink the work; a counts-table change must not regress here.  The
  only workload dominated by ``enumerate_population`` and memory.

Input generators use only ``random.Random(seed).random()``, whose sequence
Python guarantees across versions, so one seed gives byte-identical files.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "causalkit" / "data"

CASE_TREATMENT = "childcare"
CASE_OUTCOME = "conduct_school"
CASE_CONFOUNDER = "conduct_entry"
CASE_SELECTION = "weekend_playgroup"
CSV_ROWS = 1_000_000
CSV_REPLICATES = 200

DAG_COUNT = 8
DAG_NODES = 12
DAG_EDGES = 26
SCM_NODES = 20
SCM_MAX_PARENTS = 3
SCM_TREATMENT_INDEX = SCM_NODES // 2

# A command is (operation name, argv for causalkit.cli.main).
Command = Tuple[str, List[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, Path], None]
    commands: Callable[[int, Path], List[Command]]
    # Rounds of the command list in one untraced pass: each command's time is
    # its median over the rounds.
    rounds: int = 1


def import_causalkit(module: str = "cli"):
    """Import ``causalkit.<module>`` from this checkout's ``src``, refusing
    any other copy."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    imported = importlib.import_module(f"causalkit.{module}")
    expected = (SRC / "causalkit").resolve()
    if Path(imported.__file__).resolve().parent != expected:
        raise ImportError(f"causalkit imported from {imported.__file__}, not {expected}")
    return imported


def _randint(r: random.Random, n: int) -> int:
    """Uniform integer in [0, n) from ``random()`` alone."""
    return min(int(r.random() * n), n - 1)


def _choose(r: random.Random, items: list, count: int) -> list:
    """``count`` distinct items by a partial Fisher-Yates shuffle."""
    pool = list(items)
    for i in range(count):
        j = i + _randint(r, len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


# ---------------------------------------------------------------------------
# Random DAGs (dag_adjust)


def base_dag_edges(index: int) -> List[Tuple[int, int]]:
    """Edges of base DAG ``index`` over nodes 0..11 (0..11 is topological)."""
    r = random.Random(f"dag_adjust:base:{index}")
    pairs = [(i, j) for i in range(DAG_NODES) for j in range(i + 1, DAG_NODES)]
    return sorted(_choose(r, pairs, DAG_EDGES))


def random_dag(seed: int, index: int) -> Tuple[str, str, str]:
    """DAG file text, treatment and outcome of random DAG ``index``.

    The seed draws the node names and the order of the lines; the structure
    is base DAG ``index``.  Names keep the base order, so paths and subsets
    are visited in the same order and every seed gives the same amount of
    search work on different inputs.
    """
    r = random.Random(f"dag_adjust:{seed}:{index}")
    names = [f"v{k:02d}" for k in sorted(_choose(r, list(range(100)), DAG_NODES))]
    lines = [f"node {name}" for name in names]
    lines += [f"edge {names[i]} {names[j]}" for i, j in base_dag_edges(index)]
    lines = _choose(r, lines, len(lines))
    return "\n".join(lines) + "\n", names[DAG_NODES // 2], names[-1]


def _dag_inputs(seed: int, workdir: Path) -> None:
    (workdir / "case_study.dag").write_text(
        (DATA / "case_study.dag").read_text(encoding="utf-8"), encoding="utf-8"
    )
    for index in range(DAG_COUNT):
        (workdir / f"random_{index}.dag").write_text(
            random_dag(seed, index)[0], encoding="utf-8"
        )


def _dag_commands(seed: int, workdir: Path) -> List[Command]:
    case = str(workdir / "case_study.dag")
    commands: List[Command] = [
        ("case.adjust", ["dag", "adjust", case]),
        ("case.adjust.forced", ["dag", "adjust", case, "--forced", CASE_SELECTION]),
        ("case.paths", ["dag", "paths", case, "--from", CASE_TREATMENT, "--to", CASE_OUTCOME]),
        ("case.paths.given", ["dag", "paths", case, "--from", CASE_TREATMENT,
                              "--to", CASE_OUTCOME, "--given", CASE_SELECTION]),
    ]
    for index in range(DAG_COUNT):
        path = str(workdir / f"random_{index}.dag")
        _, treatment, outcome = random_dag(seed, index)
        commands.append((f"random_{index}.adjust", ["dag", "adjust", path,
                         "--treatment", treatment, "--outcome", outcome]))
        commands.append((f"random_{index}.paths", ["dag", "paths", path,
                         "--from", treatment, "--to", outcome]))
    return commands


# ---------------------------------------------------------------------------
# Random SCM (oracle_k20)


def scm_name(index: int) -> str:
    return f"x{index:02d}"


SCM_TREATMENT = scm_name(SCM_TREATMENT_INDEX)
SCM_OUTCOME = scm_name(SCM_NODES - 1)


def random_scm(seed: int) -> dict:
    """A 20-node binary SCM as a scenario object.

    Node j has min(j, 3) parents, so the structure's cost is the same for
    every seed; the outcome's parents are the treatment, one of the
    treatment's parents (a confounder) and one other node.  Intercept and
    coefficients are whole hundredths chosen so that every parent
    configuration gives a probability in [0.05, 0.95].
    """
    r = random.Random(f"oracle_k20:{seed}")
    nodes = []
    treatment_parents: list = []
    for j in range(SCM_NODES):
        if j == 0:
            parents = []
        elif j == SCM_NODES - 1:
            confounder = treatment_parents[_randint(r, len(treatment_parents))]
            others = [i for i in range(j) if i not in (SCM_TREATMENT_INDEX, confounder)]
            parents = [SCM_TREATMENT_INDEX, confounder] + _choose(r, others, 1)
        else:
            parents = _choose(r, list(range(j)), min(j, SCM_MAX_PARENTS))
        if j == SCM_TREATMENT_INDEX:
            treatment_parents = parents
        intercept = 5 + _randint(r, 91)
        low = high = intercept
        coefficients = {}
        for parent in sorted(parents):
            c = (5 - low) + _randint(r, (95 - high) - (5 - low) + 1)
            low += min(c, 0)
            high += max(c, 0)
            coefficients[scm_name(parent)] = c / 100
        nodes.append({"name": scm_name(j), "intercept": intercept / 100,
                      "parents": coefficients})
    adjust = sorted(nodes[SCM_TREATMENT_INDEX]["parents"])
    analyses = [
        {"method": "unadjusted", "treatment": SCM_TREATMENT, "outcome": SCM_OUTCOME},
        {"method": "outcome_regression", "treatment": SCM_TREATMENT,
         "outcome": SCM_OUTCOME, "adjust": adjust, "family": "poisson"},
        {"method": "g_computation", "treatment": SCM_TREATMENT,
         "outcome": SCM_OUTCOME, "adjust": adjust},
        {"method": "ipw", "treatment": SCM_TREATMENT, "outcome": SCM_OUTCOME,
         "adjust": adjust},
    ]
    return {"label": f"random k20 SCM, seed {seed}", "nodes": nodes,
            "sample_size": 1000, "seed": seed, "analyses": analyses}


def _oracle_inputs(seed: int, workdir: Path) -> None:
    (workdir / "scm.json").write_text(
        json.dumps(random_scm(seed), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _oracle_commands(seed: int, workdir: Path) -> List[Command]:
    return [("oracle", ["oracle", "--scenario", str(workdir / "scm.json")])]


# ---------------------------------------------------------------------------
# CSV pipeline and reproduce


def _csv_inputs(seed: int, workdir: Path) -> None:
    (workdir / "case_study.json").write_text(
        (DATA / "case_study.json").read_text(encoding="utf-8"), encoding="utf-8"
    )


def _csv_commands(seed: int, workdir: Path) -> List[Command]:
    data = str(workdir / "data.csv")
    common = ["--data", data, "--treatment", CASE_TREATMENT, "--outcome", CASE_OUTCOME,
              "--adjust", CASE_CONFOUNDER, "--format", "json"]
    return [
        ("simulate", ["simulate", "--scenario", str(workdir / "case_study.json"),
                      "--seed", str(seed), "--out", data]),
        ("estimate.outcome_regression",
         ["estimate", "--method", "outcome_regression", "--family", "poisson", *common]),
        ("estimate.ipw", ["estimate", "--method", "ipw", "--replicates", str(CSV_REPLICATES),
                          "--bootstrap-seed", str(seed), *common]),
    ]


def _no_inputs(seed: int, workdir: Path) -> None:
    pass


def _reproduce_commands(seed: int, workdir: Path) -> List[Command]:
    return [("reproduce", ["reproduce", "all"])]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("reproduce",
                 "paper's headline task; aggregate and raw-row glm.fit dominate, "
                 "so a counts-table core shows here",
                 _no_inputs, _reproduce_commands),
        Workload("csv_pipeline",
                 "only workload that writes 10^6 rows to CSV and reads them back; "
                 "shows costs moved into sample or CSV loading",
                 _csv_inputs, _csv_commands),
        Workload("dag_adjust",
                 "only workload running the exponential adjustment search and path "
                 "enumeration; no scm, glm or estimators work",
                 _dag_inputs, _dag_commands,
                 # On a shared host whose speed drifts over tens of seconds,
                 # one 9 s round of these short pure-Python commands spread
                 # up to 0.27 across runs.  Each command's median over three
                 # interleaved rounds, 27 s in all, spreads far less.
                 rounds=3),
        Workload("oracle_k20",
                 "2^20 enumerated rows are all distinct, so counts cannot shrink the "
                 "work; enumerate_population and memory dominate",
                 _oracle_inputs, _oracle_commands),
    )
}
