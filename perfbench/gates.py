"""Correctness gates, one per workload.

Each gate returns one ``(operation, ok, reason)`` per CLI command of a pass.
An operation fails on an unexpected exit code, a ``FAIL`` row, or an output
that fails its check.  Checks are independent of the code under test where
possible: ``networkx`` re-derives the adjustment sets and path listings of
the random DAGs, and a small numpy enumeration plus Newton fits re-derive the
oracle values of the random SCM.  ``digests.json`` pins the exact text the
seed commit printed for the seed-independent outputs and, for the seeds
recorded there, for the seeded ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import workloads

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
CSV_BAND = 0.02  # the table2 band: |estimate - 1| <= 0.02
ORACLE_RTOL = 1e-6

Outcome = Tuple[str, bool, str]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _digest_ok(expected, text: str) -> Tuple[bool, str]:
    if expected is None:
        return True, ""
    if sha256(text) != expected:
        return False, "output differs from its seed-commit digest"
    return True, ""


# ---------------------------------------------------------------------------
# reproduce


def check_reproduce(seed: int, workdir: Path, commands: List[dict], digests: dict) -> List[Outcome]:
    out = []
    for cmd in commands:
        text = cmd["stdout"]
        if cmd["exit"] != 0:
            out.append((cmd["op"], False, f"exit code {cmd['exit']}"))
        elif "[FAIL]" in text or not text.endswith("ALL PASS\n"):
            out.append((cmd["op"], False, "FAIL row or missing ALL PASS"))
        else:
            ok, reason = _digest_ok(digests["reproduce"], text)
            out.append((cmd["op"], ok, reason))
    return out


# ---------------------------------------------------------------------------
# csv_pipeline


def _csv_oracles(workdir: Path) -> Dict[str, float]:
    estimators = workloads.import_causalkit("estimators")
    scenario = workloads.import_causalkit("scenario")
    s = scenario.parse_scenario((workdir / "case_study.json").read_text(encoding="utf-8"))
    adjust = (workloads.CASE_CONFOUNDER,)
    t, y = workloads.CASE_TREATMENT, workloads.CASE_OUTCOME
    return {
        "estimate.outcome_regression": estimators.population_estimand(
            s.model, "outcome_regression", t, y, adjust=adjust, family="poisson"),
        "estimate.ipw": estimators.population_estimand(s.model, "ipw", t, y, adjust=adjust),
    }


def _csv_shape(path: Path) -> Tuple[str, int]:
    with path.open("rb") as fh:
        header = fh.readline().decode("utf-8").strip()
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return header, rows


def check_csv_pipeline(seed: int, workdir: Path, commands: List[dict], digests: dict) -> List[Outcome]:
    model_nodes = [n["name"] for n in json.loads(
        (workdir / "case_study.json").read_text(encoding="utf-8"))["nodes"]]
    oracles = _csv_oracles(workdir)
    out = []
    for cmd in commands:
        op = cmd["op"]
        if cmd["exit"] != 0:
            out.append((op, False, f"exit code {cmd['exit']}"))
        elif op == "simulate":
            header, rows = _csv_shape(workdir / "data.csv")
            if header != ",".join(model_nodes) or rows != workloads.CSV_ROWS:
                out.append((op, False, f"CSV has {rows} data rows, header {header!r}"))
            else:
                out.append((op, True, ""))
        else:
            try:
                rr = json.loads(cmd["stdout"])["rows"][0]["risk_ratio"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                out.append((op, False, f"unreadable output: {exc!r}"))
                continue
            gap = abs(rr - oracles[op])
            out.append((op, gap <= CSV_BAND,
                        "" if gap <= CSV_BAND else f"|{rr} - oracle {oracles[op]}| > {CSV_BAND}"))
    return out


# ---------------------------------------------------------------------------
# dag_adjust: networkx re-derivation


def _read_dag(path: Path):
    import networkx as nx

    g = nx.DiGraph()
    for line in path.read_text(encoding="utf-8").splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "edge":
            g.add_edge(tokens[1], tokens[2])
        elif tokens:
            g.add_node(tokens[1])
    return g


def _valid_backdoor(nx, g, proper, t, y, z, forbidden) -> bool:
    return not (z & forbidden) and nx.is_d_separator(proper, {t}, {y}, set(z))


def expected_adjust(g, t: str, y: str) -> Tuple[int, str]:
    """Exit code and text of ``dag adjust`` without forced nodes.

    A set is valid when it holds no descendant of the treatment and
    d-separates treatment and outcome once the treatment's out-edges are
    removed; it is minimal when no valid set is a proper subset of it, and
    then dropping any single member must break it.
    """
    import networkx as nx

    forbidden = nx.descendants(g, t)
    proper = g.copy()
    proper.remove_edges_from(list(g.out_edges(t)))
    candidates = sorted(n for n in g.nodes if n not in (t, y))
    valid = [
        frozenset(c)
        for size in range(len(candidates) + 1)
        for c in itertools.combinations(candidates, size)
        if _valid_backdoor(nx, g, proper, t, y, frozenset(c), forbidden)
    ]
    minimal = [z for z in valid if not any(v < z for v in valid)]
    for z in minimal:
        for member in z:
            if _valid_backdoor(nx, g, proper, t, y, z - {member}, forbidden):
                raise AssertionError(f"{sorted(z)} minus {member} is still valid")
    if not minimal:
        return 1, "no valid adjustment set\n"
    minimal.sort(key=lambda s: (len(s), sorted(s)))
    return 0, "".join("{" + ", ".join(sorted(z)) + "}\n" for z in minimal)


def expected_paths(g, source: str, target: str) -> str:
    """Text of ``dag paths`` with nothing given: every simple path of the
    skeleton, OPEN iff it has no collider, with its kind."""
    import networkx as nx

    lines = []
    for nodes in sorted(nx.all_simple_paths(g.to_undirected(as_view=True), source, target)):
        forward = [g.has_edge(a, b) for a, b in zip(nodes, nodes[1:])]
        collider = any(f and not b for f, b in zip(forward, forward[1:]))
        kind = "back-door" if not forward[0] else ("causal" if all(forward) else "non-causal")
        text = nodes[0] + "".join(
            (" -> " if f else " <- ") + n for f, n in zip(forward, nodes[1:]))
        lines.append(f"{'CLOSED' if collider else 'OPEN':6s} {kind:9s} {text}\n")
    return "".join(lines) or "no paths\n"


def check_dag_adjust(seed: int, workdir: Path, commands: List[dict], digests: dict) -> List[Outcome]:
    pinned = digests["dag_adjust"]
    by_seed = pinned["random"].get(str(seed), {})
    case = _read_dag(workdir / "case_study.dag")

    def derive(op: str) -> tuple:
        """Expected exit code, expected text (None: digest only) and digest."""
        if op.startswith("case."):
            code, expected = 0, None
            if op == "case.adjust":
                code, expected = expected_adjust(case, workloads.CASE_TREATMENT,
                                                 workloads.CASE_OUTCOME)
            return code, expected, pinned["case"][op]
        stem = op.split(".")[0]
        g = _read_dag(workdir / f"{stem}.dag")
        _, t, y = workloads.random_dag(seed, int(stem.split("_")[1]))
        if op.endswith(".adjust"):
            code, expected = expected_adjust(g, t, y)
        else:
            code, expected = 0, expected_paths(g, t, y)
        return code, expected, by_seed.get(op)

    derived: dict = {}  # every round of a pass repeats the same commands
    out = []
    for cmd in commands:
        op, text = cmd["op"], cmd["stdout"]
        if op not in derived:
            derived[op] = derive(op)
        code, expected, digest = derived[op]
        if cmd["exit"] != code:
            out.append((op, False, f"exit code {cmd['exit']}, expected {code}"))
        elif expected is not None and text != expected:
            out.append((op, False, "output differs from the networkx re-derivation"))
        else:
            ok, reason = _digest_ok(digest, text)
            out.append((op, ok, reason))
    return out


# ---------------------------------------------------------------------------
# oracle_k20: enumeration and Newton fits on the collapsed margin


def _margin(spec: dict, columns: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Exact joint probability of every configuration of ``columns``:
    (configs as a 0/1 matrix, probabilities)."""
    nodes = spec["nodes"]
    names = [n["name"] for n in nodes]
    k = len(names)
    index = np.arange(2 ** k, dtype=np.uint32)
    bit = {name: ((index >> (k - 1 - j)) & 1).astype(np.uint8) for j, name in enumerate(names)}
    prob = np.ones(2 ** k)
    for node in nodes:
        p = np.full(2 ** k, node["intercept"])
        for parent, coef in node["parents"].items():
            p += coef * bit[parent]
        prob *= np.where(bit[node["name"]] == 1, p, 1.0 - p)
    key = np.zeros(2 ** k, dtype=np.int64)
    for name in columns:
        key = key * 2 + bit[name]
    weights = np.bincount(key, weights=prob, minlength=2 ** len(columns))
    configs = (np.arange(2 ** len(columns))[:, None] >> np.arange(len(columns) - 1, -1, -1)) & 1
    return configs.astype(np.float64), weights


def _newton(X, y, w, link: str) -> np.ndarray:
    """Weighted MLE for a logistic (``logit``) or poisson/log (``log``) model."""
    beta = np.zeros(X.shape[1])
    for _ in range(200):
        eta = X @ beta
        mu = 1.0 / (1.0 + np.exp(-eta)) if link == "logit" else np.exp(eta)
        curvature = mu * (1.0 - mu) if link == "logit" else mu
        step = np.linalg.solve((X * (w * curvature)[:, None]).T @ X, X.T @ (w * (y - mu)))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13:
            break
    return beta


def expected_oracle(spec: dict) -> List[float]:
    """Exact unadjusted, poisson outcome-regression, G-computation and IPW
    population risk ratios for the analyses ``random_scm`` writes."""
    analyses = spec["analyses"]
    t, y = analyses[0]["treatment"], analyses[0]["outcome"]
    adjust = analyses[1]["adjust"]
    configs, w = _margin(spec, [t, y, *adjust])
    T, Y, Z = configs[:, 0], configs[:, 1], configs[:, 2:]
    ones = np.ones_like(T)

    unadjusted = (w @ (T * Y) / (w @ T)) / (w @ ((1 - T) * Y) / (w @ (1 - T)))
    X = np.column_stack([ones, T, Z])
    poisson = math.exp(_newton(X, Y, w, "log")[1])
    beta = _newton(X, Y, w, "logit")

    def mean_under(value):
        eta = np.column_stack([ones, value * ones, Z]) @ beta
        return w @ (1.0 / (1.0 + np.exp(-eta))) / w.sum()

    g_comp = mean_under(1.0) / mean_under(0.0)
    gamma = _newton(np.column_stack([ones, Z]), T, w, "logit")
    p = 1.0 / (1.0 + np.exp(-(np.column_stack([ones, Z]) @ gamma)))
    w1, w0 = w * T / p, w * (1 - T) / (1 - p)
    ipw = (w1 @ Y / w1.sum()) / (w0 @ Y / w0.sum())
    return [float(unadjusted), poisson, float(g_comp), float(ipw)]


def check_oracle_k20(seed: int, workdir: Path, commands: List[dict], digests: dict) -> List[Outcome]:
    spec = json.loads((workdir / "scm.json").read_text(encoding="utf-8"))
    expected = expected_oracle(spec)
    digest = digests["oracle_k20"].get(str(seed))
    out = []
    for cmd in commands:
        if cmd["exit"] != 0:
            out.append((cmd["op"], False, f"exit code {cmd['exit']}"))
            continue
        try:
            printed = [float(line.split()[-1]) for line in cmd["stdout"].splitlines()]
        except (ValueError, IndexError) as exc:
            out.append((cmd["op"], False, f"unreadable output: {exc!r}"))
            continue
        if len(printed) != len(expected) or not all(
            math.isclose(a, b, rel_tol=ORACLE_RTOL) for a, b in zip(printed, expected)
        ):
            out.append((cmd["op"], False, f"printed {printed}, re-derived {expected}"))
        else:
            ok, reason = _digest_ok(digest, cmd["stdout"])
            out.append((cmd["op"], ok, reason))
    return out


GATES = {
    "reproduce": check_reproduce,
    "csv_pipeline": check_csv_pipeline,
    "dag_adjust": check_dag_adjust,
    "oracle_k20": check_oracle_k20,
}


def check(name: str, seed: int, workdir: Path, commands: List[dict], digests: dict) -> List[Outcome]:
    return GATES[name](seed, workdir, commands, digests)
