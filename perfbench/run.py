"""causalkit benchmark: one workload, timed through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; causalkit is imported from its
``src`` directory, never from an installed copy.  Every pass of the workload
runs in a fresh single-threaded Python process (``worker.py``), which calls
``causalkit.cli.main(argv)`` once per command with stdout captured.  numpy's
OpenBLAS keeps its default thread count.

``--trace 0`` measures with tracing off: passes repeat until ``--seconds`` of
commands have run, and the run reports the median pass.  A pass runs the
workload's command list ``rounds`` times in one process; a command's time in
the pass is its median over the rounds.
``--trace 1`` runs one untraced and one traced pass of one round each and
reports per-layer metrics plus the tracing overhead (traced minus untraced
wall time).

Set-up (interpreter start, imports, writing the seeded inputs) is timed in
extra set-up-only processes and in every pass process; ``setup_s`` is their
median.  Every pass's outputs go through the workload's correctness gate.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORK_ROOT = workloads.ROOT / ".perfbench_work"
SETUP_ONLY_SAMPLES = 5
RUN_DEADLINE_S = 170.0
MAX_PASSES = 20

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"


class BenchError(Exception):
    pass


def run_worker(name: str, seed: int, workdir: Path, mode: str, deadline: float,
               rounds: int = 1) -> dict:
    """Start one worker process and return its result, with ``setup_s``
    measured from just before the process was started."""
    result_path = workdir.with_suffix(".json")
    # A fixed hash seed keeps set and dict iteration order, and with it the
    # amount of work, the same in every pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(workdir),
            str(result_path), mode, str(rounds)]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {name} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {name} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_end"] - start
    return result


def remove_scratch(base: Path) -> None:
    """Delete ``base`` and, once no other run uses it, the scratch root."""
    shutil.rmtree(base, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def command_times(result: dict) -> dict:
    """Each command's median time over the rounds of one pass, by operation."""
    rounds: dict = {}
    for cmd in result["commands"]:
        rounds.setdefault(cmd["op"], []).append(cmd["s"])
    return {op: statistics.median(times) for op, times in rounds.items()}


def pass_wall(result: dict) -> float:
    return sum(command_times(result).values())


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "src_sha256": _tree_digest(workloads.SRC),
    }
    return env


def _blas_threads(numpy) -> str:
    import ctypes
    import glob

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (workloads.ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(name: str, seed: int, seconds: int, trace: bool, base: Path) -> dict:
    import gates

    deadline = time.monotonic() + RUN_DEADLINE_S
    digests = gates.load_digests()
    setups = [run_worker(name, seed, base / f"setup{i}", "setup", deadline)["setup_s"]
              for i in range(SETUP_ONLY_SAMPLES)]
    passes: list = []
    outcomes: list = []

    def one_pass(mode: str, rounds: int = 1) -> None:
        workdir = base / f"pass{len(passes)}"
        result = run_worker(name, seed, workdir, mode, deadline, rounds)
        setups.append(result["setup_s"])
        outcomes.extend(gates.check(name, seed, workdir, result["commands"], digests))
        shutil.rmtree(workdir, ignore_errors=True)
        passes.append(result)

    if trace:
        one_pass("pass")
        one_pass("traced")
        traced = passes.pop()
    else:
        traced = None
        rounds = workloads.WORKLOADS[name].rounds
        while not passes or (sum(map(pass_wall, passes)) < seconds
                             and len(passes) < MAX_PASSES):
            one_pass("pass", rounds)
    return {"setups": setups, "passes": passes, "traced": traced, "outcomes": outcomes}


def end_to_end(run: dict) -> dict:
    """Medians over the untraced passes and all set-up samples."""
    passes = run["passes"]
    return {
        "setup_s": statistics.median(run["setups"]),
        "wall_s": statistics.median([pass_wall(p) for p in passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
    }


def workload_only(name: str, run: dict) -> dict:
    """Metrics reported in the text lines only: per-command-group times and
    the failure fraction."""
    extra = {}
    if name == "csv_pipeline":
        times = [command_times(p) for p in run["passes"]]
        extra["simulate_s"] = statistics.median([t["simulate"] for t in times])
        extra["estimate_s"] = statistics.median([
            sum(s for op, s in t.items() if op.startswith("estimate")) for t in times])
    outcomes = run["outcomes"]
    extra["fail_frac"] = sum(not ok for _, ok, _ in outcomes) / len(outcomes)
    return extra


def per_layer(run: dict) -> tuple:
    import tracer

    untraced, traced = run["passes"][0], run["traced"]
    layers = tracer.layer_metrics(traced["trace"])
    layers["trace.wall_s"] = pass_wall(traced)
    layers["trace.untraced_wall_s"] = pass_wall(untraced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    return layers, traced["trace"]


def print_report(name, seed, seconds, trace, run, env, shown, layer_all=None, spans=None):
    print(f"# causalkit benchmark: workload={name} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print(f"# why: {workloads.WORKLOADS[name].why}")
    for key, value in env.items():
        print(f"# env {key}: {value}")
    print(f"# untraced passes: {len(run['passes'])}, set-up samples: {len(run['setups'])}")
    labelled = [(f"pass {i}", p) for i, p in enumerate(run["passes"])]
    if run["traced"]:
        labelled.append(("traced pass", run["traced"]))
    for label, p in labelled:
        print(f"# {label}: wall {pass_wall(p):.3f} s, peak rss {p['peak_rss_mb']:.1f} MB")
        for round_ in sorted({c["round"] for c in p["commands"]}):
            ops = ", ".join(f"{c['op']}={c['s']:.3f}s" for c in p["commands"]
                            if c["round"] == round_)
            print(f"#   round {round_}: {ops}")
    for op, ok, reason in run["outcomes"]:
        if not ok:
            print(f"# FAILED {op}: {reason}")
    for key, (value, unit) in shown.items():
        print(f"{key:40s} {value:.6g} {unit}")
    if layer_all is not None:
        import tracer

        print("# per-layer metrics (traced pass); expected mover in brackets")
        for key, value in layer_all.items():
            print(f"{key:40s} {value:.6g}  [{tracer.expected_mover(key)}]")
        print("# spans: name calls total_s self_s")
        for span, row in spans["spans"].items():
            print(f"span {span:34s} {row['calls']:9d} {row['s']:10.4f} {row['self_s']:10.4f}")
        print("# span links: parent -> child calls")
        for parent, child, count in spans["links"]:
            print(f"link {parent} -> {child} {count}")
        for key, count in sorted(spans["counts"].items()):
            if ".errors." in key:
                print(f"error {key} {count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "causalkit" / "__init__.py").is_file():
        print(f"error: no causalkit sources under {workloads.SRC}", file=sys.stderr)
        return 2

    base = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    base.mkdir(parents=True, exist_ok=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), base)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_scratch(base)

    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    env = environment()
    e2e = end_to_end(run)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units.update(simulate_s="s", estimate_s="s", fail_frac="ratio")
    shown = {k: (v, units[k]) for k, v in {**e2e, **workload_only(args.workload, run)}.items()}
    if args.trace:
        layers, spans = per_layer(run)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
        print_report(args.workload, args.seed, args.seconds, True, run, env, shown,
                     layers, spans)
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
        print_report(args.workload, args.seed, args.seconds, False, run, env, shown)
    failed = sum(not ok for _, ok, _ in run["outcomes"])
    print(json.dumps({"correct": failed == 0, "attempted": len(run["outcomes"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
