"""One fresh, single-threaded Python process: set up a workload, optionally
run one pass of its CLI commands, and write a JSON result file.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR RESULT {setup|pass|traced} [ROUNDS]

Set-up imports causalkit from the checkout's ``src`` and writes the seeded
input files; its end is reported on the system-wide monotonic clock so the
parent can time set-up from before it started this process.  A pass runs
each command through ``causalkit.cli.main(argv)`` with stdout and stderr
captured, and repeats the whole command list ROUNDS times (default 1).
Correctness is checked by the parent, not here.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a failed run
            code = "exception"
            err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` would also count the parent's: Linux carries the high-water
    mark of the address space that exec replaces over to the new program, and
    the parent grows as it keeps the outputs of earlier passes.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    name, seed, workdir, result_path, mode = sys.argv[1:6]
    seed = int(seed)
    rounds = int(sys.argv[6]) if len(sys.argv) > 6 else 1
    workdir = Path(workdir)
    workload = workloads.WORKLOADS[name]

    cli = workloads.import_causalkit("cli")
    workdir.mkdir(parents=True, exist_ok=True)
    workload.make_inputs(seed, workdir)
    result = {"setup_end": time.monotonic()}

    if mode != "setup":
        tracer = None
        main_fn = cli.main
        if mode == "traced":
            import tracer as tracing

            tracer = tracing.Tracer()
            main_fn = tracing.install(tracer)
        commands = []
        for round_ in range(rounds):
            for op, argv in workload.commands(seed, workdir):
                code, elapsed, out, err = _run(main_fn, argv)
                commands.append({"op": op, "round": round_, "argv": argv, "exit": code,
                                 "s": elapsed, "stdout": out, "stderr": err})
        result["commands"] = commands
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            result["trace"] = tracer.report()

    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
