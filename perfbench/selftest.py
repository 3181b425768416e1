"""Self-test of the correctness gates: no gate passes vacuously.

    python3 perfbench/selftest.py

Runs one untraced pass of each workload, checks that its real outputs pass
the gate, then corrupts them one way at a time (a flipped digit, a dropped
set, a dropped CSV row, a FAIL row) and checks that the gate rejects every
corruption.  Exits 1 if a gate fails a real output or passes a corrupted one.

``SEED`` has no recorded digests, so the random-DAG and oracle corruptions
must be caught by the independent re-derivations.
"""

from __future__ import annotations

import copy
import os
import re
import sys
import time

import gates
import run
import workloads

SEED = 1000


def flip_digit(text: str, pattern: str) -> str:
    """Change the first digit after the first match of ``pattern``."""
    match = re.search(pattern, text)
    i = match.end()
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _edit(op: str, change):
    def corrupt(commands, workdir):
        for cmd in commands:
            if cmd["op"] == op:
                cmd["stdout"] = change(cmd["stdout"])
        return commands
    return corrupt


def _drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def _drop_csv_row(commands, workdir):
    path = workdir / "data.csv"
    data = path.read_bytes()
    path.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 1])
    return commands


def _largest(commands, suffix):
    """The operation with the longest output among those ending in ``suffix``."""
    return max((c for c in commands if c["op"].endswith(suffix)),
               key=lambda c: len(c["stdout"].splitlines()))["op"]


def corruptions(name: str, commands: list):
    if name == "reproduce":
        return [
            ("flipped digit", _edit("reproduce", lambda t: flip_digit(t, r"estimate "))),
            ("FAIL row", _edit("reproduce", lambda t: t.replace("[PASS]", "[FAIL]", 1))),
        ]
    if name == "csv_pipeline":
        return [
            ("flipped digit", _edit("estimate.ipw", lambda t: flip_digit(t, r'"risk_ratio": \d\.'))),
            ("dropped CSV row", _drop_csv_row),
        ]
    if name == "dag_adjust":
        return [
            ("dropped set", _edit(_largest(commands, ".adjust"), _drop_last_line)),
            ("flipped digit", _edit(_largest(commands, ".paths"), lambda t: flip_digit(t, r"v"))),
            ("dropped case path", _edit("case.paths", _drop_last_line)),
        ]
    return [
        ("flipped digit", _edit("oracle", lambda t: flip_digit(t, r"g_computation .* \d\.\d\d"))),
    ]


def main() -> int:
    digests = gates.load_digests()
    base = run.WORK_ROOT / f"selftest-{os.getpid()}"
    ok = True
    try:
        for name in sorted(workloads.WORKLOADS):
            workdir = base / name
            result = run.run_worker(name, SEED, workdir, "pass",
                                    time.monotonic() + run.RUN_DEADLINE_S)
            real = gates.check(name, SEED, workdir, result["commands"], digests)
            bad = [o for o in real if not o[1]]
            print(f"{name}: real outputs {'pass' if not bad else 'FAIL ' + str(bad)}")
            ok &= not bad
            for label, corrupt in corruptions(name, result["commands"]):
                commands = corrupt(copy.deepcopy(result["commands"]), workdir)
                outcomes = gates.check(name, SEED, workdir, commands, digests)
                rejected = [f"{op}: {reason}" for op, passed, reason in outcomes if not passed]
                print(f"{name}: {label}: {'rejected' if rejected else 'NOT REJECTED'}"
                      + (f" ({rejected[0]})" if rejected else ""))
                ok &= bool(rejected)
    finally:
        run.remove_scratch(base)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
