"""Record the reference output digests in ``digests.json``.

    python3 perfbench/record_digests.py

Run at the commit whose outputs are the reference (the ROADMAP requires
``reproduce all`` to stay byte-identical).  It records the sha256 of the
``reproduce all`` output, of the four case-study ``dag`` outputs, and of the
random-DAG and ``oracle`` outputs of each seed in ``SEEDS``.  Every output must
first pass its workload's gate without digests, so a wrong output is never
pinned.
"""

from __future__ import annotations

import json
import os
import sys
import time

import gates
import run

UNPINNED = {"reproduce": None, "oracle_k20": {},
            "dag_adjust": {"case": {op: None for op in ("case.adjust", "case.adjust.forced",
                                                        "case.paths", "case.paths.given")},
                           "random": {}}}


SEEDS = range(16)


def checked_pass(name: str, seed: int, base) -> list:
    workdir = base / f"{name}-{seed}"
    result = run.run_worker(name, seed, workdir, "pass", time.monotonic() + run.RUN_DEADLINE_S)
    bad = [o for o in gates.check(name, seed, workdir, result["commands"], UNPINNED) if not o[1]]
    if bad:
        raise SystemExit(f"{name} seed {seed} fails its gate: {bad}")
    return result["commands"]


def main() -> int:
    base = run.WORK_ROOT / f"record-{os.getpid()}"
    digests = json.loads(json.dumps(UNPINNED))
    try:
        digests["reproduce"] = gates.sha256(checked_pass("reproduce", 0, base)[0]["stdout"])
        for seed in SEEDS:
            commands = checked_pass("dag_adjust", seed, base)
            for cmd in commands:
                digest = gates.sha256(cmd["stdout"])
                if cmd["op"].startswith("case."):
                    digests["dag_adjust"]["case"][cmd["op"]] = digest
                else:
                    digests["dag_adjust"]["random"].setdefault(str(seed), {})[cmd["op"]] = digest
            oracle = checked_pass("oracle_k20", seed, base)[0]["stdout"]
            digests["oracle_k20"][str(seed)] = gates.sha256(oracle)
            print(f"seed {seed} recorded", flush=True)
    finally:
        run.remove_scratch(base)
    gates.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
