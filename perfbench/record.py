"""Record the reference outputs every benchmark pass is checked against.

    python3 perfbench/record.py

Runs one untimed pass of every workload for each of seeds 0-39 and
rewrites ``perfbench/reference.json`` with the outputs.  Recording refuses a pass that breaks a seed-independent
invariant.  The references were recorded before any optimisation, so a
faster pamod must reproduce them bit for bit; re-record only when an
output change is intended, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
SEEDS = range(40)


def main() -> int:
    table = {"workloads": {}}
    tmp = HERE.parent / ".perfbench_tmp" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                wl = workloads.build(name, seed, tmp)
                result = workloads.run_pass(wl)
                problems = workloads.check(wl, result, None)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                table["workloads"].setdefault(name, {})[str(seed)] = result.outputs
                print(f"{name} seed {seed}: {result.seconds:.2f} s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
