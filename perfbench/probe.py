"""Set-up probe: a fresh interpreter imports pamod, builds one workload's
inputs, then prints the CLOCK_MONOTONIC time at which it was ready.

    python3 perfbench/probe.py <workload> <seed> <tmp dir>

``run.py`` starts it several times and reads ``setup_s`` as that time
minus the moment it started the process, so interpreter start-up counts.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pamod  # noqa: E402,F401  (the import is what is measured)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.monotonic()), flush=True)
