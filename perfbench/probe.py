"""Set-up probe: start the way a command-line call starts (interpreter,
``import stateattack``, workload generation) and print the clock at the
point where the first parse would begin.

    PYTHONPATH=src:perfbench python3 perfbench/probe.py <workload> <seed>

``time.perf_counter`` reads the system-wide monotonic clock on Linux, so the
parent subtracts the moment it started this process.
"""

import sys
import time

import stateattack  # noqa: F401  (its import is part of set-up)
from workloads import generate

generate(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter()))
