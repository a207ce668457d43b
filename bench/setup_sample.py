"""One set-up sample in a fresh interpreter.

    python3 bench/setup_sample.py WORKLOAD SEED WORKDIR

Imports snul from `src/` next to this directory and generates the workload's
inputs into WORKDIR, as run.py does before its first job.  Prints one JSON
object: the seconds this took, from before the first import of snul to the
last input written, and the number of modules it loaded.  A fresh
interpreter means every module snul needs, in the standard library or not,
is imported in every sample.
"""
import os
import sys
import time

t0 = time.perf_counter()
loaded = len(sys.modules)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import snul.cli  # noqa: E402,F401

import workloads  # noqa: E402
from pathlib import Path  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
seconds = time.perf_counter() - t0
print('{"setup_s": %r, "modules": %d}' % (seconds, len(sys.modules) - loaded))
