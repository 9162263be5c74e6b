"""Set-up time of one fresh process: import hqcsim.cli, then load the input.

    python3 perfbench/setup_probe.py SRC_DIR circuit|state PATH

For a circuit, loading means parsing it and preparing its input state; for a
state file, reading it. Prints the elapsed seconds as the only output line.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import hqcsim.cli  # noqa: E402,F401  (the import is part of what is timed)
from hqcsim import circuits, io  # noqa: E402

kind, path = sys.argv[2], sys.argv[3]
if kind == "circuit":
    with open(path) as fh:
        spec = circuits.parse_circuit(fh.read())
    circuits.prepare_input(spec.prep, spec.modes)
else:
    io.load_state(path)
print(repr(time.perf_counter() - t0))
