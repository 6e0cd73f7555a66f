"""Time one cold set-up of the program in this fresh interpreter.

    python3 bench/setup_probe.py COMMAND DELTA SPACE.json [SPACE2.json]

Set-up is what every CLI call pays before its command runs: ``import
prodhardy``, ``load_space`` of each document (which computes the space
constants a0, cmu and omega), then the dyadic systems and Haar bases --
a ``ProductSpace`` for ``decompose`` and ``certify``, one system and basis for
``build``.  Prints the seconds it took.  Nothing is imported before the clock
starts, so NumPy's import is part of the time.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import prodhardy  # noqa: E402

command, delta, *docs = sys.argv[1:]
spaces = [prodhardy.load_space(Path(doc)) for doc in docs]
if command == "build":
    prodhardy.build_haar(prodhardy.build_system(spaces[0], float(delta)))
else:
    prodhardy.ProductSpace(spaces[0], spaces[-1], delta=float(delta))
print(time.perf_counter() - start)
