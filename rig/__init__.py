"""The measurement rig: deployment-shape workloads measured from outside.

``python3 -m rig`` drives ``src/repro`` only through its public API, from
one process with two closed-loop clients, and prints end-to-end metrics
(throughput, exact client-side latency percentiles, set-up time, memory)
plus a per-layer time budget.  See ``rig/README.md`` for the metric list
and how to read the budget table; ``BENCHMARK.json`` fixes the bounds.
"""

import sys
from pathlib import Path

#: The checkout the rig measures: ``rig/`` sits beside ``src/``.
REPO_ROOT = Path(__file__).resolve().parent.parent

# The benchmark command names no path outside ``rig/``, so the package finds
# the program under test itself.  Spawned servers and workers inherit the
# path through ``repro``'s own spawn helpers.
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
