"""The rig runs end to end and prints every metric ``BENCHMARK.json`` names.

``--smoke`` drives about 50 transactions per workload through every phase
(set-up, timed run, gates, traced run, micro loops, simulator) and asserts
nothing about time, so this is safe for tier-1.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_prints_every_metric_of_the_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    done = subprocess.run([sys.executable, *contract["command"][1:], "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(document["stamp"]) >= {"git_sha", "python", "cpus",
                                      "load_1min", "noisy"}
    expected = {metric["name"]: metric["unit"]
                for group in ("end_to_end", "per_layer")
                for metric in contract[group]}
    assert ({workload["name"] for workload in contract["workloads"]}
            == set(document["workloads"]))
    for name, metrics in document["workloads"].items():
        assert set(metrics) == set(expected), name
        for metric, entry in metrics.items():
            assert entry["unit"] == expected[metric], (name, metric)
            assert math.isfinite(entry["median"]), (name, metric)
            assert name in done.stdout and metric in done.stdout
