"""``python3 -m rig``: run the benchmark and print every metric by name.

One workload with ``--trace`` given is the form ``BENCHMARK.json``'s driver
uses: the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` (or with ``--repeat``) every run happens in a child process
of its own, so peak memory and process state never carry from one run to
the next, and the last line is the summary document.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from rig import REPO_ROOT

#: Scratch space inside the checkout: WAL directories and the Chrome trace.
WORK_ROOT = REPO_ROOT / ".rig_work"
#: The driver's last line carries numbers only; a budget line whose targets
#: no longer exist (``null`` in every other output) is written as this.
MISSING = -1.0


def contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric lists, bounds and run length."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def stamp() -> dict[str, Any]:
    """Where and when a document was measured."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    load = os.getloadavg()[0]
    cpus = os.cpu_count() or 1
    return {"git_sha": sha, "python": platform.python_version(),
            "cpus": cpus, "load_1min": round(load, 2),
            "noisy": load > cpus}


def _format(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def print_result(result: dict[str, Any], units: dict[str, str]) -> None:
    """One workload's metrics, by name, with units."""
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['clients']} closed-loop clients, "
          f"flush policy: {result['flush_policy']}; rig on CPU "
          f"{result['cpus']['rig']}, spawned processes on CPU "
          f"{result['cpus']['spawned']})")
    print(f"   {result['why']}")
    samples = result["per_layer"].get("client.samples")
    for group in ("end_to_end", "per_layer"):
        for name, value in result[group].items():
            note = ""
            if samples is not None and name in ("txn_p50_ms", "txn_p95_ms",
                                                "client.txn_p99_ms"):
                note = f"  (n={int(samples)})"
            print(f"   {name:<40} {_format(value):>14} {units[name]}{note}")
    print(f"   attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for problem in result["problems"]:
        print(f"   GATE FAILED: {problem}")
    if result["notes"]:
        print(f"   notes: {json.dumps(result['notes'])}")


def driver_line(result: dict[str, Any], units: dict[str, str]) -> str:
    """The contract's last line for one run."""
    metrics = {**result["end_to_end"], **result["per_layer"]}
    return json.dumps({
        "correct": result["correct"], "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {name: {"value": MISSING if value is None else value,
                           "unit": units[name]}
                    for name, value in metrics.items()}})


def run_children(arguments: argparse.Namespace, names: Sequence[str],
                 units: dict[str, str]) -> int:
    """Every ``(repeat, workload)`` in a child process; print the summary."""
    bounds = {metric["name"]: metric["bound"]
              for metric in contract()["end_to_end"]}
    document: dict[str, Any] = {"stamp": stamp(), "seed": arguments.seed,
                                "repeat": arguments.repeat, "workloads": {}}
    print(f"stamp: {json.dumps(document['stamp'])}")
    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    status = 0

    def child(job: tuple[int, str]) -> tuple[int, list[str]]:
        repeat, name = job
        command = [sys.executable, "-m", "rig", "--workload", name,
                   "--seed", str(arguments.seed + repeat),
                   "--seconds", str(arguments.seconds)]
        if arguments.trace is not None:
            command += ["--trace", str(arguments.trace)]
        if arguments.smoke:
            command.append("--smoke")
        done = subprocess.run(command, cwd=REPO_ROOT, text=True,
                              stdout=subprocess.PIPE)
        return done.returncode, done.stdout.strip().splitlines()

    jobs = [(repeat, name) for repeat in range(arguments.repeat)
            for name in names]
    # Measured runs go one at a time; a smoke run times nothing, so two
    # children may share the machine.
    with ThreadPoolExecutor(max_workers=2 if arguments.smoke else 1) as pool:
        for (repeat, name), (code, lines) in zip(jobs, pool.map(child, jobs)):
            if arguments.repeat == 1:
                print("\n".join(lines[:-1]))
            try:
                line = json.loads(lines[-1])
            except (IndexError, ValueError):
                line = {"correct": False, "metrics": {}}
            if code != 0 or not line["correct"]:
                print(f"FAILED: {name} seed {arguments.seed + repeat} "
                      f"(exit {code})")
                status = 1
            for metric, entry in line["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
    for name in names:
        summary: dict[str, Any] = {}
        for metric, series in values[name].items():
            entry = {"unit": units[metric], "values": series,
                     "median": statistics.median(series)}
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
                entry.update(q1=q1, q3=q3)
                spread = (q3 - q1) / entry["median"] if entry["median"] else 0.0
                entry["spread"] = spread
                if metric in bounds and metric != "setup_s" \
                        and spread > bounds[metric]:
                    entry["flag"] = (f"spread {spread:.3f} exceeds the bound "
                                     f"{bounds[metric]}")
            summary[metric] = entry
        document["workloads"][name] = summary
    if arguments.repeat > 1:
        for name in names:
            print(f"== {name}: median [q1 .. q3] over {arguments.repeat} runs")
            for metric, entry in document["workloads"][name].items():
                quartiles = (f"[{_format(entry['q1'])} .. {_format(entry['q3'])}]"
                             f"  spread {entry['spread']:.3f}"
                             if "q1" in entry else "")
                print(f"   {metric:<40} {_format(entry['median']):>14} "
                      f"{entry['unit']:<10} {quartiles}"
                      f"{'  FLAG: ' + entry['flag'] if 'flag' in entry else ''}")
    print(json.dumps(document))
    return status


def main(argv: Sequence[str] | None = None) -> int:
    from rig.run import END_TO_END, PER_LAYER, run_workload
    from rig.workloads import BY_NAME

    units = {**END_TO_END, **PER_LAYER}
    parser = argparse.ArgumentParser(
        prog="python3 -m rig",
        description="Measure the five deployment-shape workloads: end-to-end "
                    "metrics and a per-layer time budget.")
    parser.add_argument("--workload", choices=list(BY_NAME), default=None,
                        help="one workload (default: all five, each in its "
                             "own child process)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the object base and the transaction "
                             "mix; repeat r uses seed+r (default: 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; prints median and quartiles "
                             "and flags spreads beyond the bound (default: 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="about 50 transactions per workload: checks "
                             "that everything runs, times nothing")
    arguments = parser.parse_args(argv)
    if arguments.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {arguments.repeat}")
    if arguments.seconds is None:
        arguments.seconds = float(contract()["run_seconds"])
    if arguments.seconds <= 0 or not math.isfinite(arguments.seconds):
        parser.error(f"--seconds must be positive, got {arguments.seconds}")
    if arguments.workload is None or arguments.repeat > 1:
        names = ([arguments.workload] if arguments.workload
                 else list(BY_NAME))
        return run_children(arguments, names, units)

    print(f"stamp: {json.dumps(stamp())}")
    result = run_workload(arguments.workload, arguments.seed,
                          arguments.seconds, arguments.trace,
                          arguments.smoke, WORK_ROOT)
    print_result(result, units)
    print(driver_line(result, units))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
