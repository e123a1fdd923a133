"""Self-test of the benchmark harness (not of qmink).

    python3 perfbench/selftest.py

Run from the root of a qmink checkout; takes about a minute.  Each workload
runs once at a tiny size, untraced and traced, and every metric named in
BENCHMARK.json must come out with its unit.  Then a wrong answer is
injected into each workload's comparison step (a flipped output byte, or a
corrupted normal form in the symbolic worker) and must be counted as a
failure.  Last, run.py must refuse to run in a directory that holds only
the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness
import run

TINY_SECONDS = {"report-all": 0.5, "cold-start": 1.0, "symbolic": 1.0}
# layers the non-numeric workloads must leave untouched
NUMERIC_METRICS = ("cocycle.self_s", "cocycle.samples", "oplab.op_equal_calls",
                   "oplab.op_equal_self_s", "oplab.points", "oplab.build_self_s")

problems = []


def expect(condition, message):
    if not condition:
        problems.append(message)
        print(f"FAIL {message}")


def check_metrics(workload, result, expected):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    got = result["metrics"]
    for m in expected:
        entry = got.get(m["name"])
        expect(entry is not None, f"{workload}: metric {m['name']} missing")
        if entry is not None:
            expect(entry["unit"] == m["unit"],
                   f"{workload}: {m['name']} unit {entry['unit']} != {m['unit']}")
            expect(isinstance(entry["value"], (int, float)),
                   f"{workload}: {m['name']} value {entry['value']!r}")
    expect(set(got) == {m["name"] for m in expected},
           f"{workload}: unexpected metrics {sorted(set(got) - {m['name'] for m in expected})}")


def check_predictions(spec):
    """predictions.json covers every per-layer metric, and names only
    end-to-end metrics and workloads that BENCHMARK.json defines."""
    with open(harness.BENCH_DIR / "predictions.json", encoding="utf-8") as fh:
        entries = json.load(fh)["predictions"]
    covered = [m for e in entries for m in e["layer_metrics"]]
    layer = [m["name"] for m in spec["per_layer"]]
    expect(sorted(covered) == sorted(layer),
           f"predictions cover {sorted(set(covered) ^ set(layer))} wrongly")
    metrics = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    for e in entries:
        for key in ("moves", "minor", "unchanged"):
            for metric, workload in e.get(key, ()):
                expect(metric in metrics and workload in names,
                       f"prediction names unknown ({metric}, {workload})")


def main():
    harness.require_checkout()
    spec = run._benchmark_spec()
    check_predictions(spec)
    for workload, seconds in TINY_SECONDS.items():
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, record = run.measure(workload, 1, seconds, trace)
            print(f"{workload} trace={int(trace)}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            check_metrics(workload, result, expected)
            expect(result["attempted"] >= 1 and result["correct"]
                   and result["failed"] == 0,
                   f"{workload}: failures on correct code: {record['failures'][:3]}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                expect(all(v > 0 for v in values.values()),
                       f"{workload}: an end-to-end metric is not positive: {values}")
            elif workload == "report-all":
                expect(all(values[m] > 0 for m in NUMERIC_METRICS),
                       f"{workload}: numeric layers not traced")
            else:
                expect(all(values[m] == 0 for m in NUMERIC_METRICS),
                       f"{workload}: numeric layers ran: "
                       f"{ {m: values[m] for m in NUMERIC_METRICS} }")
        _, record = run.measure(workload, 2, seconds, False, inject_fault=True)
        print(f"{workload} with an injected wrong answer: fail_ratio "
              f"{record['fail_ratio']:.3g}")
        expect(record["fail_ratio"] > 0,
               f"{workload}: injected wrong answer not counted")

    bare = harness.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(harness.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(done.returncode != 0, "run.py succeeded without qmink sources")
    expect(not done.stdout.strip().startswith("{")
           and '"correct"' not in done.stdout,
           "run.py printed a result without qmink sources")

    if problems:
        print(f"selftest: {len(problems)} problem(s)")
        return 1
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
