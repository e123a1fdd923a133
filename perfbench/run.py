"""qmink benchmark: one run of one workload.

    python3 perfbench/run.py --workload {report-all,cold-start,symbolic}
                             --seed N --seconds S --trace {0,1}

Run from the root of a qmink checkout; the program is imported from its
`src/` directory.  Set-up time is measured first (with --trace 0), then the
workload runs for S seconds and every answer is checked.  Every metric is
printed as `name value unit`; the last line of standard output is the
result as JSON.  The environment, the load average, the failures and the
traced spans go to `bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import harness
import tracer
import workloads


# set-up probes before and after the timed loop, so one burst of machine
# noise cannot move the median
SETUP_BEFORE, SETUP_AFTER = 4, 3
# the exact (symbolic) layers, whose share of an operation trace.exact_share gives
EXACT_LAYERS = ("scalars", "ncalg", "coact")


def _benchmark_spec():
    with open(harness.BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, inject_fault=False):
    """Run one workload; returns (result line dict, record for bench_out)."""
    spec = _benchmark_spec()
    load_before = os.getloadavg()
    wl = workloads.WORKLOADS[workload]()
    setup = []
    if not trace:
        setup = harness.setup_samples(wl.builtins, SETUP_BEFORE, warm_up=True)
    outcome = wl.run(seed, seconds, trace, inject_fault=inject_fault)
    if not trace:
        setup += harness.setup_samples(wl.builtins, SETUP_AFTER)
    if trace:
        values = tracer.layer_metrics(outcome.dumps, len(outcome.traced_walls))
        values["trace.overhead_s"] = (harness.percentile(outcome.traced_walls, 50)
                                      - harness.percentile(outcome.walls, 50))
        values["trace.ops"] = len(outcome.traced_walls)
        values["trace.op_s_mean"] = statistics.fmean(outcome.traced_walls)
        values["trace.exact_share"] = sum(
            values.get(f"{layer}.self_s", 0.0) for layer in EXACT_LAYERS
        ) / values["trace.op_s_mean"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        tail_p = None
        _write_spans(workload, seed, outcome.dumps)
    else:
        summary, tail_p = harness.summarize(outcome.walls, outcome.cpus,
                                            outcome.rss_mb, statistics.median(setup))
        metrics = {m["name"]: {"value": summary[m["name"]][0],
                               "unit": summary[m["name"]][1]}
                   for m in spec["end_to_end"]}
    failed = len(outcome.failures)
    result = {"correct": failed == 0, "attempted": outcome.attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": harness.environment(),
        "load_avg_before": load_before, "load_avg_after": os.getloadavg(),
        "op_walls_s": outcome.walls,
        "op_cpus_s": outcome.cpus,
        "tail_percentile": tail_p,
        "setup_samples_s": setup,
        "fail_ratio": failed / outcome.attempted,
        "failures": outcome.failures,
        "details": outcome.details,
        "result": result,
    }
    return result, record


def _write_spans(workload, seed, dumps):
    path = harness.OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for process, dump in enumerate(dumps):
            for span in dump["spans"]:
                fh.write(json.dumps(dict(span, process=process)) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="qmink benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.require_checkout()
    except harness.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = harness.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed; "
          f"op_s.tail percentile {record['tail_percentile']}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"# load average before {record['load_avg_before']} "
          f"after {record['load_avg_after']}")
    for failure in record["failures"][:10]:
        print(f"# FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"fail_ratio {record['fail_ratio']!r} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
