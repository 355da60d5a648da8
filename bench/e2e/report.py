#!/usr/bin/env python3
"""Turns bench_e2e_loadgen result lines into the benchmark's report.

    report.py BENCHMARK.json OUT.json TRACE RESULT_FILE...

Each RESULT_FILE holds one loadgen run (its last line is a JSON object).
A run whose generator fell behind its schedule ("valid": false) measured the
generator, not the gateway: its correctness counts, its numbers do not, and
it is counted as invalid. Prints one `workload=... metric=... value=...
unit=...` line per metric of every valid run, and
with several runs of a workload (run.sh --repeat N) the median, quartiles
and spread of each gated metric against its bound from BENCHMARK.json,
flagging every metric whose spread exceeds its bound. Writes every run and
summary to OUT.json, and prints as its last line the one JSON object the
benchmark contract asks for: the end-to-end metrics (TRACE=0) or the
per-layer metrics (TRACE=1), medians over the runs given.

Exit status: 0, or 1 when any run failed a correctness check or a workload
has no valid run (then no JSON object is printed).
"""
import json
import statistics
import sys


def last_json(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.startswith("{")]
    if not lines:
        raise SystemExit(f"report: {path} holds no result line")
    return json.loads(lines[-1])


def main():
    bench_path, out_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(bench_path) as f:
        bench = json.load(f)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    wanted = bench["per_layer"] if trace else bench["end_to_end"]

    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    def unit_of(name):
        if name in units:
            return units[name]
        for suffix, unit in (("_us", "us"), ("_s", "s"), ("_mb", "MB"),
                             ("_ops", "ops/s"), ("_ratio", "ratio")):
            if name.endswith(suffix):
                return unit
        return "count"

    every_run = [last_json(p) for p in sys.argv[4:]]
    runs = [r for r in every_run if r["valid"]]
    invalid = {}
    for run in every_run:
        if not run["valid"]:
            invalid[run["workload"]] = invalid.get(run["workload"], 0) + 1
            print(f"workload={run['workload']} invalid run: "
                  f"{'; '.join(run.get('notes', []))}", file=sys.stderr)
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)

    for run in runs:
        for name, value in sorted(run["metrics"].items()):
            print(f"workload={run['workload']} metric={name} value={value!r}"
                  f" unit={unit_of(name)}")
        for note in run.get("notes", []):
            print(f"workload={run['workload']} note={note}", file=sys.stderr)

    summary = {}
    for workload, group in by_workload.items():
        summary[workload] = {}
        for m in wanted:
            values = [r["metrics"][m["name"]] for r in group
                      if m["name"] in r["metrics"]]
            if not values:
                continue
            entry = {"median": statistics.median(values), "n": len(values)}
            if len(values) >= 2 and m["name"] in gated:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / entry["median"] if entry["median"] else 0.0
                bound = gated[m["name"]]["bound"]
                entry.update(q1=q1, q3=q3, spread=spread, bound=bound)
                flag = "  << spread exceeds bound" if spread > bound else ""
                print(f"workload={workload} metric={m['name']} "
                      f"median={entry['median']:.6g} q1={q1:.6g} q3={q3:.6g} "
                      f"spread={spread:.4f} bound={bound}{flag}")
            summary[workload][m["name"]] = entry

    for workload, count in sorted(invalid.items()):
        print(f"workload={workload} invalid_runs={count} "
              f"valid_runs={len(by_workload.get(workload, []))}")
    correct = all(r["correct"] for r in every_run)
    with open(out_path, "w") as f:
        json.dump({"runs": every_run, "invalid_runs": invalid,
                   "summary": summary}, f, indent=1)
        f.write("\n")
    unmeasured = sorted(set(invalid) - set(by_workload))
    if unmeasured:
        print(f"report: no valid run of {', '.join(unmeasured)}",
              file=sys.stderr)
        return 1

    # The contract line: one workload -> its metrics; several -> each
    # metric prefixed with its workload.
    metrics = {}
    for workload, entries in summary.items():
        for name, entry in entries.items():
            key = name if len(summary) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": entry["median"], "unit": unit_of(name)}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
