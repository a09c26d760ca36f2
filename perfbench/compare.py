"""Collect benchmark runs over several seeds and compare two sets of them.

    # ten untraced runs per workload, one JSON line per run
    python3 perfbench/compare.py collect --seeds 1-10 --out change.jsonl
    # run-to-run spread of each metric against its bound
    python3 perfbench/compare.py spread change.jsonl
    # one row per workload and metric: parent vs change, with a verdict
    python3 perfbench/compare.py diff parent.jsonl change.jsonl

Run ``collect`` from the root of each checkout with the same arguments; alternate
parent and change collections when both share a host.

The verdict of a row follows the benchmark's own bounds (``BENCHMARK.json``):

* ``better`` -- the change wins at least nine tenths of the runs paired by
  seed, ties counting for neither, and the medians differ by more than the
  distance between the parent's quartiles;
* ``worse`` -- the change's median is worse than the parent's by more than
  the metric's bound, and either the parent's spread is within the bound or
  every change run is worse than every parent run;
* ``unresolved`` -- neither shown: the parent's spread is wider than the
  bound, or (for per-layer metrics, which have no bound) no gain or loss is
  shown either way;
* ``same`` -- no worse than the bound and no gain shown.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench.helpers import quartiles  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_runs(path: str) -> dict:
    """``{(workload, metric): {seed: value}}`` of a collected JSONL file."""
    runs: dict = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            for metric, entry in record["result"]["metrics"].items():
                runs.setdefault((record["workload"], metric), {})[record["seed"]] = entry["value"]
    return runs


def collect(args) -> int:
    root = Path.cwd()
    spec = load_spec(root)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    status = 0
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                command = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds or spec["run_seconds"]),
                    "--trace", str(args.trace),
                ]
                done = subprocess.run(command, cwd=root, capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                          file=sys.stderr)
                    status = 1
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name}={entry['value']:.4g} {entry['unit']}"
                    for name, entry in result["metrics"].items()
                ), flush=True)
    return status


def bounds(spec: dict) -> dict:
    """``{metric: (better, bound or None)}`` for every metric of the benchmark."""
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return table


def spread(args) -> int:
    table = bounds(load_spec(Path.cwd()))
    status = 0
    print(f"{'workload':12s} {'metric':28s} {'n':>3s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for (workload, metric), by_seed in sorted(load_runs(args.file).items()):
        values = list(by_seed.values())
        q1, median, q3 = quartiles(values)
        share = (q3 - q1) / abs(median) if median else 0.0
        bound = table.get(metric, (None, None))[1]
        flag = ""
        if bound is not None and metric != "setup_s":
            flag = "OVER" if share > bound else ("over 1/3" if share > bound / 3 else "")
            status |= share > bound
        print(f"{workload:12s} {metric:28s} {len(values):3d} {median:12.6g} {share:8.4f} "
              f"{bound if bound is not None else '-':>6} {flag}")
    return int(status)


def verdict(parent: dict, change: dict, better: str, bound) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_values, c_values = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_values)
    _, c_med, _ = quartiles(c_values)
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    losses = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    gap = abs(c_med - p_med)
    if seeds and wins >= 0.9 * len(seeds) and gap > p_q3 - p_q1 and sign * (c_med - p_med) < 0:
        return "better"
    all_worse = all(sign * (c - p) > 0 for c in c_values for p in p_values)
    all_better = all(sign * (c - p) < 0 for c in c_values for p in p_values)
    if bound is None:
        if seeds and losses >= 0.9 * len(seeds) and gap > p_q3 - p_q1:
            return "worse"
        return "unresolved"
    base = abs(p_med) if p_med else 1.0
    worse_by = sign * (c_med - p_med) / base
    parent_spread = (p_q3 - p_q1) / base
    if worse_by > bound:
        return "worse" if parent_spread <= bound or all_worse else "unresolved"
    if parent_spread > bound and not all_better:
        return "unresolved"
    return "same"


def diff(args) -> int:
    table = bounds(load_spec(Path.cwd()))
    parent, change = load_runs(args.parent), load_runs(args.change)
    print(f"{'workload':12s} {'metric':28s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        better, bound = table.get(metric, ("lower", None))
        cells = []
        for runs in (parent[key], change[key]):
            q1, med, q3 = quartiles(list(runs.values()))
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
        print(f"{workload:12s} {metric:28s} {cells[0]:>36s} {cells[1]:>36s}  "
              f"{verdict(parent[key], change[key], better, bound)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark over seeds into a JSONL file")
    p.add_argument("--workload", action="append", help="workload (default: all)")
    p.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 1,4,9")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=collect)
    p = sub.add_parser("spread", help="quartile spread of each metric over the runs")
    p.add_argument("file")
    p.set_defaults(fn=spread)
    p = sub.add_parser("diff", help="parent vs change, one row per workload and metric")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(fn=diff)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
