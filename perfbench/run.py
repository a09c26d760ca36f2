"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload sc-sweep --seed 3 --seconds 20 --trace 0

With ``--trace 0`` the reps run untraced and the result carries every
end-to-end metric; with ``--trace 1`` untraced and traced reps alternate on
the same inputs, their outputs must match, and the result carries every
per-layer metric.  ``--record-digest`` re-records the output digests of the
default seed in ``perfbench/digests.json``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The command exits non-zero when an output check fails, and
prints no result when the program under test is not there.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS_FILE = BENCH_DIR / "workloads.json"
DIGESTS_FILE = BENCH_DIR / "digests.json"

def load_catalogue() -> dict:
    with open(WORKLOADS_FILE) as handle:
        return json.load(handle)


def workload_entry(catalogue: dict, name: str):
    """``(config hash, entry)`` of workload ``name``; the hash must match the config."""
    from repro.utils.canonical import canonical_hash

    for key, entry in catalogue["workloads"].items():
        if entry["name"] == name:
            expected = canonical_hash({"name": name, "config": entry["config"]})
            if key != expected:
                raise SystemExit(
                    f"{WORKLOADS_FILE.name}: {name} is keyed {key}, its config hashes "
                    f"to {expected}"
                )
            return key, entry
    raise SystemExit(f"unknown workload {name!r}")


def digest(outputs) -> str:
    body = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


class Run:
    """The reps of one benchmark run and the checks on their outputs."""

    def __init__(self, workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.setup_s = []
        self.reps = []
        self.traced = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def rep(self, index: int, traced: bool):
        """Set up and run rep ``index``; None when it raised."""
        try:
            start = time.perf_counter()
            state = self.workload.setup(index, traced)
            setup_s = time.perf_counter() - start
            result = self.workload.run(state)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        if not traced:
            self.setup_s.append(setup_s)
        self.attempted += result.attempted
        self.failed += result.failed
        if result.outputs.get("warm_mismatches"):
            self.problems.append(
                f"rep {index}: {result.outputs['warm_mismatches']} warm answers differ "
                "from their cold answer"
            )
        return result

    def untraced(self) -> None:
        start = time.perf_counter()
        index = 0
        while index < self.workload.min_reps or time.perf_counter() - start < self.seconds:
            result = self.rep(index, traced=False)
            self.reps.append((index, result))
            index += 1

    def paired(self) -> None:
        """Untraced and traced reps on the same inputs, alternating which goes first."""
        start = time.perf_counter()
        index = 0
        while index < 2 or time.perf_counter() - start < self.seconds:
            order = (False, True) if index % 2 == 0 else (True, False)
            pair = {traced: self.rep(index, traced) for traced in order}
            self.reps.append((index, pair[False]))
            self.traced.append((index, pair[True]))
            if pair[False] is not None and pair[True] is not None:
                if pair[False].outputs != pair[True].outputs:
                    self.problems.append(f"rep {index}: traced outputs differ from untraced")
            index += 1

    def check_digests(self, recorded: list) -> None:
        for index, result in self.reps:
            if result is not None and index < len(recorded):
                if digest(result.outputs) != recorded[index]:
                    self.problems.append(f"rep {index}: outputs do not match the recorded digest")


def percentile_ms(samples, pct: float, label: str, problems: list) -> float:
    from perfbench.helpers import supported_percentile

    value = supported_percentile(samples, pct)
    if value is None:
        problems.append(f"{label}: {len(samples)} samples cannot support p{pct:g}")
        return float("nan")
    return value * 1e3


def geometric_error(errors) -> float:
    """exp(mean(log(1 + e))) - 1: the typical relative error, outliers damped.

    The errors of one run fall in clusters (one per sampling ratio) with a
    long tail; a plain median jumps between clusters from seed to seed and
    a plain mean follows the tail, where this stays put.
    """
    if not errors:
        return float("nan")
    return math.expm1(statistics.fmean(math.log1p(error) for error in errors))


def end_to_end(run: Run, import_s: float) -> dict:
    from perfbench.helpers import vmhwm_kib

    done = [result for _, result in run.reps if result is not None]
    if not done:
        run.problems.append("no rep completed")
        return {}
    requests = [latency for result in done for latency, _ in result.requests]
    misses = [latency for result in done for latency, missed in result.requests if missed]
    errors = [
        error for index, result in run.reps
        if result is not None and index < run.workload.min_reps for error in result.errors
    ]
    peaks = [result.peak_kib for result in done if result.peak_kib is not None]
    peak_kib = statistics.median(peaks) if peaks else vmhwm_kib()
    print(f"# {len(done)} reps, {len(requests)} requests ({len(misses)} misses), "
          f"{len(errors)} predictions checked against actual runs", flush=True)
    values = {
        "setup_s": (import_s + statistics.median(run.setup_s), "s"),
        "wall_s": (statistics.median(result.wall_s for result in done), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        "ok_frac": (1.0 - run.failed / run.attempted, "ratio"),
        "pred_rel_error": (geometric_error(errors), "ratio"),
        "request_p50_ms": (percentile_ms(requests, 50, "requests", run.problems), "ms"),
        "request_p95_ms": (percentile_ms(requests, 95, "requests", run.problems), "ms"),
        "miss_mean_ms": (statistics.fmean(misses) * 1e3 if misses else float("nan"), "ms"),
    }
    if not errors:
        run.problems.append("no prediction error measured")
    if not misses:
        run.problems.append("no prediction missed the cache")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


#: Per-layer metrics read straight from the per-rep totals, with their units.
PER_REP = {
    "graph.load_s": "s", "graph.ingest_s": "s", "graph.ingest.parse_s": "s",
    "graph.ingest.bucket_s": "s", "graph.ingest.csr_write_s": "s", "graph.open_csr_s": "s",
    "sampling.sample_s": "s", "sampling.calls": "count", "sampling.vertices": "count",
    "bsp.actual_run_s": "s", "bsp.sample_run_s": "s", "bsp.supersteps": "count",
    "bsp.messages": "count", "bsp.setup_s": "s", "bsp.compute_s": "s", "bsp.barrier_s": "s",
    "bsp.write_s": "s", "bsp.kernels.fold_calls": "count",
    "bsp.kernels.fold_elements": "count", "bsp.kernels.fold_s": "s", "core.fit_s": "s",
    "core.extrapolate_s": "s", "core.predict_s": "s", "core.predict_calls": "count",
    "core.sample_run_s": "s", "service.requests": "count", "service.coalesced": "count",
    "service.server_s": "s", "service.key_s": "s",
}


def per_layer(run: Run) -> dict:
    from perfbench.helpers import supported_percentile

    traced = [result for _, result in run.traced if result is not None]
    untraced = [result for _, result in run.reps if result is not None]
    if not traced or not untraced:
        run.problems.append("no traced/untraced rep pair completed")
        return {}
    totals, wire_ms = {}, []
    for result in traced:
        for name, value in result.layers.items():
            if name == "service.wire_samples_ms":
                wire_ms.extend(value)
            else:
                totals[name] = totals.get(name, 0.0) + value

    def total(name):
        return totals.get(name, 0.0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {name: (total(name) / len(traced), unit) for name, unit in PER_REP.items()}
    cache_lookups = total("sample_run.cache.hit") + total("sample_run.cache.miss")
    wire_p50 = supported_percentile(wire_ms, 50)
    traced_wall = statistics.median(result.wall_s for result in traced)
    untraced_wall = statistics.median(result.wall_s for result in untraced)
    metrics.update({
        "graph.ingest_edges_per_s": (ratio(total("graph.ingest_edges"), total("graph.ingest_s")), "1/s"),
        "graph.ingest_rss_delta_mib": (
            ratio(total("graph.ingest_rss_delta_kib"), total("graph.ingest_rss_samples")) / 1024.0,
            "MiB"),
        "sampling.vertices_per_s": (ratio(total("sampling.vertices"), total("sampling.sample_s")), "1/s"),
        "core.profile_cache_hit_ratio": (ratio(total("sample_run.cache.hit"), cache_lookups), "ratio"),
        "service.hit_ratio": (ratio(total("service.hits"), total("service.requests")), "ratio"),
        "service.wire_p50_ms": (wire_p50 if wire_p50 is not None else 0.0, "ms"),
        "obs.trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "obs.untraced_frac": (1.0 - ratio(total("obs.covered_s"), total("obs.traced_wall_s")), "ratio"),
    })
    print(f"# {len(traced)} traced and {len(untraced)} untraced reps", flush=True)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="record the default seed's output digests instead of checking them")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: the program under test (src/repro) is missing under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # One CPU for this process and the daemon it starts: a request's hand-offs
    # between client, event loop and worker thread become local context
    # switches, whose cost varies far less between runs on a shared 2-core
    # host than cross-CPU wake-ups do.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    catalogue = load_catalogue()
    seed = catalogue["default_seed"] if args.seed is None else args.seed
    if args.record_digest and (seed != catalogue["default_seed"] or args.trace):
        raise SystemExit("--record-digest runs the default seed untraced")

    from perfbench.workloads import WORKLOADS

    key, entry = workload_entry(catalogue, args.workload)
    for module in WORKLOADS[args.workload].imports:
        importlib.import_module(module)
    import_s = time.perf_counter() - START
    print(f"# workload {args.workload} config {key} seed {seed}", flush=True)

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](entry["config"], seed, workdir)
        run = Run(workload, args.seconds)
        if args.trace:
            run.paired()
        else:
            run.untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    digests = {}
    if DIGESTS_FILE.exists():
        with open(DIGESTS_FILE) as handle:
            digests = json.load(handle)
    if args.record_digest:
        recorded = [digest(result.outputs) for index, result in run.reps
                    if result is not None and index < workload.min_reps]
        digests[args.workload] = {"config": key, "seed": seed, "reps": recorded}
        with open(DIGESTS_FILE, "w") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
    else:
        record = digests.get(args.workload)
        if record and record["seed"] == seed and record["config"] == key:
            run.check_digests(record["reps"])

    metrics = per_layer(run) if args.trace else end_to_end(run, import_s)
    for problem in run.problems:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
