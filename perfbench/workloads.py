"""The three benchmark workloads: what each repetition sets up, runs and checks.

A repetition (rep) is one user-level operation on inputs generated from the
run seed and the rep's index.  Each workload splits a rep into

* ``setup(index, traced)`` -- untimed, but measured as set-up time;
* ``run(state)`` -- the timed operation, returning a :class:`RepResult`.

Reps below ``min_reps`` are deterministic functions of the run seed: their
outputs feed the digest check and the prediction-error metric, so those do
not depend on how many reps fit into the measuring time.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench.helpers import span_self_times
from perfbench.layers import Layers
from repro.utils.canonical import jsonable

#: Engine spans whose self time the traced run reports, by metric name.
SELF_TIME_SPANS = {
    "phase.setup": "bsp.setup_s",
    "compute": "bsp.compute_s",
    "barrier": "bsp.barrier_s",
    "phase.write": "bsp.write_s",
    "ingest.parse": "graph.ingest.parse_s",
    "ingest.bucket": "graph.ingest.bucket_s",
    "ingest.csr_write": "graph.ingest.csr_write_s",
}


def sub_seed(seed: int, workload: str, index: int) -> int:
    """Seed of rep ``index``: a digest of the run seed, independent of the program."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def prediction_fields(prediction) -> Dict[str, Any]:
    """The fields of a ``repro.core.predictor.Prediction`` that the digest covers."""
    return jsonable({
        "algorithm": prediction.algorithm,
        "dataset": prediction.dataset,
        "sampling_ratio": prediction.sampling_ratio,
        "predicted_iterations": prediction.predicted_iterations,
        "predicted_iteration_runtimes": prediction.predicted_iteration_runtimes,
        "predicted_superstep_runtime": prediction.predicted_superstep_runtime,
        "vertex_scaling_factor": prediction.vertex_scaling_factor,
        "edge_scaling_factor": prediction.edge_scaling_factor,
        "training_observations": prediction.training_observations,
        "used_history": prediction.used_history,
        "r_squared": prediction.cost_model.r_squared,
        "selected_features": prediction.cost_model.selected_features,
        "coefficients": prediction.cost_model.coefficients(),
    })


def run_counters(run) -> Dict[str, Any]:
    """The counters of an actual run (``repro.bsp.result.RunResult``) the digest covers."""
    return jsonable({
        "iterations": run.num_iterations,
        "converged": run.converged,
        "superstep_runtime": run.superstep_runtime,
        "total_runtime": run.total_runtime,
        "messages": run.total_messages(),
        "remote_bytes": run.total_remote_message_bytes(),
        "convergence_history": run.convergence_history,
    })


def relative_error(predicted: float, actual: float) -> float:
    return abs(predicted - actual) / actual


@dataclass
class RepResult:
    """What one timed operation produced."""

    wall_s: float
    outputs: Any
    #: ``(latency_s, missed)`` per prediction request of the rep.
    requests: List[Tuple[float, bool]] = field(default_factory=list)
    #: |predicted - actual| / actual of the rep's superstep-runtime predictions.
    errors: List[float] = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    #: Peak RSS of a process other than this one that did the work (KiB).
    peak_kib: Optional[int] = None
    #: Per-layer totals of a traced rep.
    layers: Dict[str, float] = field(default_factory=dict)


class CapturePredictions:
    """Record every ``Predictor.predict`` call of an operation.

    Installed in traced and untraced reps alike: it adds two clock reads per
    prediction.  A call that grew the predictor's sample-run profile cache
    executed a sample run and counts as a miss.
    """

    def __init__(self) -> None:
        from repro.core.predictor import Predictor

        self._cls = Predictor
        self._original = Predictor.__dict__["predict"]
        self.calls: List[Tuple[Any, float, bool]] = []

    def __enter__(self) -> "CapturePredictions":
        original, calls = self._original, self.calls

        def predict(predictor, *args, **kwargs):
            cache = predictor.runner.profile_cache
            before = len(cache)
            start = time.perf_counter()
            prediction = original(predictor, *args, **kwargs)
            calls.append((prediction, time.perf_counter() - start, len(cache) > before))
            return prediction

        self._cls.predict = predict
        return self

    def __exit__(self, *exc) -> None:
        self._cls.predict = self._original


def layer_totals(layers: Layers, tracer) -> Dict[str, float]:
    """Per-layer totals of a traced rep: wrapper totals plus span self times."""
    totals = dict(layers.totals)
    for name, self_s in span_self_times(tracer.spans):
        metric = SELF_TIME_SPANS.get(name)
        if metric is not None:
            totals[metric] = totals.get(metric, 0.0) + self_s
    for name in ("hit", "miss"):
        totals[f"sample_run.cache.{name}"] = tracer.counters.get(f"sample_run.cache.{name}", 0)
    return totals


class Workload:
    """What every workload holds: its config, the run seed and a working directory."""

    name = ""
    #: Modules imported before the first rep (part of set-up time).
    imports: Tuple[str, ...] = ()

    def __init__(self, config: Dict[str, Any], seed: int, workdir: Path) -> None:
        self.config = config
        self.seed = seed
        self.workdir = workdir
        self.min_reps = int(config["min_reps"])


class InProcessWorkload(Workload):
    """A workload whose operation runs in this process."""

    def _start_layers(self, traced: bool):
        if not traced:
            return None, None
        from repro.obs import Tracer

        layers = Layers()
        layers.install()
        return layers, Tracer()

    def _timed(self, state, operation) -> RepResult:
        """Run ``operation(state)`` under the capture; finish the traced layers."""
        layers, tracer = state["layers"], state["tracer"]
        try:
            covered_before = layers.covered_s if layers else 0.0
            with CapturePredictions() as capture:
                start = time.perf_counter()
                outputs = operation(state)
                wall_s = time.perf_counter() - start
        finally:
            if layers is not None:
                layers.uninstall()
        result = self._finish(capture.calls, outputs, wall_s)
        if layers is not None:
            result.layers = {
                **layer_totals(layers, tracer),
                "obs.covered_s": layers.covered_s - covered_before,
                "obs.traced_wall_s": wall_s,
            }
        return result

    def _finish(self, calls, outputs, wall_s) -> RepResult:
        actual = outputs["actual"]
        predictions = [prediction_fields(p) for p, _, _ in calls]
        errors = [
            relative_error(p.predicted_superstep_runtime, actual[p.dataset].superstep_runtime)
            for p, _, _ in calls
        ]
        return RepResult(
            wall_s=wall_s,
            outputs={
                "predictions": predictions,
                "actual": {name: run_counters(run) for name, run in sorted(actual.items())},
                **outputs.get("extra", {}),
            },
            requests=[(latency, missed) for _, latency, missed in calls],
            errors=errors,
        )


class SemiClusteringSweep(InProcessWorkload):
    """``sc-sweep``: the Figure 7a semi-clustering runtime-prediction sweep."""

    name = "sc-sweep"
    imports = ("repro.experiments.figures",)

    def setup(self, index: int, traced: bool):
        from repro.experiments.harness import ExperimentContext
        from repro.graph.datasets import clear_cache

        layers, tracer = self._start_layers(traced)
        try:
            # Generated graphs are memoised per (name, scale, seed); drop them
            # so every rep pays for generation and freezing as a new process
            # does.
            clear_cache()
            ctx = ExperimentContext(
                dataset_scale=self.config["scale"],
                num_workers=self.config["workers"],
                seed=sub_seed(self.seed, self.name, index),
                tracer=tracer,
            )
            for dataset in self.config["datasets"]:
                ctx.load(dataset)
        except BaseException:
            if layers is not None:
                layers.uninstall()
            raise
        return {"ctx": ctx, "layers": layers, "tracer": tracer}

    def run(self, state) -> RepResult:
        return self._timed(state, self._sweep)

    def _sweep(self, state):
        from repro.algorithms.semi_clustering import SemiClustering, SemiClusteringConfig
        from repro.experiments import figures

        ctx = state["ctx"]
        figures.fig7_semiclustering_runtime(
            ctx, datasets=self.config["datasets"], ratios=self.config["ratios"],
            tolerance=self.config["tolerance"],
        )
        config = SemiClusteringConfig(tolerance=self.config["tolerance"])
        # Cached by the context: these return the sweep's own actual runs.
        actual = {d: ctx.actual_run(d, SemiClustering(), config) for d in self.config["datasets"]}
        return {"actual": actual}


def write_skewed_edge_list(path: Path, seed: int, vertices: int, edges: int, skew: float) -> None:
    """A seeded edge list with power-law source and target popularity.

    Popularity ranks are a random permutation of the vertex ids, so the hubs
    sit anywhere in the id space.  A ring ``i -> i+1`` makes every id appear
    and gives every vertex an out-edge.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, vertices + 1, dtype=np.float64) ** skew
    weights /= weights.sum()
    src = rng.permutation(vertices)[rng.choice(vertices, size=edges, p=weights)]
    dst = rng.permutation(vertices)[rng.choice(vertices, size=edges, p=weights)]
    keep = src != dst
    ring = np.arange(vertices)
    src = np.concatenate([src[keep], ring]).tolist()
    dst = np.concatenate([dst[keep], (ring + 1) % vertices]).tolist()
    with open(path, "w") as handle:
        handle.write("# skewed benchmark graph\n")
        handle.write("\n".join(f"{s} {t}" for s, t in zip(src, dst)))
        handle.write("\n")


class EdgeListPipeline(InProcessWorkload):
    """``pr-edgelist``: ingest an edge list, predict PageRank on it, run it."""

    name = "pr-edgelist"
    imports = ("repro.experiments.harness", "repro.algorithms.pagerank", "repro.graph.ingest")

    def setup(self, index: int, traced: bool):
        rep_dir = self.workdir / f"rep{index}-{'t' if traced else 'u'}"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        edge_list = rep_dir / "edges.txt"
        write_skewed_edge_list(
            edge_list, sub_seed(self.seed, self.name, index),
            self.config["vertices"], self.config["edges"], self.config["skew"],
        )
        layers, tracer = self._start_layers(traced)
        return {"dir": rep_dir, "edge_list": edge_list, "index": index,
                "layers": layers, "tracer": tracer}

    def run(self, state) -> RepResult:
        try:
            return self._timed(state, self._pipeline)
        finally:
            shutil.rmtree(state["dir"], ignore_errors=True)

    def _pipeline(self, state):
        from repro.algorithms.pagerank import PageRank, PageRankConfig
        from repro.experiments.harness import ExperimentContext

        ctx = ExperimentContext(
            edge_list=str(state["edge_list"]),
            csr_cache=str(state["dir"] / "csr-cache"),
            partitioner_name="contiguous",
            num_workers=self.config["workers"],
            seed=sub_seed(self.seed, self.name, state["index"]),
            tracer=state["tracer"],
        )
        graph = ctx.load("edges")
        config = PageRankConfig.for_tolerance_level(self.config["epsilon"], graph.num_vertices)
        predictor = ctx.predictor(PageRank())
        for ratio in self.config["ratios"]:
            predictor.predict(graph, config, sampling_ratio=ratio, dataset_name="edges")
        actual = ctx.actual_run("edges", PageRank(), config)
        return {
            "actual": {"edges": actual},
            "extra": {"graph": {"vertices": graph.num_vertices, "edges": graph.num_edges,
                                "memmap": bool(getattr(graph, "mmap_backed", False))}},
        }


class DaemonMix(Workload):
    """``daemon-mix``: a closed loop of Zipf-distributed requests to a daemon.

    The daemon runs in its own process (``perfbench/daemon_proc.py``, which
    serves a ``PredictionDaemon`` as ``repro-predict serve`` does); this
    process is its only client and sends the next request when the previous
    answer arrives.
    """

    name = "daemon-mix"
    imports = ("repro.service.client", "repro.experiments.harness")

    def __init__(self, config, seed, workdir) -> None:
        super().__init__(config, seed, workdir)
        self.catalogue = [
            {"algorithm": algorithm, "dataset": dataset, "sampling_ratio": ratio,
             "training_ratios": list(training), "feature_level": level}
            for algorithm in config["algorithms"]
            for dataset in config["datasets"]
            for ratio in config["ratios"]
            for training in config["training_sets"]
            for level in config["feature_levels"]
        ]

    def stream(self, index: int) -> List[int]:
        """Catalogue indices of rep ``index``'s requests (Zipf over a shuffled catalogue)."""
        rng = np.random.default_rng(sub_seed(self.seed, self.name, index))
        order = rng.permutation(len(self.catalogue))
        weights = 1.0 / np.arange(1, len(order) + 1, dtype=np.float64) ** self.config["zipf"]
        weights /= weights.sum()
        return order[rng.choice(len(order), size=self.config["requests"], p=weights)].tolist()

    def setup(self, index: int, traced: bool):
        from repro.service.client import PredictionClient

        rep_dir = self.workdir / f"daemon{index}-{'t' if traced else 'u'}"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        # Unix socket paths are limited to about 107 bytes, which a deep
        # checkout can exceed; the daemon shares this process's working
        # directory, so the shorter relative spelling works for both ends.
        socket_path = min(str(rep_dir / "d.sock"),
                          os.path.relpath(rep_dir / "d.sock"), key=len)
        out_path = rep_dir / "daemon.json"
        seed = sub_seed(self.seed, self.name, index)
        command = [
            sys.executable, str(Path(__file__).with_name("daemon_proc.py")),
            "--socket", socket_path, "--out", str(out_path),
            "--scale", repr(self.config["scale"]), "--workers", str(self.config["workers"]),
            "--seed", str(seed),
        ] + (["--trace"] if traced else [])
        process = subprocess.Popen(command, stdout=subprocess.DEVNULL)
        client = PredictionClient(socket_path, timeout=120.0)
        state = {"dir": rep_dir, "process": process, "client": client, "out": out_path,
                 "index": index, "seed": seed, "traced": traced}
        try:
            client.wait_until_ready(timeout=60.0)
            # One cold prediction per algorithm and dataset fills the daemon's
            # dataset and sample-run profile caches, outside the stream.
            for algorithm in self.config["algorithms"]:
                for dataset in self.config["datasets"]:
                    client.predict(dataset=dataset, algorithm=algorithm)
        except BaseException:
            self._stop(state)
            raise
        return state

    def run(self, state) -> RepResult:
        from repro.service.client import RemoteError

        client = state["client"]
        items = self.stream(state["index"])
        latencies: List[Tuple[float, bool]] = []
        answers: List[Optional[dict]] = []
        failed = 0
        try:
            start = time.perf_counter()
            for item in items:
                t0 = time.perf_counter()
                try:
                    answer = client.predict(**self.catalogue[item])
                except RemoteError as exc:
                    print(f"daemon-mix: request failed: {exc}", file=sys.stderr)
                    failed += 1
                    answers.append(None)
                    continue
                latencies.append((time.perf_counter() - t0, answer["cache"] != "hit"))
                answers.append(answer)
            wall_s = time.perf_counter() - start
            stats = client.stats()
        finally:
            daemon = self._stop(state)
        return self._finish_stream(state, items, answers, latencies, failed, wall_s,
                                   stats, daemon)

    def _stop(self, state) -> Dict[str, Any]:
        """Shut the daemon down, wait for it, return what it wrote on exit."""
        import json

        process = state["process"]
        try:
            if process.poll() is None:
                try:
                    state["client"].shutdown()
                except OSError:
                    process.terminate()
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        finally:
            state["client"].close()
        try:
            with open(state["out"]) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return {}
        finally:
            shutil.rmtree(state["dir"], ignore_errors=True)

    def _finish_stream(self, state, items, answers, latencies, failed, wall_s,
                       stats, daemon) -> RepResult:
        cold: Dict[int, dict] = {}
        mismatches = 0
        for item, answer in zip(items, answers):
            if answer is None:
                continue
            body = {k: v for k, v in answer.items() if k != "cache"}
            if item not in cold:
                cold[item] = body
            elif body != cold[item]:
                mismatches += 1
        outputs = {
            "answers": {str(item): cold[item] for item in sorted(cold)},
            "warm_mismatches": mismatches,
        }
        result = RepResult(
            wall_s=wall_s, outputs=outputs, requests=latencies,
            attempted=len(items), failed=failed, peak_kib=daemon.get("vmhwm_kib"),
        )
        if state["index"] < self.min_reps:
            result.errors = self._errors(state["seed"], cold)
        if state["traced"]:
            result.layers = self._daemon_layers(stats, daemon, latencies, wall_s)
        return result

    def _errors(self, seed: int, cold: Dict[int, dict]) -> List[float]:
        """Errors of the cold answers against actual runs made here, untimed."""
        from repro.algorithms.registry import algorithm_by_name
        from repro.experiments.harness import ExperimentContext

        ctx = ExperimentContext(
            dataset_scale=self.config["scale"], num_workers=self.config["workers"], seed=seed,
        )
        errors = []
        for item, answer in sorted(cold.items()):
            request = self.catalogue[item]
            algorithm = algorithm_by_name(request["algorithm"])
            actual = ctx.actual_run(request["dataset"], algorithm, algorithm.default_config())
            errors.append(relative_error(answer["predicted_superstep_runtime"],
                                         actual.superstep_runtime))
        return errors

    def _daemon_layers(self, stats, daemon, latencies, wall_s) -> Dict[str, float]:
        totals = dict(daemon.get("layers", {}))
        counters = stats["counters"]
        totals["service.requests"] = counters.get("service.requests", 0)
        totals["service.hits"] = counters.get("service.cache.hit", 0)
        totals["service.coalesced"] = counters.get("service.singleflight.coalesced", 0)
        # The daemon serves one connection in order: its k-th predict call
        # answered the client's k-th predict request (warm-ups first).
        server = daemon.get("server_samples", [])[len(self.config["algorithms"])
                                                  * len(self.config["datasets"]):]
        totals["service.wire_samples_ms"] = [
            (latency - server_s) * 1e3
            for (latency, missed), server_s in zip(latencies, server) if not missed
        ]
        totals["obs.covered_s"] = sum(latency for latency, _ in latencies)
        totals["obs.traced_wall_s"] = wall_s
        return totals


WORKLOADS = {cls.name: cls for cls in (SemiClusteringSweep, EdgeListPipeline, DaemonMix)}
