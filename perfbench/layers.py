"""Per-layer timing for traced runs, from outside the program.

The benchmark times calls into each layer's public functions by wrapping
them in this process; it adds no span to ``src/``.  A :class:`Layers`
recorder replaces every reference to a wrapped function in the loaded
``repro`` modules (a module that imported the function by name holds its own
reference) and restores them all on :meth:`Layers.uninstall`.

Wrapped calls nest.  Each metric counts only its outermost call, so a
function that calls itself through a wrapped name is timed once, and the
time spent under any wrapped call at all (``covered_s``) is what the
``obs.untraced_frac`` metric compares against the traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench.helpers import reset_vmhwm, vmhwm_kib


class Layers:
    """Accumulates per-layer busy time and counts while installed."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.covered_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ accounting
    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + value

    def _state(self):
        local = self._local
        if not hasattr(local, "depth"):
            local.depth = 0
            local.active = {}
            local.caller = []
        return local

    def _timed(self, metric: str, fn: Callable, keep_samples: bool = False,
               after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to add its outermost-call duration to ``metric``."""
        layers = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = layers._state()
            if state.active.get(metric):
                return fn(*args, **kwargs)
            state.active[metric] = True
            state.depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                state.depth -= 1
                state.active[metric] = False
                layers.add(metric, elapsed)
                if keep_samples:
                    with layers._lock:
                        layers.samples.setdefault(metric, []).append(elapsed)
                if state.depth == 0:
                    with layers._lock:
                        layers.covered_s += elapsed
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    # ------------------------------------------------------------- patching
    def _replace_function(self, original: Callable, wrapper: Callable) -> None:
        """Point every reference to ``original`` at ``wrapper``.

        References live in the loaded ``repro`` modules and in the kernel
        sets already built by ``repro.bsp.kernels.get_kernels``, which bind
        the reference kernels once and are reused by every later run.
        """
        from repro.bsp import kernels

        holders = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, attr, wrapper, original)
        for kernel_set in kernels._CACHE.values():
            for attr in kernels.KernelSet.__slots__:
                if getattr(kernel_set, attr) is original:
                    self._set(kernel_set, attr, wrapper, original)

    def _set(self, holder, attr: str, new, old) -> None:
        setattr(holder, attr, new)
        self._undo.append(lambda: setattr(holder, attr, old))

    def wrap_function(self, module, attr: str, metric: str, **options) -> None:
        original = getattr(module, attr)
        self._replace_function(original, self._timed(metric, original, **options))

    def wrap_method(self, cls, attr: str, metric: str, **options) -> None:
        original = cls.__dict__[attr]
        self._set(cls, attr, self._timed(metric, original, **options), original)

    def mark_caller(self, cls, attr: str, label: str) -> None:
        """Record ``label`` as the caller of engine runs made inside ``cls.attr``."""
        original = cls.__dict__[attr]
        layers = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = layers._state().caller
            stack.append(label)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()

        self._set(cls, attr, wrapper, original)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap the public entry points of every layer the workloads use."""
        from repro.bsp.engine import BSPEngine
        from repro.bsp.kernels import reference
        from repro.core.cost_model import CostModel
        from repro.core.extrapolation import Extrapolator
        from repro.core.predictor import Predictor
        from repro.core.sample_run import SampleRunner
        from repro.experiments.harness import ExperimentContext
        from repro.graph import datasets, ingest
        from repro.graph.digraph import DiGraph
        from repro.sampling.base import VertexSampler

        # repro.graph
        self.wrap_function(datasets, "load_dataset", "graph.load_s")
        self.wrap_method(DiGraph, "freeze", "graph.load_s")
        self.wrap_function(ingest, "ingest_edge_list", "graph.ingest_s",
                           after=self._after_ingest)
        self._wrap_ingest_rss(ingest)
        self.wrap_function(ingest, "load_csr_cache", "graph.open_csr_s")

        # repro.sampling
        self.wrap_method(VertexSampler, "sample", "sampling.sample_s",
                         after=self._after_sample)

        # repro.bsp
        self.mark_caller(ExperimentContext, "actual_run", "actual")
        self.wrap_method(SampleRunner, "run", "core.sample_run_s")
        self.mark_caller(SampleRunner, "run", "sample")
        self._wrap_engine_run(BSPEngine)

        # repro.bsp.kernels
        self.wrap_function(reference, "segment_left_fold_sums", "bsp.kernels.fold_s",
                           after=self._after_fold)
        self.wrap_function(reference, "masked_segment_left_fold", "bsp.kernels.fold_s",
                           after=self._after_masked_fold)

        # repro.core
        self.wrap_method(Predictor, "predict", "core.predict_s",
                         after=lambda *_: self.add("core.predict_calls", 1))
        self.wrap_method(CostModel, "train", "core.fit_s")
        self.wrap_method(Extrapolator, "extrapolate_rows", "core.extrapolate_s")

    def install_service(self) -> None:
        """Wrap the daemon-side entry points of the service layer."""
        from repro.service import canonical
        from repro.service.daemon import PredictionService

        self.wrap_method(PredictionService, "predict", "service.server_s",
                         keep_samples=True)
        self.wrap_function(canonical, "prediction_key", "service.key_s")

    # ------------------------------------------------------ after-call hooks
    def _after_ingest(self, args, kwargs, cache_dir, elapsed) -> None:
        with open(Path(cache_dir) / "meta.json") as handle:
            self.add("graph.ingest_edges", json.load(handle)["num_edges"])

    def _wrap_ingest_rss(self, ingest) -> None:
        """Record the ingest's peak-RSS rise over its starting RSS."""
        timed = ingest.ingest_edge_list
        layers = self

        @functools.wraps(timed)
        def wrapper(*args, **kwargs):
            reset = reset_vmhwm()
            before = vmhwm_kib()
            try:
                return timed(*args, **kwargs)
            finally:
                if reset:
                    layers.add("graph.ingest_rss_delta_kib", vmhwm_kib() - before)
                    layers.add("graph.ingest_rss_samples", 1)

        self._replace_function(timed, wrapper)

    def _after_sample(self, args, kwargs, sample, elapsed) -> None:
        self.add("sampling.calls", 1)
        self.add("sampling.vertices", sample.num_vertices)

    def _after_fold(self, args, kwargs, result, elapsed) -> None:
        self.add("bsp.kernels.fold_calls", 1)
        lengths = args[1] if len(args) > 1 else kwargs["lengths"]
        self.add("bsp.kernels.fold_elements", int(np.sum(lengths)))

    def _after_masked_fold(self, args, kwargs, result, elapsed) -> None:
        self.add("bsp.kernels.fold_calls", 1)
        mask = args[1] if len(args) > 1 else kwargs["mask"]
        self.add("bsp.kernels.fold_elements", int(np.count_nonzero(mask)))

    def _wrap_engine_run(self, engine_cls) -> None:
        """Time ``BSPEngine.run`` split by caller: actual run or sample run."""
        original = engine_cls.__dict__["run"]
        timed = {
            label: self._timed(f"bsp.{label}_run_s", original)
            for label in ("actual", "sample", "other")
        }
        layers = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            caller = layers._state().caller
            result = timed[caller[-1] if caller else "other"](*args, **kwargs)
            layers.add("bsp.supersteps", result.num_iterations)
            layers.add("bsp.messages", result.total_messages())
            return result

        self._set(engine_cls, "run", wrapper, original)
