"""The BSP execution engine (Giraph stand-in).

:class:`BSPEngine` executes an :class:`repro.algorithms.base.IterativeAlgorithm`
on a :class:`repro.graph.DiGraph` (or a frozen
:class:`repro.graph.csr.CSRGraph`) over a simulated cluster and returns a
:class:`repro.bsp.result.RunResult` with per-iteration key-input-feature
profiles and simulated runtimes.

The engine follows the phase structure described in §2.2 of the paper:

* **setup phase** -- the master partitions the input over the workers,
* **read phase** -- workers load their partitions (timed from graph size),
* **superstep phase** -- repeated compute / messaging / synchronisation,
* **write phase** -- workers write the output graph.

Within each superstep every worker runs the algorithm's ``compute`` for each
of its active vertices, messages are buffered for delivery in the next
superstep (classified as local or remote depending on the destination
vertex's worker), aggregators are reduced at the barrier, and the master
evaluates the algorithm's global convergence condition.

Vectorized superstep fast path
------------------------------
Dispatching one Python ``compute`` call per vertex per superstep caps the
simulator at toy graph sizes.  When three conditions hold --

1. the run graph is frozen (``graph.is_frozen``; see ``DiGraph.freeze()``),
2. the algorithm implements ``compute_batch`` (PageRank and connected
   components do) with a constant ``batch_message_size``, and
3. the vertex values vectorize into a numeric NumPy array --

the engine instead processes **all active vertices of all workers in one
array pass** per superstep (one ``compute_batch`` call per worker block; see
:meth:`repro.bsp.ragged.BatchPlane.compute_block`).  Message routing and
combining are array reductions over the CSR edge stream, and the per-worker
local/remote message and byte counters are derived from the same arrays --
each send's edge stream is cut at the worker boundaries -- so every
:class:`IterationProfile` feature stays *bit-identical* to the scalar path:

* edges are expanded in exactly the scalar send order (worker by worker,
  vertices in partition order, out-edges in adjacency order), so the
  floating-point accumulation order of message sums matches the scalar
  bucket-append-then-``sum`` order;
* aggregator contributions are folded sequentially in the same vertex order
  (:meth:`AggregatorRegistry.contribute_many`);
* counters are integer array reductions, exact by construction.

``tests/test_differential_engine.py`` asserts this equivalence on dozens of
seeded graphs; ``EngineConfig(vectorized=False)`` forces the scalar path.

Partition-native execution layout
---------------------------------
By default (``EngineConfig(partition_native=True)``) a batch-plane run does
not execute on the frozen graph as loaded: it executes on
``graph.repartition(partitioning)`` -- a one-time relabelling into
*partition-contiguous* vertex order (see
:class:`repro.graph.partition.PartitionLayout`).  Worker ``w`` then owns the
contiguous index range ``offsets[w]:offsets[w + 1]`` and a contiguous CSR
edge slice, which turns the per-superstep hot loops into slice arithmetic:

* activation is one pass over the block's vertex slice;
* a block whose active set is its whole partition expands its out-edges as
  a *view* of the CSR ``targets`` array -- no ``concat_ranges`` gather;
* the local/remote message split is two range comparisons against the
  sender's offsets instead of a gather through a vertex-to-worker map;
* per-worker delivered counts/bytes for the memory model are segment sums
  over the worker boundaries, one pass for all workers.

Message reductions are deferred to the superstep barrier: the edge stream is
buffered per send call and folded once -- ``np.bincount`` for ``sum``
(element-order identical to the scalar bucket-append-then-``sum``),
destination-sort + ``reduceat`` for ``min``.  Vertex ids travel with the
permutation, so results and counters are reported exactly as before;
``partition_native=False`` keeps the legacy gather-based batch plane (the
baseline the layout benchmark compares against).

Algorithms with *variable-size* messages (semi-clustering, top-k ranking,
neighborhood estimation) ride the **ragged message plane** instead: the same
engine hooks, but payloads are offset-indexed ragged arrays (or numeric
record rows, or batch-routed Python objects) and per-message byte sizes are
reported at send time.  See :mod:`repro.bsp.ragged`; the dispatch between the
planes happens once per run in ``_build_batch_state`` based on the
algorithm's ``batch_payload``.  Semi-clustering's ``"object"`` kind has a
numeric fast path (``EngineConfig.semicluster_numeric``, default on) that
encodes semi-clusters as fixed-width numeric records so the whole fold runs
as array kernels; ``semicluster_numeric=False`` keeps the per-vertex Python
fold reachable as the differential baseline.

Sent vs. delivered messages (combiner semantics)
------------------------------------------------
Message *counters* (the paper's Table 1 features) always reflect messages
**sent**, before any combining -- that is what the sending worker pays for
and what PREDIcT extrapolates.  What occupies receiver memory is the
**delivered** buffer: with a combiner, one combined payload per destination
vertex.  The memory model is therefore fed delivered counts/bytes
(``_buffered_for``), while the counters and ``_next_message_count`` remain
pre-combining.  See :mod:`repro.bsp.messages` for the full semantics note.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

import numpy as np

from repro.bsp.aggregators import AggregatorRegistry
from repro.bsp.counters import IterationProfile
from repro.bsp.master import GraphInfo, Master
from repro.bsp.ragged import BatchPlane, RaggedBatchContext, build_ragged_state
from repro.bsp.result import PhaseTimes, RunResult
from repro.bsp.runtime_model import RuntimeModel
from repro.bsp.worker import Worker
from repro.cluster.cost_profile import DEFAULT_PROFILE, CostProfile
from repro.cluster.memory import MemoryModel
from repro.cluster.spec import ClusterSpec
from repro.exceptions import BSPError
from repro.graph.digraph import DiGraph
from repro.graph.partition import BasePartitioner, HashPartitioner
from repro.bsp.kernels import get_kernels
from repro.obs.probes import superstep_attrs
from repro.obs.tracer import NULL_TRACER
from repro.utils.rng import SeedLike

VertexId = Hashable


@dataclass
class EngineConfig:
    """Execution parameters of the BSP engine.

    Attributes
    ----------
    num_workers:
        Number of worker tasks; defaults to the cluster spec's worker count.
    max_supersteps:
        Hard budget on supersteps (guards against non-converging algorithms).
    enforce_memory:
        When True the memory model raises
        :class:`repro.exceptions.OutOfMemoryError` if a worker's buffered
        messages plus graph partition exceed its allocation.
    collect_vertex_values:
        When True the final vertex values are returned in the result (needed
        when one algorithm's output feeds another, e.g. PageRank -> top-k).
    use_combiner:
        When True and the algorithm provides a combiner, messages to the same
        destination are combined in the buffers (reduces memory, not counters).
    runtime_seed:
        Seed of the runtime model's noise stream.
    vectorized:
        When True (default) and the graph is frozen (CSR) and the algorithm
        implements ``compute_batch``, supersteps run on the array fast path.
        Set to False to force the scalar per-vertex path (the differential
        tests do this to compare both).
    partition_native:
        When True (default) a batch-plane run executes on the
        partition-contiguous relabelling of the frozen graph
        (``graph.repartition(partitioning)``): per-worker vertex ranges and
        edge slices are contiguous, so routing and accounting run on slice
        arithmetic.  Set to False to keep the legacy gather-based batch
        plane (differential baseline; results are bit-identical either way).
    semicluster_numeric:
        When True (default) an ``"object"``-kind algorithm that provides the
        numeric-record hooks (semi-clustering) runs its batch supersteps on
        the numeric fast path (:class:`repro.bsp.ragged.ClusterRowsState`):
        payloads are fixed-width float64 records and the per-vertex Python
        fold disappears.  Set to False to keep the Python-object fold
        (:class:`repro.bsp.ragged.ObjectState`) as the differential/benchmark
        baseline; results are bit-identical either way.
    backend:
        ``"inline"`` (default) runs supersteps in this process.
        ``"process"`` executes them on the shared-memory multiprocess
        backend (:mod:`repro.bsp.parallel`): each worker process owns a
        contiguous block of BSP workers of the partition-native layout and
        message reduction is owner-sharded -- results stay bit-identical to
        the inline backend.  Requires a frozen graph, a batch-capable
        algorithm and the partition-native layout; ineligible runs fall back
        to the inline loop (same results).
    processes:
        OS processes of the ``"process"`` backend.  Defaults to
        ``min(num_workers, available cpus)``; always clamped to
        ``num_workers``.  Independent of the *simulated* worker count: the
        Table 1 profiles describe the modelled cluster either way.
    process_start_method:
        ``multiprocessing`` start method of the worker pool (default
        ``"spawn"``: slowest to start but safe everywhere; pools are
        persistent and cached on the engine, so the cost is paid once).
    trace:
        A :class:`repro.obs.Tracer` to record the run into, or None
        (default) for no tracing.  When set, the engine emits phase and
        superstep spans -- each superstep span carries the measured wall
        time *and* the modeled :class:`RuntimeModel` time plus the Table 1
        counters -- and ``RunResult.trace`` references the tracer.  When
        None every instrumentation point runs against the allocation-free
        :data:`repro.obs.NULL_TRACER`, so the hot path is untouched.  See
        ``docs/OBSERVABILITY.md``.
    kernel_tier:
        Which implementation tier the hot segment kernels run on:
        ``"numpy"`` (the pure-NumPy reference implementations), ``"numba"``
        (compiled nogil loop twins; silently falls back to ``"numpy"`` when
        numba is not installed) or ``"auto"`` (compiled when available).
        None (default) defers to the ``REPRO_KERNEL_TIER`` environment
        variable, then ``"auto"``.  Results are bit-identical across tiers
        -- the differential suite runs parametrized over them.  See
        ``docs/KERNELS.md``.
    threads:
        Thread count for the compiled tier's nogil fold kernels (default 1
        = no threading).  The numba kernels release the GIL, so a pool
        child can split one kernel invocation across threads -- processes x
        threads hybrid parallelism on big hosts.  Ignored on the numpy
        tier.  Thread splits are aligned to segment boundaries, so results
        stay bit-identical for any thread count.
    checkpoint_every:
        Checkpoint the full mutable engine state (plane values, active
        sets, delivered messages, aggregator barrier results, runtime-model
        RNG state, iteration history) every N supersteps, at the barrier (0,
        the default, disables checkpointing).  On the process backend a
        recoverable barrier fault (crashed or straggling child, corrupted
        stream) then rewinds to the last checkpoint and replays -- the
        recovered run is bit-identical to an undisturbed one.  Requires a
        batch-plane run; the scalar fallback ignores it.  See
        ``docs/RESILIENCE.md``.
    checkpoint_dir:
        Directory to additionally persist checkpoints to (atomic tmp +
        ``os.replace`` writes with a config-hash manifest); None (default)
        keeps them in memory only.  Needed for ``resume``.
    resume:
        Load the latest checkpoint from ``checkpoint_dir`` before the run
        and continue from its superstep.  The manifest's config hash must
        match this run's configuration.
    barrier_timeout_s:
        Deadline in seconds for each process-backend barrier collect.  On
        expiry child pids are probed and the failure is classified (crash /
        straggler); None (default) waits forever.
    recovery_attempts:
        Bounded rewind-and-replay retries per run on the process backend.
        When exhausted (or the pool cannot be respawned) the run degrades
        gracefully: the pool is shut down and the remaining supersteps
        replay inline from the last checkpoint.
    fault_plan:
        A :class:`repro.bsp.resilience.FaultPlan` of injected faults (kill /
        stop / stall / poison / corrupt a worker process at a superstep) for
        testing the recovery machinery; None (default) injects nothing.
    """

    num_workers: Optional[int] = None
    max_supersteps: int = 200
    enforce_memory: bool = False
    collect_vertex_values: bool = False
    use_combiner: bool = False
    runtime_seed: SeedLike = None
    partitioner: BasePartitioner = field(default_factory=HashPartitioner)
    vectorized: bool = True
    partition_native: bool = True
    semicluster_numeric: bool = True
    backend: str = "inline"
    processes: Optional[int] = None
    process_start_method: str = "spawn"
    trace: Optional[Any] = None
    kernel_tier: Optional[str] = None
    threads: Optional[int] = None
    checkpoint_every: int = 0
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    barrier_timeout_s: Optional[float] = None
    recovery_attempts: int = 2
    fault_plan: Optional[Any] = None


class BSPEngine:
    """Executes iterative vertex-centric algorithms on the simulated cluster."""

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        cost_profile: Optional[CostProfile] = None,
        shared_pools: Optional[Dict[tuple, Any]] = None,
    ) -> None:
        self.cluster = cluster or ClusterSpec()
        self.cost_profile = cost_profile or DEFAULT_PROFILE
        # Process-backend pools, keyed by (processes, start_method).  Pools
        # are persistent: sweeps and test suites reuse the same worker
        # processes across runs instead of paying interpreter start-up per
        # run.  close_pools() shuts them down explicitly; the processes are
        # daemonic, so an un-closed pool cannot outlive the interpreter.
        #
        # A caller owning several engines (the prediction service keeps one
        # ExperimentContext per cluster-spec/budget combination) can pass the
        # same ``shared_pools`` dict to all of them: the engines then borrow
        # one pool map instead of spawning worker processes per engine, and
        # the owner -- not the engines -- closes the map exactly once via
        # :meth:`release_pools`.
        self._pools: Dict[tuple, Any] = shared_pools if shared_pools is not None else {}
        self._owns_pools = shared_pools is None

    def process_pool(self, processes: int, start_method: str = "spawn"):
        """The cached persistent worker pool for the process backend."""
        from repro.bsp.parallel.pool import ProcessWorkerPool

        key = (processes, start_method)
        pool = self._pools.get(key)
        if pool is None or not pool.alive:
            pool = ProcessWorkerPool(processes, start_method)
            self._pools[key] = pool
        return pool

    def close_pools(self) -> None:
        """Shut down every cached process-backend pool.

        A no-op on engines borrowing a shared pool map -- the map's owner
        closes it (exactly once) with :meth:`release_pools`.
        """
        if not self._owns_pools:
            return
        self.release_pools(self._pools)

    @staticmethod
    def release_pools(pools: Dict[tuple, Any]) -> None:
        """Close every pool in ``pools`` and empty the map.

        Exception-safe: every pool's close() is attempted even when an
        earlier one fails (a worker that died mid-close must not leave the
        remaining pools' shared-memory arenas behind); the first failure is
        re-raised after the sweep.
        """
        first_error: Optional[BaseException] = None
        for pool in pools.values():
            try:
                pool.close()
            except BaseException as exc:  # keep sweeping /dev/shm
                if first_error is None:
                    first_error = exc
        pools.clear()
        if first_error is not None:
            raise first_error

    @staticmethod
    def describe_pools(pools: Dict[tuple, Any]) -> List[Dict[str, Any]]:
        """One status row per pool in a pool map (the service ``status`` verb)."""
        return [
            {
                "processes": key[0],
                "start_method": key[1],
                "alive": bool(getattr(pool, "alive", False)),
            }
            for key, pool in pools.items()
        ]

    def __enter__(self) -> "BSPEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Context-manager exit releases the cached process pools (joining
        # the worker processes and sweeping their /dev/shm arena blocks);
        # without it a CLI run that built a pool leaks it until interpreter
        # exit.  Entering is free -- pools are still created lazily.
        self.close_pools()

    # -------------------------------------------------------------- run loop
    def run(
        self,
        graph: DiGraph,
        algorithm,
        config=None,
        engine_config: Optional[EngineConfig] = None,
    ) -> RunResult:
        """Execute ``algorithm`` on ``graph`` and return the run profile."""
        engine_config = engine_config or EngineConfig()
        config = config if config is not None else algorithm.default_config()
        algorithm.validate_config(config)

        if engine_config.backend not in ("inline", "process"):
            raise BSPError(
                f"unknown execution backend {engine_config.backend!r}; "
                "available: 'inline', 'process'"
            )
        if graph.num_vertices == 0:
            raise BSPError("cannot execute an algorithm on an empty graph")

        run_graph = algorithm.prepare_graph(graph, config)
        num_workers = engine_config.num_workers or self.cluster.num_workers
        num_workers = min(num_workers, run_graph.num_vertices)

        run = _EngineRun(
            engine=self,
            graph=run_graph,
            algorithm=algorithm,
            config=config,
            engine_config=engine_config,
            num_workers=num_workers,
        )
        return run.execute(original_graph_name=graph.name)


class BatchContext(RaggedBatchContext):
    """Worker-block view handed to an algorithm's ``compute_batch``.

    One instance is built per (worker block, superstep) on the scalar-payload
    fast path: inline the block is every worker, on the process backend the
    process's own worker block, and ``indices`` concatenates the block's
    active vertices in worker order.  It is the array analogue of
    :class:`repro.bsp.vertex.VertexContext`; the shared surface
    (``indices`` / ``out_degrees`` / ``message_counts`` / ``aggregate`` /
    ``vote_to_halt``) comes from
    :class:`repro.bsp.ragged.RaggedBatchContext`, so the semantics every
    batch plane must keep bit-identical exist once.  On top of it:

    * ``values`` -- the global vertex-value array; assign slices to update.
    * ``incoming`` -- reduced messages per vertex (via the algorithm's
      ``batch_message_reducer``); only meaningful where ``message_counts``
      is non-zero.
    * ``send_to_all_neighbors`` sends one fixed-size payload per out-edge.
    """

    __slots__ = ()

    # ------------------------------------------------------------------ state
    @property
    def values(self) -> np.ndarray:
        """Global vertex-value array (index with ``self.indices``)."""
        return self._state.values

    @property
    def incoming(self) -> np.ndarray:
        """Reduced incoming messages per vertex (this superstep's delivery)."""
        return self._state.msg_acc

    # ------------------------------------------------------------- operations
    def send_to_all_neighbors(self, payloads, mask=None) -> None:
        """Send ``payloads[i]`` along every out-edge of ``indices[i]``.

        ``payloads`` is aligned with ``self.indices``; ``mask`` (optional,
        bool, same alignment) restricts the senders.  Edge expansion follows
        the scalar send order exactly, so message accumulation and counters
        match the per-vertex path bit for bit.  The payload array is buffered
        until the superstep barrier -- treat it as immutable after sending
        (the batch algorithms always pass freshly computed arrays).
        """
        self._state.send_to_all_neighbors(self._block, self.indices, payloads, mask)


class _VectorizedState(BatchPlane):
    """Array mirror of one engine run's mutable state (scalar payloads).

    The plane for fixed-size scalar messages; shares the superstep loop,
    activation rule and barrier bookkeeping with the ragged payload kinds
    through :class:`repro.bsp.ragged.BatchPlane`.
    """

    context_cls = BatchContext

    def __init__(self, run: "_EngineRun", values: np.ndarray) -> None:
        super().__init__(run)
        n = self.graph.num_vertices
        self.values = values
        self.message_size = int(run.algorithm.batch_message_size)
        reducer = run.algorithm.batch_message_reducer
        if reducer == "sum":
            self._neutral = values.dtype.type(0)
        elif reducer == "min":
            if values.dtype.kind == "i":
                self._neutral = np.iinfo(values.dtype).max
            else:
                self._neutral = values.dtype.type(np.inf)
        else:
            raise BSPError(f"unsupported batch_message_reducer {reducer!r}")
        self._reducer = reducer
        self.msg_acc = np.full(n, self._neutral, dtype=values.dtype)
        self.acc_next = np.full(n, self._neutral, dtype=values.dtype)
        # Per-superstep send-event buffers: the edge stream is folded once at
        # the barrier (_commit_superstep) instead of one ufunc.at per call.
        # Payloads are buffered per *sender* with their edge lengths -- the
        # per-edge expansion is one np.repeat over the concatenated stream at
        # the barrier.  _ev_espan records the CSR edge-slot span of contiguous
        # sends (None for gathered sends) -- when the spans tile the edge
        # array, the concatenated destination stream *is* the targets array.
        self._ev_dest: List[np.ndarray] = []
        self._ev_pay: List[np.ndarray] = []
        self._ev_len: List[np.ndarray] = []
        self._ev_espan: List[Optional[tuple]] = []

    @classmethod
    def try_build(cls, run: "_EngineRun") -> Optional["_VectorizedState"]:
        """Build the fast-path state, or return None when ineligible."""
        algorithm = run.algorithm
        if not (
            run.engine_config.vectorized
            and getattr(run.graph, "is_frozen", False)
            and callable(getattr(algorithm, "compute_batch", None))
            and getattr(algorithm, "batch_message_size", None) is not None
        ):
            return None
        values = np.asarray(
            [run.values[vertex] for vertex in run.batch_graph().vertices()]
        )
        if values.dtype.kind not in "if":
            # Non-numeric vertex values (e.g. string component labels) cannot
            # ride the array path; fall back to scalar compute.
            return None
        return cls(run, values)

    # -------------------------------------------------------------- messaging
    def send_to_all_neighbors(self, workers, indices, payloads, mask) -> None:
        payloads = np.asarray(payloads)
        if mask is not None:
            indices = indices[mask]
            payloads = payloads[mask]
        expanded = self._expand(indices)
        if expanded is None:
            return
        destinations, lengths, _, _, edge_span = expanded
        self._ev_dest.append(destinations)
        self._ev_pay.append(payloads)
        self._ev_len.append(lengths)
        self._ev_espan.append(edge_span)
        self._record_sent(workers, indices, expanded, self.message_size)

    def _commit_superstep(self) -> None:
        """Fold the superstep's buffered edge stream into the accumulators.

        The buffered stream concatenates the send calls in scalar send order
        (worker by worker, vertices in partition order, out-edges in
        adjacency order).  For ``sum`` the fold is one ``np.bincount`` with
        weights: bincount adds weights element by element in stream order, so
        float accumulation per destination is bit-identical to both the
        per-call ``np.add.at`` scatter it replaces and the scalar path's
        bucket-append-then-``sum``.  For ``min`` the stream is grouped by
        destination (sort + ``reduceat``); min is exact and order-insensitive.
        """
        if not self._ev_dest:
            return
        spans = self._ev_espan
        tiled = all(span is not None for span in spans) and all(
            spans[i][1] == spans[i + 1][0] for i in range(len(spans) - 1)
        )
        if tiled:
            # Contiguous sends in worker order tile one CSR edge-slot range:
            # the concatenated destination stream is a *view* of targets.
            dest = self.targets[spans[0][0] : spans[-1][1]]
        elif len(self._ev_dest) == 1:
            dest = self._ev_dest[0]
        else:
            dest = np.concatenate(self._ev_dest)
        if len(self._ev_pay) == 1:
            payloads = np.repeat(self._ev_pay[0], self._ev_len[0])
        else:
            # One per-edge expansion over the whole stream: repeat distributes
            # over concatenation, so this equals the per-call expansions in
            # exact send order.
            payloads = np.repeat(
                np.concatenate(self._ev_pay), np.concatenate(self._ev_len)
            )
        self._ev_dest = []
        self._ev_pay = []
        self._ev_len = []
        self._ev_espan = []
        full_tiled = tiled and spans[0][0] == 0 and spans[-1][1] == len(self.targets)
        self._fold_stream(dest, payloads, use_in_degrees=full_tiled)

    def _fold_stream(
        self, dest: np.ndarray, payloads: np.ndarray, use_in_degrees: bool = False
    ) -> None:
        """Fold one pre-expanded edge stream into the next-superstep buffers.

        ``dest[i]`` / ``payloads[i]`` describe one message; the stream must
        be in scalar send order.  Factored out of :meth:`_commit_superstep`
        so the process backend's owner-sharded reduction
        (:mod:`repro.bsp.parallel.protocol`) folds its range-filtered
        sub-stream through the *same* kernels -- one implementation of the
        accumulation order either way.  ``use_in_degrees`` short-circuits the
        destination counts with the cached in-degrees in the full-graph
        steady state (PageRank: every vertex sends along every edge).
        """
        n = len(self.count_next)
        if use_in_degrees:
            self.count_next += self.graph.in_degrees
        else:
            self.count_next += np.bincount(dest, minlength=n)
        if self._reducer == "sum" and self.acc_next.dtype.kind == "f":
            self.acc_next += np.bincount(dest, weights=payloads, minlength=n)
        elif self._reducer == "sum":
            np.add.at(self.acc_next, dest, payloads)
        else:
            # Non-stable sort: min is commutative and exact (it selects one
            # of the operands), so the within-group order cannot change bits.
            order = np.argsort(dest)
            sorted_dest = dest[order]
            group_starts = np.flatnonzero(
                np.concatenate(([True], sorted_dest[1:] != sorted_dest[:-1]))
            )
            reduced = np.minimum.reduceat(payloads[order], group_starts)
            unique_dest = sorted_dest[group_starts]
            self.acc_next[unique_dest] = np.minimum(self.acc_next[unique_dest], reduced)

    # ------------------------------------------------------------- accounting
    def buffered_for(self, worker: Worker):
        """(delivered_messages, delivered_bytes) buffered for ``worker``."""
        counts = self.count_next[self.own_selector(worker.worker_id)]
        if self.run.combiner is not None:
            delivered = int(np.count_nonzero(counts))
        else:
            delivered = int(counts.sum())
        return delivered, delivered * self.message_size

    def buffered_all(self):
        """Per-worker delivered ``(messages, bytes)`` arrays for all workers."""
        if self.worker_offsets is None:
            return super().buffered_all()
        if self.run.combiner is not None:
            delivered = self._segment_sums((self.count_next > 0).astype(np.int64))
        else:
            delivered = self._segment_sums(self.count_next)
        return delivered, delivered * self.message_size

    def _advance_payloads(self) -> None:
        self.msg_acc = self.acc_next
        self.acc_next = np.full(len(self.msg_acc), self._neutral, dtype=self.msg_acc.dtype)

    def export_values(self) -> Dict[VertexId, Any]:
        """Write the value array back into an id-keyed dict (scalar types)."""
        return dict(zip(self.graph.vertices(), self.values.tolist()))


def _build_batch_state(run: "_EngineRun"):
    """Pick the batch plane for ``run``'s algorithm, or None for scalar.

    Algorithms with ``batch_payload == "scalar"`` (fixed-size numeric
    messages) ride :class:`_VectorizedState`; the variable-size payload kinds
    (``"rows"`` / ``"ragged"`` / ``"object"``) ride the ragged message plane
    of :mod:`repro.bsp.ragged`.  Both builders return None when the run is
    ineligible (non-frozen graph, no ``compute_batch``, non-encodable
    values), in which case the engine falls back to per-vertex ``compute``.
    """
    if getattr(run.algorithm, "batch_payload", "scalar") != "scalar":
        return build_ragged_state(run)
    return _VectorizedState.try_build(run)


class _EngineRun:
    """Mutable state of one engine execution (kept out of the public API)."""

    def __init__(self, engine, graph, algorithm, config, engine_config, num_workers) -> None:
        self.engine = engine
        self.graph = graph
        self.algorithm = algorithm
        self.config = config
        self.engine_config = engine_config
        self.num_workers = num_workers

        self.partitioning = engine_config.partitioner.partition(graph, num_workers)
        self.workers = [
            Worker(worker_id, self.partitioning.vertices_of(worker_id), self)
            for worker_id in range(num_workers)
        ]
        for worker in self.workers:
            worker._context.num_vertices = graph.num_vertices
            worker._context.num_edges = graph.num_edges
        self.runtime_model = RuntimeModel(engine.cost_profile, seed=engine_config.runtime_seed)
        self.memory_model = MemoryModel(engine.cluster, enforce=engine_config.enforce_memory)
        # Tier-resolved hot-kernel set (see repro.bsp.kernels): bound once
        # per run so every batch plane and algorithm call site shares it.
        self.kernels = get_kernels(engine_config.kernel_tier, engine_config.threads)
        # The tracer is threaded explicitly (never via the ambient context
        # variable) so the disabled path is a plain attribute load of the
        # allocation-free null tracer.
        self.tracer = engine_config.trace if engine_config.trace is not None else NULL_TRACER

        self.values: Dict[VertexId, Any] = {}
        self.halted: set = set()
        self.incoming: Dict[VertexId, List[Any]] = {}
        self.next_incoming: Dict[VertexId, List[Any]] = {}
        self.registry = AggregatorRegistry(
            {agg.name: agg for agg in algorithm.aggregators(config)}
        )
        self.message_sizer = algorithm.message_size
        self.combiner = algorithm.combiner(config) if engine_config.use_combiner else None

        # Per-superstep bookkeeping, reset in _begin_superstep.  Counters on
        # the workers track the sent (pre-combining) stream; this dict tracks
        # delivered (post-combining) bytes per worker for the memory model.
        self._next_message_count = 0
        self._next_buffered_bytes: Dict[int, int] = {}
        self._vector: Optional[BatchPlane] = None
        self._worker_edge_counts: Optional[np.ndarray] = None
        self._batch_graph = None

        # Resilience: superstep checkpoints + recovery accounting (see
        # repro.bsp.resilience and docs/RESILIENCE.md).  The attempt token
        # versions process-backend runs so barrier collects can discard
        # stale messages from an attempt abandoned by a rewind.
        from repro.bsp.resilience import CheckpointManager, RecoveryLog, config_fingerprint

        self.checkpoint_manager = CheckpointManager(
            every=engine_config.checkpoint_every,
            directory=engine_config.checkpoint_dir,
            config_hash=config_fingerprint(
                engine_config, algorithm.name, graph.name, num_workers
            ),
        )
        self.recovery = RecoveryLog()
        self._attempt_token = 0

    def batch_graph(self):
        """The graph the batch planes execute on (cached per run).

        With ``partition_native`` enabled and a frozen graph this is the
        partition-contiguous relabelling ``graph.repartition(partitioning)``
        -- built once per run, carrying its ``partition_layout``.  Otherwise
        it is the run graph itself (legacy gather-based layout).
        """
        if self._batch_graph is None:
            graph = self.graph
            if (
                self.engine_config.partition_native
                and getattr(graph, "is_frozen", False)
                and hasattr(graph, "repartition")
            ):
                graph = graph.repartition(self.partitioning)
            self._batch_graph = graph
        return self._batch_graph

    # --------------------------------------------------------- vertex API
    def vertex_value(self, vertex: VertexId) -> Any:
        return self.values[vertex]

    def set_vertex_value(self, vertex: VertexId, value: Any) -> None:
        self.values[vertex] = value

    def out_edges(self, vertex: VertexId):
        return self.graph.out_edges(vertex)

    def out_degree(self, vertex: VertexId) -> int:
        return self.graph.out_degree(vertex)

    def vote_to_halt(self, vertex: VertexId) -> None:
        self.halted.add(vertex)

    def aggregate(self, name: str, value: float) -> None:
        self.registry.contribute(name, value)

    def previous_aggregate(self, name: str) -> float:
        return self.registry.previous_value(name)

    def send_message(self, worker: Worker, source: VertexId, target: VertexId, payload: Any) -> None:
        """Route a message, updating the sending worker's counters."""
        if target not in self.partitioning.assignment:
            raise BSPError(f"message sent to unknown vertex {target!r}")
        size = self.message_sizer(payload)
        counters = worker.counters
        counters.messages_sent += 1
        target_worker = self.partitioning.assignment[target]
        if target_worker == worker.worker_id:
            counters.local_messages += 1
            counters.local_message_bytes += size
        else:
            counters.remote_messages += 1
            counters.remote_message_bytes += size
        bucket = self.next_incoming.get(target)
        if bucket is None:
            self.next_incoming[target] = [payload]
            delivered_delta = size
        elif self.combiner is not None:
            previous = bucket[0]
            combined = self.combiner.combine(previous, payload)
            bucket[0] = combined
            # The combined payload replaces the previous one in the buffer, so
            # delivered bytes grow only by the size difference (zero for
            # fixed-size payloads such as PageRank's rank contributions).
            delivered_delta = self.message_sizer(combined) - self.message_sizer(previous)
        else:
            bucket.append(payload)
            delivered_delta = size
        self._next_message_count += 1
        self._next_buffered_bytes[target_worker] = (
            self._next_buffered_bytes.get(target_worker, 0) + delivered_delta
        )

    # ----------------------------------------------------------- execution
    def execute(self, original_graph_name: str) -> RunResult:
        graph = self.graph
        algorithm = self.algorithm
        config = self.config
        engine_config = self.engine_config
        tracer = self.tracer

        run_span = tracer.begin("engine.run")
        if tracer.enabled:
            run_span.merge({
                "algorithm": algorithm.name,
                "graph": original_graph_name,
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "num_workers": self.num_workers,
                "backend": engine_config.backend,
                "kernel_tier": self.kernels.tier,
                "threads": self.kernels.threads,
            })

        setup_span = tracer.begin("phase.setup")
        graph_info = GraphInfo(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            name=graph.name,
        )
        master = Master(algorithm, config, graph_info, engine_config.max_supersteps)

        # Setup + read phases.
        phase_times = PhaseTimes(
            setup=self.runtime_model.setup_time(),
            read=self.runtime_model.read_time(
                graph.num_vertices, graph.num_edges, self.num_workers
            ),
        )
        if tracer.enabled:
            setup_span.set("modeled_s", phase_times.setup)
        setup_span.finish()

        # The read phase's measured twin is initial-value assignment plus
        # the batch-plane build (the engine's analogue of loading
        # partitions); its modeled time comes from the runtime model.
        read_span = tracer.begin("phase.read")
        for vertex in graph.vertices():
            self.values[vertex] = algorithm.initial_value(vertex, graph, config)

        # Decide scalar vs. vectorized execution once per run.
        self._vector = _build_batch_state(self)
        if tracer.enabled:
            read_span.set("modeled_s", phase_times.read)
        read_span.finish()

        # The process backend shards batch-plane supersteps over a pool of
        # OS worker processes (see repro.bsp.parallel).  It needs the
        # partition-native layout (contiguous per-worker vertex ranges are
        # the shard boundaries); any ineligible run -- scalar fallback,
        # unfrozen graph, legacy gather layout -- executes inline instead,
        # with identical results.
        if (
            engine_config.backend == "process"
            and self._vector is not None
            and self._vector.worker_offsets is not None
        ):
            from repro.bsp.parallel.pool import run_process_backend

            try:
                return run_process_backend(self, master, phase_times, original_graph_name)
            finally:
                run_span.finish()

        # Inline resilience: optionally resume from a persisted checkpoint,
        # otherwise store a baseline checkpoint so the first rewind target
        # exists before the first interval elapses.
        iterations: List[IterationProfile] = []
        convergence_history: List[float] = []
        start_superstep = 0
        manager = self.checkpoint_manager
        if engine_config.resume and self._vector is not None:
            resume_from = manager.load_from_disk()
            self._restore_checkpoint(resume_from)
            iterations = list(resume_from.iterations)
            convergence_history = list(resume_from.convergence_history)
            start_superstep = resume_from.superstep
        elif (
            manager.enabled
            and self._vector is not None
            and manager.latest() is None
        ):
            manager.store(self._build_checkpoint(0, [], []))
            self.recovery.checkpoints += 1
            tracer.counter("recovery.checkpoints")

        converged = self._superstep_loop(
            master, iterations, convergence_history, start_superstep
        )
        result = self._finish_run(
            iterations, convergence_history, converged, phase_times, original_graph_name
        )
        run_span.finish()
        return result

    def _superstep_loop(
        self,
        master: Master,
        iterations: List[IterationProfile],
        convergence_history: List[float],
        start_superstep: int = 0,
    ) -> bool:
        """Run inline supersteps from ``start_superstep`` until convergence.

        Appends to ``iterations`` / ``convergence_history`` in place (they
        may already hold the profiles replayed from a checkpoint) and
        returns whether the run converged.  Checkpoints are taken at the
        barrier, *after* the buffer swap — the stored superstep is the next
        one to execute.
        """
        engine_config = self.engine_config
        algorithm = self.algorithm
        config = self.config
        tracer = self.tracer
        manager = self.checkpoint_manager
        converged = False

        loop_span = tracer.begin("phase.superstep")
        for superstep in range(start_superstep, engine_config.max_supersteps):
            ss_span = tracer.begin("superstep")
            self._begin_superstep()
            if self._vector is not None:
                self._vector.execute_superstep(superstep)
            else:
                compute_span = tracer.begin("compute")
                for worker in self.workers:
                    worker.begin_superstep(superstep)
                    worker.execute_superstep(
                        superstep,
                        self.incoming,
                        self.halted,
                        lambda ctx, msgs: algorithm.compute(ctx, msgs, config),
                    )
                compute_span.finish()

            # Memory accounting for the buffered (next-superstep) messages.
            if engine_config.enforce_memory:
                self._check_memory()

            worker_counters = [worker.counters for worker in self.workers]
            runtime, critical_worker = self.runtime_model.superstep_time(worker_counters)

            barrier_span = tracer.begin("barrier")
            aggregates = self.registry.barrier()

            active_next = self._count_active_next()
            decision = master.after_superstep(
                superstep, aggregates, active_next, self._next_message_count
            )
            barrier_span.finish()

            profile = IterationProfile(
                superstep=superstep,
                worker_counters=worker_counters,
                critical_worker=critical_worker,
                runtime=runtime,
                barrier_time=self.engine.cost_profile.barrier_overhead,
                convergence_metric=decision.convergence_metric,
                aggregates=aggregates,
            )
            iterations.append(profile)
            if decision.convergence_metric is not None:
                convergence_history.append(decision.convergence_metric)

            # Swap message buffers for the next superstep.
            if self._vector is not None:
                self._vector.advance()
            else:
                self.incoming = self.next_incoming
                self.next_incoming = {}

            if tracer.enabled:
                ss_span.merge(
                    superstep_attrs(profile, self.kernels.tier, self.kernels.threads)
                )
            ss_span.finish()

            if decision.stop:
                converged = decision.converged
                break

            if self._vector is not None and manager.should_checkpoint(superstep + 1):
                ckpt_span = tracer.begin("recovery.checkpoint")
                manager.store(
                    self._build_checkpoint(superstep + 1, iterations, convergence_history)
                )
                self.recovery.checkpoints += 1
                tracer.counter("recovery.checkpoints")
                if tracer.enabled:
                    ckpt_span.set("superstep", superstep + 1)
                ckpt_span.finish()
        loop_span.finish()
        return converged

    def _finish_run(
        self,
        iterations: List[IterationProfile],
        convergence_history: List[float],
        converged: bool,
        phase_times: PhaseTimes,
        original_graph_name: str,
    ) -> RunResult:
        """Write phase + result assembly, shared by first run and resumes."""
        engine_config = self.engine_config
        tracer = self.tracer
        graph = self.graph

        write_span = tracer.begin("phase.write")
        if self._vector is not None:
            self.values = self._vector.export_values()

        phase_times.superstep = sum(profile.runtime for profile in iterations)
        phase_times.write = self.runtime_model.write_time(graph.num_vertices, self.num_workers)

        vertex_values = dict(self.values) if engine_config.collect_vertex_values else None
        if tracer.enabled:
            write_span.set("modeled_s", phase_times.write)
        write_span.finish()
        return RunResult(
            algorithm=self.algorithm.name,
            graph_name=original_graph_name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            num_workers=self.num_workers,
            iterations=iterations,
            phase_times=phase_times,
            converged=converged,
            convergence_history=convergence_history,
            vertex_values=vertex_values,
            config=self.algorithm.config_dict(self.config),
            trace=tracer if tracer.enabled else None,
            kernel_tier=self.kernels.tier,
            threads=self.kernels.threads,
            recovery=self.recovery if self.recovery.active else None,
        )

    # ----------------------------------------------------------- resilience
    def _build_checkpoint(
        self,
        next_superstep: int,
        iterations: List[IterationProfile],
        convergence_history: List[float],
        plane_snapshot: Optional[Dict[str, Any]] = None,
    ):
        """Capture all mutable engine state as of the current barrier.

        ``plane_snapshot`` lets the process backend substitute the snapshot
        it assembled from the children's slices; inline runs snapshot the
        master's own plane.  Pickling at store time deep-copies the
        iteration profiles, so later supersteps cannot mutate a checkpoint.
        """
        from repro.bsp.parallel.protocol import plane_kind
        from repro.bsp.resilience import Checkpoint, snapshot_plane

        kind = plane_kind(self._vector)
        if plane_snapshot is None:
            plane_snapshot = snapshot_plane(self._vector, kind)
        manager = self.checkpoint_manager
        return Checkpoint(
            version=manager.next_version(),
            superstep=next_superstep,
            kind=kind,
            plane=plane_snapshot,
            aggregates=self.registry.snapshot_previous(),
            rng_state=self.runtime_model.snapshot_rng(),
            iterations=list(iterations),
            convergence_history=list(convergence_history),
            config_hash=manager.config_hash,
        )

    def _restore_checkpoint(self, checkpoint) -> None:
        """Rewind plane, aggregators and RNG to a checkpoint.

        Building a fresh plane resets every steady-state/epoch cache — the
        replay must not see cache state minted after the checkpoint.
        """
        from repro.bsp.resilience import restore_plane

        self._vector = restore_plane(self, checkpoint.kind, checkpoint.plane)
        self.registry.restore_previous(checkpoint.aggregates)
        self.runtime_model.restore_rng(checkpoint.rng_state)

    def _resume_inline(
        self,
        master: Master,
        phase_times: PhaseTimes,
        original_graph_name: str,
        checkpoint,
    ) -> RunResult:
        """Graceful degradation: finish a process-backend run inline.

        Called by the process backend when the pool is unrecoverable (or
        the retry budget is exhausted): rewinds to ``checkpoint`` and
        replays the remaining supersteps on the inline loop — bit-identical
        to what the pool would have produced.
        """
        self._restore_checkpoint(checkpoint)
        iterations = list(checkpoint.iterations)
        convergence_history = list(checkpoint.convergence_history)
        converged = self._superstep_loop(
            master, iterations, convergence_history, checkpoint.superstep
        )
        return self._finish_run(
            iterations, convergence_history, converged, phase_times, original_graph_name
        )

    # -------------------------------------------------------------- helpers
    def _begin_superstep(self) -> None:
        self._next_message_count = 0
        self._next_buffered_bytes = {}

    def _count_active_next(self) -> int:
        """Vertices that will execute compute in the next superstep."""
        if self._vector is not None:
            return self._vector.count_active_next()
        return sum(
            1 for vertex in self.graph.vertices()
            if vertex not in self.halted or vertex in self.next_incoming
        )

    def _buffered_for(self, worker: Worker):
        """(delivered_messages, delivered_bytes) buffered for ``worker``."""
        if self._vector is not None:
            return self._vector.buffered_for(worker)
        buffered_messages = sum(
            len(self.next_incoming.get(vertex, ()))
            for vertex in worker.vertices
            if vertex in self.next_incoming
        )
        return buffered_messages, self._next_buffered_bytes.get(worker.worker_id, 0)

    def _check_memory_batch(
        self, buffered_messages: np.ndarray, buffered_bytes: np.ndarray
    ) -> None:
        """Feed per-worker delivered arrays to the memory model.

        Shared by the inline batch path (arrays from the plane's
        ``buffered_all``) and the process backend (arrays assembled from the
        workers' ``reduced`` reports) so the accounting formula exists once.
        """
        if self._worker_edge_counts is None:
            # Constant per run: one bincount over the degree array (or pure
            # slice arithmetic on a partition-native layout).
            self._worker_edge_counts = self.partitioning.worker_outbound_edges_array(
                self.graph
            )
        vertex_counts = np.asarray(
            self.partitioning.worker_vertex_counts(), dtype=np.int64
        )
        estimates = self.memory_model.estimate_batch(
            num_vertices=vertex_counts,
            num_edges=self._worker_edge_counts,
            state_bytes=vertex_counts * 64,
            buffered_messages=buffered_messages,
            buffered_message_bytes=buffered_bytes,
        )
        self.memory_model.check_batch(estimates)

    def _check_memory(self) -> None:
        if self._vector is not None:
            # Batch path: the plane reports delivered counts/bytes for all
            # workers at once (segment sums over the worker boundaries) and
            # the memory model consumes the arrays directly.
            buffered_messages, buffered_bytes = self._vector.buffered_all()
            self._check_memory_batch(buffered_messages, buffered_bytes)
            return
        if self._worker_edge_counts is None:
            self._worker_edge_counts = self.partitioning.worker_outbound_edges_array(
                self.graph
            )
        for worker in self.workers:
            buffered_messages, buffered_bytes = self._buffered_for(worker)
            estimate = self.memory_model.estimate(
                num_vertices=len(worker.vertices),
                num_edges=int(self._worker_edge_counts[worker.worker_id]),
                state_bytes=len(worker.vertices) * 64,
                buffered_messages=buffered_messages,
                buffered_message_bytes=buffered_bytes,
            )
            self.memory_model.check(worker.worker_id, estimate)
