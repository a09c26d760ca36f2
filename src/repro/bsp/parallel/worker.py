"""Worker-process side of the shared-memory execution backend.

Each process owns a contiguous block of BSP workers -- and therefore a
contiguous vertex range and CSR edge slice of the partition-native layout.
Per superstep it runs the *inline engine's own block step*
(:meth:`repro.bsp.ragged.BatchPlane.compute_block`: one activation pass and
one ``compute_batch`` call over its whole worker block), exchanges send
streams through shared-memory arenas, and owner-reduces the messages
addressed to its range (:mod:`repro.bsp.parallel.protocol`).

The process keeps a full-size replica of the plane's state arrays but only
its owned slice is ever meaningful: activation, value updates and message
delivery all stay inside the owned range by the Pregel contract (a vertex
reads its own value and its own mailbox), which is what makes the shards
correct without any locking.

Control flow is a straight request/reply protocol over the pool's pipe --
the two round trips per superstep *are* the BSP barrier:

======================  =====================================================
child -> ``computed``   per-worker counters, aggregator contributions (in
                        contribution order), sent-message count, stream table
master -> ``table``     every process's stream table (all streams written)
child -> ``reduced``    next-superstep active count, per-worker delivered
                        messages/bytes for the owned workers, and the
                        drained trace spans of the superstep (None when
                        tracing is off)
master -> ``continue``  stop flag + the barrier's reduced aggregator values
                        + a checkpoint flag
child -> ``ckpt``       (only when the flag was set) the owned plane-state
                        slice, sent right after ``advance()`` with no ack --
                        the snapshot ships off the critical path
======================  =====================================================

Every child -> master message carries the run-attempt *token* (from the
``init`` setup) at index 2, so the master can discard stale messages from an
attempt abandoned by a recovery rewind.  An ``init`` may carry a ``resume``
payload -- a full plane snapshot plus aggregates and a checkpoint-versioned
stream-cache epoch base -- in which case the child rebuilds its plane from
the checkpoint instead of the initial plane export and replays from the
checkpointed superstep.  A ``faults`` entry (a resolved
:class:`repro.bsp.resilience.FaultPlan`) injects deterministic faults: kill
/ stop / stall / poison fire at the start of the compute phase, ``corrupt``
mutates the outgoing stream metadata just before extraction.

When the master traces (``setup["trace"]``), each child runs its own
:class:`repro.obs.Tracer` on track ``proc<index>``, records compute /
messaging / reduce spans per superstep, and ships them -- closed, as
wall-clock records -- with the ``reduced`` reply.  The master re-bases them
onto its clock and re-parents them under its superstep span
(:meth:`Tracer.adopt <repro.obs.tracer.Tracer.adopt>`).

On ``stop`` the child closes its peer attachments, unlinks its arena, and
only then ships its owned slice of the final vertex values (so ``/dev/shm``
holds none of its stream blocks once the master's ``run()`` returns); an
``abort`` releases them the same way before returning.  It then goes back to
the command loop, ready for the next run (the pool is persistent).  Any
exception is reported as an ``error`` message with the formatted traceback;
the master re-raises it as a :class:`BSPError`.
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Tuple

import numpy as np

from repro.bsp.kernels import get_kernels
from repro.bsp.parallel.protocol import (
    StreamCache,
    build_child_plane,
    export_values_slice,
    extract_stream,
    reduce_streams,
    reset_delivery_buffers,
)
from repro.bsp.parallel.shared_csr import ArenaReader, SharedArena, SharedCSR
from repro.bsp.resilience import (
    corrupt_stream,
    restore_plane,
    snapshot_plane_slice,
    trigger_fault,
)
from repro.bsp.worker import Worker
from repro.exceptions import BSPError, StreamCorruptionError
from repro.graph.partition import PartitionLayout
from repro.obs.tracer import NULL_TRACER, Tracer


class _RecordingRegistry:
    """Captures aggregator contributions in order instead of folding them.

    The master owns the only real :class:`AggregatorRegistry`; it replays the
    recorded ``(name, contributions)`` events worker block by worker block --
    the same sequential fold order as the inline path, so sum aggregators
    keep their exact IEEE accumulation.  ``previous_value`` serves the values
    the master reduced at the last barrier (broadcast with ``continue``).
    """

    def __init__(self, initial: Dict[str, float]) -> None:
        self.events: List[Tuple[str, np.ndarray]] = []
        self.previous: Dict[str, float] = dict(initial)

    def contribute_many(self, name: str, values) -> None:
        self.events.append((name, np.asarray(values, dtype=np.float64)))

    def contribute(self, name: str, value: float) -> None:
        self.contribute_many(name, [value])

    def previous_value(self, name: str) -> float:
        if name not in self.previous:
            raise BSPError(f"unknown aggregator {name!r}")
        return self.previous[name]


class _ChildRun:
    """The slice of the ``_EngineRun`` surface the batch planes consume.

    Mirrors the attributes :func:`repro.bsp.engine._build_batch_state` and
    the plane/context classes read; everything else (runtime model, memory
    model, master) lives only on the master side.
    """

    def __init__(self, graph, algorithm, config, engine_config, num_workers,
                 registry) -> None:
        self.graph = graph
        self.algorithm = algorithm
        self.config = config
        self.engine_config = engine_config
        self.num_workers = num_workers
        self.registry = registry
        self.message_sizer = algorithm.message_size
        self.combiner = algorithm.combiner(config) if engine_config.use_combiner else None
        self._next_message_count = 0
        self.tracer = NULL_TRACER
        # Re-resolve the kernel tier in this process: the pickled engine
        # config carries the *request*, and each child probes numba itself
        # (hybrid parallelism: this process's folds may split over threads).
        self.kernels = get_kernels(engine_config.kernel_tier, engine_config.threads)

    def batch_graph(self):
        """The shared graph is already partition-contiguous."""
        return self.graph


def worker_main(conn, proc_index: int) -> None:
    """Entry point of one pool process: command loop over the pipe."""
    try:
        while True:
            message = conn.recv()
            if message[0] == "shutdown":
                return
            if message[0] != "init":
                # Aborts (or any stray reply) landing between runs are
                # ignored -- recovery may over-abort harmlessly.
                continue
            setup = message[1]
            try:
                _execute_run(conn, proc_index, setup)
            except StreamCorruptionError:
                conn.send((
                    "error", proc_index, setup.get("token", 0),
                    traceback.format_exc(), "corrupt",
                ))
            except Exception:
                conn.send((
                    "error", proc_index, setup.get("token", 0),
                    traceback.format_exc(), "poison",
                ))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        return


def _execute_run(conn, proc_index: int, setup: dict) -> None:
    """Run one engine execution's superstep loop for this process's block."""
    shared = SharedCSR.attach(setup["graph"])
    arena = SharedArena()
    reader = ArenaReader()
    try:
        graph = shared.graph()
        offsets = np.asarray(setup["offsets"], dtype=np.int64)
        num_workers = int(setup["num_workers"])
        identity = np.arange(graph.num_vertices, dtype=np.int64)
        # The shipped graph is the master's repartitioned layout, so the
        # contiguous order *is* the vertex order: an identity layout.
        graph.partition_layout = PartitionLayout(
            num_workers=num_workers, offsets=offsets,
            perm=identity, inverse_perm=identity,
        )
        algorithm = setup["algorithm"]
        config = setup["config"]
        engine_config = setup["engine_config"]
        registry = _RecordingRegistry(
            {agg.name: agg.initial for agg in algorithm.aggregators(config)}
        )
        run = _ChildRun(
            graph, algorithm, config, engine_config, num_workers, registry
        )
        tracer = Tracer(track=f"proc{proc_index}") if setup.get("trace") else NULL_TRACER
        run.tracer = tracer
        kind = setup["kind"]
        token = setup.get("token", 0)
        fault_plan = setup.get("faults")
        resume = setup.get("resume")
        if resume is not None:
            # Recovery replay: rebuild the plane from the checkpoint
            # snapshot.  A fresh plane means cold steady-state caches, and
            # the checkpoint-versioned epoch base keeps any epoch minted
            # before the rewind from ever colliding with a replayed one.
            plane = restore_plane(run, kind, resume["plane"])
            registry.previous = dict(resume["aggregates"])
            start_superstep = int(resume["superstep"])
            epoch_base = int(resume.get("epoch_base", 0))
        else:
            plane = build_child_plane(run, kind, setup["plane"])
            start_superstep = 0
            epoch_base = 0
        if plane.worker_offsets is None:  # pragma: no cover - layout guard
            raise BSPError(
                f"worker process {proc_index} has no partition-native layout"
            )
        block_lo, block_hi = setup["worker_block"]
        workers = [
            Worker(w, graph.ids[int(offsets[w]) : int(offsets[w + 1])], run)
            for w in range(block_lo, block_hi)
        ]
        lo = int(offsets[block_lo])
        hi = int(offsets[block_hi])
        stream_cache = StreamCache(epoch_base=epoch_base)

        superstep = start_superstep
        while True:
            # ---- compute phase: the inline kernels, owned workers only.
            fault = (
                fault_plan.fault_for(proc_index, superstep)
                if fault_plan is not None else None
            )
            if fault is not None and fault.kind != "corrupt":
                trigger_fault(fault, proc_index, superstep)
            run._next_message_count = 0
            registry.events = []
            compute_span = tracer.begin("compute")
            if tracer.enabled:
                compute_span.set("superstep", superstep)
            plane.compute_block(workers, superstep)
            compute_span.finish()
            if fault is not None and fault.kind == "corrupt":
                corrupt_stream(plane, kind)
            messaging_span = tracer.begin("messaging")
            meta, handle, local_arrays = extract_stream(plane, kind, arena, stream_cache)
            messaging_span.finish()
            conn.send((
                "computed", proc_index, token,
                [worker.counters for worker in workers],
                registry.events, run._next_message_count, (meta, handle),
            ))

            # ---- exchange barrier: all streams are on shared memory now.
            reply = conn.recv()
            if reply[0] == "abort":
                _release_streams(reader, arena)
                return
            tables = reply[1]
            streams = []
            live_names = set()
            for peer, (peer_meta, peer_handle) in enumerate(tables):
                if peer == proc_index:
                    streams.append((peer_meta, local_arrays))
                    continue
                if peer_handle.block_name is not None:
                    live_names.add(peer_handle.block_name)
                streams.append((peer_meta, reader.arrays(peer_handle)))

            # ---- owner reduce: fold messages addressed to [lo, hi).
            reduce_span = tracer.begin("reduce")
            reset_delivery_buffers(plane, kind)
            reduce_streams(plane, kind, streams, lo, hi, stream_cache)
            plane._commit_superstep()
            reduce_span.finish()
            reader.release_except(live_names)
            active_next = int(np.count_nonzero(
                ~plane.halted[lo:hi] | (plane.count_next[lo:hi] > 0)
            ))
            delivered = [plane.buffered_for(worker) for worker in workers]
            # Ship this superstep's closed spans with the barrier reply; the
            # master adopts them under its current superstep span.
            conn.send((
                "reduced", proc_index, token, active_next, delivered,
                tracer.drain() if tracer.enabled else None,
            ))

            # ---- master barrier: aggregates reduced, stop decided.
            reply = conn.recv()
            if reply[0] == "abort":
                _release_streams(reader, arena)
                return
            _, stop, previous, checkpoint_now = reply
            registry.previous = dict(previous)
            plane.advance()
            if stop:
                values = export_values_slice(plane, kind, lo, hi)
                # The master's run() returns as soon as this message lands,
                # so this process's arena must be gone before it is sent.
                _release_streams(reader, arena)
                conn.send(("values", proc_index, token, (lo, hi, values)))
                return
            if checkpoint_now:
                # Post-advance state slice -- msg_count/inboxes hold the
                # deliveries for superstep+1, exactly what a rewound replay
                # must start from.  No ack: the pipe's FIFO keeps this ahead
                # of the next "computed".
                conn.send((
                    "ckpt", proc_index, token,
                    snapshot_plane_slice(plane, kind, lo, hi),
                ))
            superstep += 1
    finally:
        _release_streams(reader, arena)
        shared.close()


def _release_streams(reader: ArenaReader, arena: SharedArena) -> None:
    """Close the peer attachments and unlink this process's arena block.

    Runs before the run's last message to the master (``values``, or the
    return on ``abort``): once the master has that message it may report
    ``/dev/shm`` clean.  Both calls are idempotent, so the ``finally`` of
    :func:`_execute_run` repeats them for the error paths.
    """
    reader.close()
    arena.destroy()
