"""Ragged message plane: vectorized variable-size messaging.

The engine's original fast path (:class:`repro.bsp.engine._VectorizedState`)
handles algorithms whose messages are fixed-size scalars reduced with ``sum``
or ``min`` -- PageRank contributions, connected-components labels.  The
paper's hardest prediction targets are the *category ii* algorithms whose
messages are variable-size (semi-cluster lists, top-k rank lists, FM-sketch
vectors): their per-iteration runtime varies precisely because message sizes
grow and shrink.  This module is the batch plane for those payloads.

Three payload representations share one routing/accounting core
(:class:`_RaggedStateBase`), selected by the algorithm's ``batch_payload``
attribute:

``"rows"`` -- :class:`RowReduceState`
    Fixed-width numeric rows (one row per message) reduced destination-wise
    with an element-wise ufunc (``batch_row_reducer``, e.g. ``bitwise_or``
    for neighborhood estimation's FM sketches).  Messages are folded into an
    accumulator at send time; individual payloads are never materialised.

``"ragged"`` -- :class:`RaggedStreamState`
    Variable-length numeric rows (top-k rank lists).  Send events are
    buffered per superstep and grouped by destination vertex at the barrier
    with a stable sort, so each vertex sees its payload elements in *exact
    scalar send order* (worker by worker, vertices in partition order,
    out-edges in adjacency order).

``"object"`` -- :class:`ObjectState` / :class:`ClusterRowsState`
    Arbitrary Python payloads (semi-cluster lists).  Two interchangeable
    states implement the kind.  :class:`ObjectState` batch-routes the Python
    objects and folds them per vertex in Python (the original hybrid).
    :class:`ClusterRowsState` is the **numeric fast path**: when the
    algorithm can encode its payloads as fixed-width numeric records
    (semi-clusters become ``[internal, boundary, count, member ids...]``
    rows) the whole superstep -- delivery, score recomputation, the sorted
    top-``Smax``/``Cmax`` merge -- runs as array kernels on the ``"ragged"``
    machinery, and no Python payload objects exist during the run.  The
    engine picks the numeric state whenever the algorithm provides the
    encoding hooks and ``EngineConfig.semicluster_numeric`` is left on;
    ``semicluster_numeric=False`` keeps the object fold reachable as the
    differential baseline.

Counter semantics are identical to the scalar engine path: every send call
reports per-message byte sizes, the local/remote split is classified against
the partition-native worker offsets (range arithmetic; a vertex-to-worker
assignment gather on the legacy layout), and delivered (post-routing) counts
and bytes feed the memory model per destination vertex.  The plane does not
support combiners (none of the variable-size algorithms define one); when a
run has an active combiner the engine falls back to the scalar path.

All planes share :class:`BatchPlane`, which owns the superstep's block step
(one activation pass and one ``compute_batch`` call per block of workers,
with each send's counters split back per worker) and the partition-native
layout machinery: the execution graph (``run.batch_graph()``, the
partition-contiguous relabelling when ``partition_native`` is on), contiguous
per-worker ownership ranges, slice-view out-edge expansion for contiguous
sender ranges, cached full-partition local/remote classification, and
per-worker segment sums over the worker boundaries.

``tests/test_differential_engine.py`` pins every algorithm in the registry
against the scalar path -- bit-identical counters, vertex values, aggregates
and convergence histories on 25+ seeded graphs.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import BSPError
from repro.bsp.kernels import get_kernels
from repro.bsp.kernels import reference as _ref_kernels
from repro.bsp.worker import Worker
from repro.graph.csr import concat_ranges

VertexId = Hashable

#: Element-wise reducers available to the "rows" payload kind, as
#: ``name -> (ufunc, neutral element)``.
ROW_REDUCERS = {
    "bitwise_or": (np.bitwise_or, 0),
    "add": (np.add, 0),
}


class Ragged:
    """A list of variable-length numeric rows stored as (data, offsets).

    Row ``i`` occupies ``data[offsets[i]:offsets[i + 1]]``.  The layout is
    the 1-D analogue of the CSR adjacency arrays, and the same
    ``concat_ranges`` gather trick drives every row operation.
    """

    __slots__ = ("data", "offsets", "lengths")

    def __init__(self, data: np.ndarray, offsets: np.ndarray) -> None:
        self.data = np.asarray(data)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.lengths = np.diff(self.offsets)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], dtype) -> "Ragged":
        """Build from a sequence of (possibly empty) numeric rows."""
        lengths = np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows))
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        data = np.fromiter(
            (value for row in rows for value in row), dtype=dtype, count=int(offsets[-1])
        )
        return cls(data, offsets)

    @classmethod
    def from_lengths(cls, data: np.ndarray, lengths: np.ndarray) -> "Ragged":
        """Wrap contiguous ``data`` already grouped into ``lengths``-sized rows."""
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(data, offsets)

    @classmethod
    def concat(cls, parts: Sequence["Ragged"]) -> "Ragged":
        """Row-wise concatenation of several ragged arrays."""
        data = np.concatenate([part.data for part in parts])
        lengths = np.concatenate([part.lengths for part in parts])
        return cls.from_lengths(data, lengths)

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self.lengths)

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` as an array view."""
        return self.data[self.offsets[i] : self.offsets[i + 1]]

    def take(self, indices: np.ndarray) -> "Ragged":
        """Gather rows in the given order (duplicates allowed)."""
        lengths = self.lengths[indices]
        slots = concat_ranges(self.offsets[:-1][indices], lengths)
        return Ragged.from_lengths(self.data[slots], lengths)

    def replace_rows(self, indices: np.ndarray, rows: "Ragged") -> "Ragged":
        """A new ragged array with ``rows`` substituted at ``indices``.

        Row lengths may change; untouched rows keep their content.  Used by
        the top-k batch path to commit per-superstep value updates in one
        rebuild instead of per-row Python surgery.
        """
        lengths = self.lengths.copy()
        lengths[indices] = rows.lengths
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        data = np.empty(int(offsets[-1]), dtype=self.data.dtype)
        kept = np.ones(len(lengths), dtype=bool)
        kept[indices] = False
        kept_idx = np.nonzero(kept)[0]
        data[concat_ranges(offsets[:-1][kept_idx], lengths[kept_idx])] = self.data[
            concat_ranges(self.offsets[:-1][kept_idx], self.lengths[kept_idx])
        ]
        data[concat_ranges(offsets[:-1][indices], rows.lengths)] = rows.data
        return Ragged(data, offsets)

    def to_tuples(self) -> List[Tuple]:
        """Materialise every row as a tuple of Python scalars."""
        flat = self.data.tolist()
        bounds = self.offsets.tolist()
        return [tuple(flat[bounds[i] : bounds[i + 1]]) for i in range(len(self))]


# ------------------------------------------------------------------- kernels
# The scalar-exactness kernels themselves now live in the tier-dispatched
# package ``repro.bsp.kernels`` (PR 8): ``kernels/reference.py`` holds the
# pure-NumPy implementations that used to be defined here, and
# ``kernels/compiled.py`` their numba nogil twins.  These module-level
# bindings keep the historical import surface (`from repro.bsp.ragged
# import segment_left_fold_sums`, ...) working and always mean the
# reference tier; tier-aware code goes through ``BatchPlane.kernels`` /
# ``RaggedBatchContext.kernels`` instead.
segment_left_fold_sums = _ref_kernels.segment_left_fold_sums
masked_segment_left_fold = _ref_kernels.masked_segment_left_fold
segment_unique_records = _ref_kernels.segment_unique_records


def segment_unique_topk_desc(
    data: np.ndarray, seg_ids: np.ndarray, num_segments: int, k: int
) -> Ragged:
    """Per-segment ``sorted(set(values), reverse=True)[:k]`` as a Ragged.

    Reference-tier wrapper kept for the historical call signature; see
    :func:`repro.bsp.kernels.reference.segment_unique_topk_desc` for the
    array-level kernel and its bit-identity contract.
    """
    return Ragged.from_lengths(
        *_ref_kernels.segment_unique_topk_desc(data, seg_ids, num_segments, k)
    )


def ragged_rows_equal(left: Ragged, right: Ragged) -> np.ndarray:
    """Row-wise equality of two ragged arrays with the same row count."""
    equal = left.lengths == right.lengths
    same_idx = np.nonzero(equal)[0]
    if len(same_idx):
        a = left.take(same_idx)
        b = right.take(same_idx)
        seg = np.repeat(np.arange(len(same_idx), dtype=np.int64), a.lengths)
        mismatched = np.bincount(seg[a.data != b.data], minlength=len(same_idx)) > 0
        equal[same_idx[mismatched]] = False
    return equal


# ---------------------------------------------------------------- batch state
class BatchPlane:
    """Worker-block loop, activation and buffer bookkeeping shared by all planes.

    Base of *every* batch execution plane -- the scalar-payload
    ``_VectorizedState`` in :mod:`repro.bsp.engine` and the three ragged
    kinds below -- so the superstep loop, the activation rule and the
    barrier swap exist exactly once.  Implements the interface the engine's
    run loop expects: ``execute_superstep`` / ``advance`` /
    ``count_active_next`` / ``buffered_for`` / ``export_values``.

    A superstep is **one** ``compute_batch`` call per *block* of workers
    (:meth:`compute_block`): inline the block is every worker, on the
    process backend it is the process's own worker block.  The context's
    ``indices`` are the block's active vertices concatenated in worker
    order, and every send is split back into per-worker Table 1 counters by
    cutting its sender-ordered edge stream at the worker boundaries.
    """

    #: Context class handed to ``compute_batch`` (set by subclasses).
    context_cls = None

    def __init__(self, run) -> None:
        self.run = run
        # The tier-resolved kernel set for this run; engine-run objects carry
        # one, bare test stubs fall back to the default resolution.
        self.kernels = getattr(run, "kernels", None) or get_kernels()
        graph = run.batch_graph()
        self.graph = graph
        n = graph.num_vertices
        self.ids = graph.ids
        self.indptr = graph.indptr
        self.targets = graph.targets
        self.out_degrees = graph.out_degrees
        layout = getattr(graph, "partition_layout", None)
        if layout is not None and layout.num_workers == run.num_workers:
            # Partition-native layout: worker ``w`` owns the contiguous index
            # range ``worker_offsets[w]:worker_offsets[w + 1]``.  Ownership,
            # activation and the local/remote message split all become range
            # arithmetic -- no per-run index gathers, no vertex-to-worker map.
            self.worker_offsets = layout.offsets
            self.vertex_worker = None
            self.own = None
        else:
            self.worker_offsets = None
            self.vertex_worker = run.partitioning.assignment_array(graph)
            index = graph.index
            self.own = [
                np.fromiter(
                    (index[v] for v in worker.vertices),
                    dtype=np.int64,
                    count=len(worker.vertices),
                )
                for worker in run.workers
            ]
        self.halted = np.zeros(n, dtype=bool)
        self.msg_count = np.zeros(n, dtype=np.int64)
        self.count_next = np.zeros(n, dtype=np.int64)
        # Per-worker (mask, local_count) of a full-partition send; constant
        # across supersteps on the frozen layout (see _local_mask).
        self._span_cache: List[Optional[tuple]] = [None] * run.num_workers
        # Per-block activation geometry (see _block_geometry).
        self._blocks: Dict[Tuple[int, int], tuple] = {}

    # ----------------------------------------------------------- superstep run
    def execute_superstep(self, superstep: int) -> None:
        run = self.run
        tracer = run.tracer
        compute_span = tracer.begin("compute")
        self.compute_block(run.workers, superstep)
        compute_span.finish()
        messaging_span = tracer.begin("messaging")
        self._commit_superstep()
        messaging_span.finish()

    def _commit_superstep(self) -> None:
        """Apply value updates staged during the block step (subclass hook)."""

    def compute_block(self, workers: Sequence, superstep: int) -> None:
        """One superstep's compute phase for a contiguous block of workers.

        Resets the workers' counters, activates the whole block at once and
        hands the algorithm the concatenated active set (worker order, then
        partition order) in a single ``compute_batch`` call.  The inline
        engine passes every worker; a process-backend child passes its own
        ``worker_block``.
        """
        for worker in workers:
            worker.begin_superstep(superstep)
        active = self._activate_block(workers)
        if len(active):
            batch = self.context_cls(self, workers, active, superstep)
            self.run.algorithm.compute_batch(batch, self.run.config)

    def _block_geometry(self, workers: Sequence) -> tuple:
        """``(selector, cuts)`` of a worker block, cached per block.

        ``selector`` indexes vertex-aligned arrays with the block's vertices
        in worker order: a slice on the partition-native layout, the
        concatenated per-worker index arrays on the legacy layout.  ``cuts``
        are the worker boundaries as positions into the selection.
        """
        key = (workers[0].worker_id, workers[-1].worker_id + 1)
        geometry = self._blocks.get(key)
        if geometry is None:
            first, stop = key
            offsets = self.worker_offsets
            if offsets is not None:
                base = int(offsets[first])
                selector = slice(base, int(offsets[stop]))
                cuts = offsets[first : stop + 1] - base
            else:
                parts = self.own[first:stop]
                selector = np.concatenate(parts)
                cuts = np.zeros(len(parts) + 1, dtype=np.int64)
                np.cumsum([len(part) for part in parts], out=cuts[1:])
            geometry = self._blocks[key] = (selector, cuts)
        return geometry

    def _activate_block(self, workers: Sequence) -> np.ndarray:
        """The block's active vertex indices; sets each ``active_vertices``.

        The scalar activation rule in array form, over the whole block in one
        pass: a vertex is active when it has not voted to halt or when it has
        incoming messages (which clear its halt vote).  Per-worker active
        counts come from the worker boundaries of the selection.
        """
        selector, cuts = self._block_geometry(workers)
        halted = self.halted[selector]
        has_messages = self.msg_count[selector] > 0
        # ``halted`` may be a view into ``self.halted``; materialise the
        # activation mask before clearing the halt votes below mutates it.
        active_mask = ~halted | has_messages
        self.halted[selector] = halted & ~has_messages
        positions = np.flatnonzero(active_mask)
        counts = np.diff(np.searchsorted(positions, cuts))
        for worker, count in zip(workers, counts.tolist()):
            worker.counters.active_vertices = count
        if isinstance(selector, slice):
            return positions + selector.start
        return selector[positions]

    # ------------------------------------------------------- layout primitives
    def own_selector(self, worker_id: int):
        """Index ``halted``/``count_next``-shaped arrays with a worker's vertices.

        A slice (zero-copy view) on the partition-native layout, an index
        array otherwise.
        """
        if self.worker_offsets is not None:
            return slice(
                int(self.worker_offsets[worker_id]),
                int(self.worker_offsets[worker_id + 1]),
            )
        return self.own[worker_id]

    def _expand(self, senders: np.ndarray):
        """Out-edge expansion: ``(destinations, lengths, total, span)`` or None.

        ``senders`` must be ascending vertex indices (the activation order).
        On the partition-native layout a contiguous sender range -- the common
        case: a block whose active set is its whole partition -- expands to a
        *slice view* of the CSR ``targets`` array; no ``concat_ranges`` gather
        and no copy.  Scattered senders fall back to the gather.  ``span`` is
        the ``(start, stop)`` vertex range of a contiguous expansion (None for
        the gather path); :meth:`_local_mask` uses it to reuse the
        classification of full-partition sends.
        """
        k = len(senders)
        if k == 0:
            return None
        if self.worker_offsets is not None and (
            k == 1 or int(senders[-1]) - int(senders[0]) + 1 == k
        ):
            start = int(senders[0])
            stop = int(senders[-1]) + 1
            lo = int(self.indptr[start])
            hi = int(self.indptr[stop])
            if lo == hi:
                return None
            return (
                self.targets[lo:hi],
                self.out_degrees[start:stop],
                hi - lo,
                (start, stop),
                (lo, hi),
            )
        lengths = self.out_degrees[senders]
        total = int(lengths.sum())
        if total == 0:
            return None
        slots = concat_ranges(self.indptr[senders], lengths)
        return self.targets[slots], lengths, total, None, None

    def _worker_slices(self, workers: Sequence, senders: np.ndarray, expanded):
        """Cut one send's edge stream at the block's worker boundaries.

        Returns ``(edge_start, edge_stop, span)`` per worker of the block:
        the worker's slice of the sender-ordered edge stream and, for a
        contiguous send, the worker's part of its sender range (None for
        scattered senders).
        The cuts come from the *senders* -- range clipping for a contiguous
        send, a ``searchsorted`` of the worker boundaries otherwise -- never
        from an owner lookup per destination.  The first and last workers
        absorb any sender outside the block, so a block of one worker takes
        the whole send.
        """
        _, lengths, total, span, _ = expanded
        count = len(workers)
        if count == 1:
            return [(0, total, span)]
        first = workers[0].worker_id
        offsets = self.worker_offsets
        if span is not None:
            start, stop = span
            interior = np.clip(offsets[first + 1 : first + count], start, stop)
            bounds = [start] + interior.tolist() + [stop]
            edges = (self.indptr[bounds] - self.indptr[start]).tolist()
            return [
                (edges[i], edges[i + 1], (bounds[i], bounds[i + 1]))
                for i in range(count)
            ]
        if offsets is not None:
            interior = np.searchsorted(senders, offsets[first + 1 : first + count])
        else:
            interior = np.searchsorted(
                self.vertex_worker[senders],
                np.arange(first + 1, first + count),
            )
        cuts = [0] + interior.tolist() + [len(senders)]
        prefix = np.zeros(len(senders) + 1, dtype=np.int64)
        np.cumsum(lengths, out=prefix[1:])
        edges = prefix[cuts].tolist()
        return [(edges[i], edges[i + 1], None) for i in range(count)]

    def _record_sent(self, workers, senders: np.ndarray, expanded, sizes) -> None:
        """Fold one send into the Table 1 counters of the workers that sent it.

        ``workers`` is the sending block (a single :class:`Worker` is a
        block of one); ``sizes`` is the constant message size or the per-edge
        byte sizes aligned with the expanded destinations.
        """
        if isinstance(workers, Worker):
            workers = (workers,)
        destinations = expanded[0]
        per_edge = isinstance(sizes, np.ndarray)
        for worker, (lo, hi, span) in zip(
            workers, self._worker_slices(workers, senders, expanded)
        ):
            if lo == hi:
                continue
            mask, local = self._local_mask(worker, destinations[lo:hi], span)
            if per_edge:
                edge_sizes = sizes[lo:hi]
                local_bytes = int(edge_sizes[mask].sum())
                total_bytes = int(edge_sizes.sum())
            else:
                local_bytes = local * sizes
                total_bytes = (hi - lo) * sizes
            worker.counters.record_sent(
                hi - lo, local, local_bytes, total_bytes - local_bytes
            )
        self.run._next_message_count += expanded[2]

    def _local_mask(self, worker, destinations: np.ndarray, span=None):
        """``(mask, local_count)`` for destinations on the sending worker.

        Partition-native layout: two range comparisons against the worker's
        ``[start, stop)`` offsets.  Legacy layout: a gather through the
        vertex-to-worker assignment array.  A *full-partition* send (``span``
        equals the worker's own range) has a classification that depends only
        on the frozen layout, so it is computed once per run and reused every
        superstep -- PageRank-style always-active workloads pay zero
        per-superstep classification cost.
        """
        worker_id = worker.worker_id
        offsets = self.worker_offsets
        if offsets is None:
            mask = self.vertex_worker[destinations] == worker_id
            return mask, int(np.count_nonzero(mask))
        lo = int(offsets[worker_id])
        hi = int(offsets[worker_id + 1])
        full_span = span is not None and span == (lo, hi)
        if full_span and self._span_cache[worker_id] is not None:
            return self._span_cache[worker_id]
        mask = (destinations >= lo) & (destinations < hi)
        result = (mask, int(np.count_nonzero(mask)))
        if full_span:
            mask.setflags(write=False)
            self._span_cache[worker_id] = result
        return result

    def _segment_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-worker sums of a vertex-aligned array via the worker offsets.

        ``cumsum`` + boundary differences instead of ``add.reduceat`` so that
        empty workers (``offsets[w] == offsets[w + 1]``) correctly sum to 0.
        Only valid on the partition-native layout.
        """
        prefix = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(values, out=prefix[1:])
        return prefix[self.worker_offsets[1:]] - prefix[self.worker_offsets[:-1]]

    # ------------------------------------------------------------- accounting
    def count_active_next(self) -> int:
        """Vertices active in the next superstep (scalar rule, array form)."""
        return int(np.count_nonzero(~self.halted | (self.count_next > 0)))

    def advance(self) -> None:
        """Swap message buffers at the superstep barrier."""
        self.msg_count = self.count_next
        self.count_next = np.zeros(len(self.msg_count), dtype=np.int64)
        self._advance_payloads()

    def _advance_payloads(self) -> None:
        raise NotImplementedError

    def buffered_for(self, worker):
        """(delivered_messages, delivered_bytes) buffered for ``worker``."""
        raise NotImplementedError

    def buffered_all(self):
        """Per-worker delivered ``(messages, bytes)`` arrays for all workers."""
        pairs = [self.buffered_for(worker) for worker in self.run.workers]
        return (
            np.asarray([p[0] for p in pairs], dtype=np.int64),
            np.asarray([p[1] for p in pairs], dtype=np.int64),
        )

    def export_values(self) -> Dict[VertexId, Any]:
        raise NotImplementedError


class _RaggedStateBase(BatchPlane):
    """Per-message-size routing and counter core of the three ragged kinds."""

    def __init__(self, run) -> None:
        super().__init__(run)
        self.bytes_next = np.zeros(run.graph.num_vertices, dtype=np.int64)
        # Per-send-event payload sizes (one entry per sender, aligned with
        # the payload pool entries the subclasses buffer).  The inline path
        # never reads it back -- it is the partial-reduction entry point the
        # process backend serialises so that destination owners can rebuild
        # delivered counts/bytes for their range from the raw streams.
        self._ev_sizes: List[np.ndarray] = []
        # Steady-state delivery cache: ``(dest, refs, derived)`` of the last
        # superstep's routing.  In the common always-active steady state the
        # routing arrays repeat bit for bit every superstep, so the sort /
        # grouping products derived from them are reusable; validity is
        # checked by direct array comparison (memcmp-fast), not by trusting
        # any phase flag.
        self._steady: Optional[Tuple[np.ndarray, np.ndarray, Any]] = None

    # --------------------------------------------------------------- messaging
    def _route(self, workers, senders: np.ndarray, sizes: np.ndarray):
        """Expand senders' out-edges in scalar send order and count them.

        ``sizes[i]`` is the byte size of sender ``i``'s payload (every copy
        along its out-edges has the same size, exactly as the scalar path's
        per-edge ``message_size`` calls report).  ``workers`` is the sending
        block; the counters are split per worker (:meth:`_record_sent`).
        Returns ``(destinations, degrees, span)`` or None when no edges
        exist; ``span`` is the contiguous ``(start, stop)`` sender range
        (None for scattered senders).
        """
        expanded = self._expand(senders)
        if expanded is None:
            return None
        destinations, degrees, _, span, _ = expanded
        sizes = np.asarray(sizes, dtype=np.int64)
        self._ev_sizes.append(sizes)
        per_edge_sizes = np.repeat(sizes, degrees)
        n = len(self.count_next)
        self.count_next += np.bincount(destinations, minlength=n)
        # Per-vertex byte sums are sums of small ints, exact in float64.
        self.bytes_next += np.bincount(
            destinations, weights=per_edge_sizes, minlength=n
        ).astype(np.int64)
        self._record_sent(workers, senders, expanded, per_edge_sizes)
        return destinations, degrees, span

    # ------------------------------------------------------------- accounting
    def buffered_for(self, worker):
        """(delivered_messages, delivered_bytes) buffered for ``worker``.

        The ragged plane never runs with a combiner, so delivered equals
        sent: one buffered payload per routed message.  On the partition-native
        layout the worker's vertices are a contiguous range, so both sums run
        over slice views.
        """
        own = self.own_selector(worker.worker_id)
        return int(self.count_next[own].sum()), int(self.bytes_next[own].sum())

    def buffered_all(self):
        """Per-worker delivered ``(messages, bytes)`` arrays for all workers.

        Partition-native layout: two segment-sum passes over the worker
        boundaries; one call replaces ``num_workers`` ``buffered_for`` calls.
        """
        if self.worker_offsets is not None:
            return self._segment_sums(self.count_next), self._segment_sums(self.bytes_next)
        return super().buffered_all()

    def advance(self) -> None:
        super().advance()
        self.bytes_next = np.zeros(len(self.msg_count), dtype=np.int64)
        self._ev_sizes = []

    # ------------------------------------------------------ steady-state cache
    def _steady_lookup(self, dest: np.ndarray, refs: np.ndarray):
        """The cached derived products iff this superstep's routing arrays
        are bit-identical to the last one's, else None."""
        cached = self._steady
        if (
            cached is not None
            and np.array_equal(cached[0], dest)
            and np.array_equal(cached[1], refs)
        ):
            return cached[2]
        return None

    def _steady_store(self, dest: np.ndarray, refs: np.ndarray, derived) -> None:
        self._steady = (dest, refs, derived)


class RaggedBatchContext:
    """API surface shared by the batch contexts of every plane.

    The array analogue of :class:`repro.bsp.vertex.VertexContext`; subclasses
    add the payload-kind-specific value and messaging accessors.  One
    instance is built per (worker block, superstep) by
    :meth:`BatchPlane.compute_block`: ``indices`` may span several workers
    (their active vertices, concatenated in worker order), so
    ``compute_batch`` must stay vertex-local -- each vertex reads only its
    own value, mailbox and out-edges -- and reduce across vertices only
    through :meth:`aggregate`.
    """

    __slots__ = ("_state", "_block", "indices", "superstep")

    def __init__(self, state: _RaggedStateBase, block, indices, superstep: int) -> None:
        self._state = state
        self._block = block
        self.indices = indices
        self.superstep = superstep

    @property
    def num_vertices(self) -> int:
        """Global vertex count."""
        return self._state.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Global edge count."""
        return self._state.graph.num_edges

    @property
    def out_degrees(self) -> np.ndarray:
        """Cached out-degree array of the run graph."""
        return self._state.out_degrees

    @property
    def message_counts(self) -> np.ndarray:
        """Messages received per vertex this superstep (graph-wide array)."""
        return self._state.msg_count

    @property
    def kernels(self):
        """The run's tier-resolved :class:`repro.bsp.kernels.KernelSet`.

        Algorithms route their hot segment kernels through this so the
        compiled tier applies without forking any algorithm code.
        """
        return self._state.kernels

    def aggregate(self, name: str, contributions) -> None:
        """Fold per-vertex contributions into a global aggregator, in order."""
        self._state.run.registry.contribute_many(name, contributions)

    def vote_to_halt(self, mask=None) -> None:
        """Halt all active vertices, or a subset of them.

        ``mask`` selects within the active set: either a boolean mask or a
        positional index array aligned with ``indices``.
        """
        indices = self.indices if mask is None else self.indices[mask]
        self._state.halted[indices] = True


# ------------------------------------------------------------------ rows kind
class RowBatchContext(RaggedBatchContext):
    """Batch context for fixed-width row payloads (e.g. FM sketch vectors)."""

    __slots__ = ()

    @property
    def values(self) -> np.ndarray:
        """Global ``(n, width)`` vertex-value matrix (index with ``indices``)."""
        return self._state.values

    @property
    def incoming(self) -> np.ndarray:
        """Destination-wise reduced rows delivered this superstep."""
        return self._state.acc

    def send_rows_to_all_neighbors(self, senders, rows, sizes) -> None:
        """Send row ``rows[i]`` along every out-edge of ``senders[i]``."""
        self._state.send_rows(self._block, senders, rows, sizes)


class RowReduceState(_RaggedStateBase):
    """Fixed-width rows reduced destination-wise with an element-wise ufunc."""

    context_cls = RowBatchContext

    def __init__(self, run, values: np.ndarray) -> None:
        super().__init__(run)
        self.values = values
        reducer = getattr(run.algorithm, "batch_row_reducer", "bitwise_or")
        if reducer not in ROW_REDUCERS:
            raise BSPError(f"unsupported batch_row_reducer {reducer!r}")
        self._reduce, self._neutral = ROW_REDUCERS[reducer]
        shape = values.shape
        self.acc = np.full(shape, self._neutral, dtype=values.dtype)
        self.acc_next = np.full(shape, self._neutral, dtype=values.dtype)
        self._ev_dest: List[np.ndarray] = []
        self._ev_ref: List[np.ndarray] = []
        self._ev_rows: List[np.ndarray] = []
        self._ev_vspan: List[Optional[tuple]] = []
        self._ev_row_base = 0
        # Cached destination grouping of the *whole* edge stream (the
        # reverse-CSR structure): constant per run, built on the first
        # full-graph superstep.
        self._rev_group: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def send_rows(self, workers, senders, rows, sizes) -> None:
        routed = self._route(workers, senders, sizes)
        if routed is None:
            return
        destinations, degrees, span = routed
        # Buffer the send events; the destination-wise fold happens once per
        # superstep in _commit_superstep.  Only sender *references* are
        # repeated per edge here -- rows are gathered after the sort.
        refs = np.repeat(
            np.arange(len(senders), dtype=np.int64) + self._ev_row_base, degrees
        )
        self._ev_dest.append(destinations)
        self._ev_ref.append(refs)
        self._ev_rows.append(np.asarray(rows))
        self._ev_vspan.append(span)
        self._ev_row_base += len(senders)

    def _commit_superstep(self) -> None:
        if not self._ev_dest:
            return
        # Destination-sort + reduceat instead of ufunc.at: group the edge
        # stream by destination (stable, though the reducers are commutative
        # and exact on ints, so any order yields identical bits), reduce each
        # group in one vectorized pass, and fold the per-destination results
        # into the accumulator with a single fancy-indexed assignment.
        spans = self._ev_vspan
        n = len(self.acc_next)
        tiled_full = (
            all(span is not None for span in spans)
            and spans[0][0] == 0
            and spans[-1][1] == n
            and all(spans[i][1] == spans[i + 1][0] for i in range(len(spans) - 1))
        )
        if len(self._ev_rows) == 1:
            pool = self._ev_rows[0]
        else:
            pool = np.concatenate(self._ev_rows, axis=0)
        if tiled_full:
            # Full-graph steady state (every vertex sends every superstep, the
            # common case for sketch propagation): the destination stream is
            # the CSR targets array and pool row i is vertex i's payload, so
            # the sort is a constant of the frozen layout -- computed once,
            # leaving one row gather + one reduceat per superstep.
            if self._rev_group is None:
                # Non-stable sort: the reducers are commutative and exact on
                # ints, so the within-group order cannot change the result.
                order = np.argsort(self.targets)
                sorted_dest = self.targets[order]
                group_starts = np.flatnonzero(
                    np.concatenate(([True], sorted_dest[1:] != sorted_dest[:-1]))
                )
                sources = np.repeat(
                    np.arange(n, dtype=np.int64), self.out_degrees
                )[order]
                self._rev_group = (group_starts, sorted_dest[group_starts], sources)
            group_starts, unique_dest, edge_rows = self._rev_group
        else:
            if len(self._ev_dest) == 1:
                dest, refs = self._ev_dest[0], self._ev_ref[0]
            else:
                dest = np.concatenate(self._ev_dest)
                refs = np.concatenate(self._ev_ref)
            derived = self._steady_lookup(dest, refs)
            if derived is None:
                order = np.argsort(dest)  # non-stable: commutative exact reducers
                sorted_dest = dest[order]
                group_starts = np.flatnonzero(
                    np.concatenate(([True], sorted_dest[1:] != sorted_dest[:-1]))
                )
                derived = (group_starts, sorted_dest[group_starts], refs[order])
                self._steady_store(dest, refs, derived)
            group_starts, unique_dest, edge_rows = derived
        self._ev_dest = []
        self._ev_ref = []
        self._ev_rows = []
        self._ev_vspan = []
        self._ev_row_base = 0
        reduced = self._reduce.reduceat(pool[edge_rows], group_starts, axis=0)
        self.acc_next[unique_dest] = self._reduce(self.acc_next[unique_dest], reduced)

    def _advance_payloads(self) -> None:
        self.acc = self.acc_next
        self.acc_next = np.full(self.values.shape, self._neutral, dtype=self.values.dtype)

    def export_values(self) -> Dict[VertexId, Any]:
        return dict(zip(self.ids, (tuple(row) for row in self.values.tolist())))


# ---------------------------------------------------------------- ragged kind
class StreamBatchContext(RaggedBatchContext):
    """Batch context for variable-length numeric row payloads (top-k lists)."""

    __slots__ = ()

    @property
    def values(self) -> Ragged:
        """Global ragged vertex-value rows (one row per vertex)."""
        return self._state.values

    def incoming_elements(self) -> Tuple[np.ndarray, np.ndarray]:
        """Delivered payload elements as ``(data, per-vertex indptr)``.

        ``data[indptr[v]:indptr[v + 1]]`` is the concatenation of every
        payload delivered to vertex ``v`` this superstep, in scalar send
        order.
        """
        return self._state.in_data, self._state.in_elem_indptr

    def set_rows(self, vertex_indices, rows: Ragged) -> None:
        """Stage new value rows; committed at the end of the superstep."""
        self._state.stage_rows(vertex_indices, rows)

    def send_ragged_to_all_neighbors(self, senders, rows: Ragged, sizes) -> None:
        """Send ragged row ``rows[i]`` along every out-edge of ``senders[i]``."""
        self._state.send_ragged(self._block, senders, rows, sizes)


class RaggedStreamState(_RaggedStateBase):
    """Variable-length numeric payloads delivered in exact scalar send order."""

    context_cls = StreamBatchContext

    def __init__(self, run, values: Ragged) -> None:
        super().__init__(run)
        self.values = values
        n = self.graph.num_vertices
        self.in_data = np.empty(0, dtype=values.data.dtype)
        self.in_elem_indptr = np.zeros(n + 1, dtype=np.int64)
        self._ev_dest: List[np.ndarray] = []
        self._ev_ref: List[np.ndarray] = []
        self._ev_rows: List[Ragged] = []
        self._ev_row_base = 0
        self._staged: List[Tuple[np.ndarray, Ragged]] = []

    def send_ragged(self, workers, senders, rows: Ragged, sizes) -> None:
        routed = self._route(workers, senders, sizes)
        if routed is None:
            return
        destinations, degrees, _ = routed
        refs = np.repeat(
            np.arange(len(senders), dtype=np.int64) + self._ev_row_base, degrees
        )
        self._ev_dest.append(destinations)
        self._ev_ref.append(refs)
        self._ev_rows.append(rows)
        self._ev_row_base += len(senders)

    def stage_rows(self, vertex_indices, rows: Ragged) -> None:
        self._staged.append((np.asarray(vertex_indices, dtype=np.int64), rows))

    def _commit_superstep(self) -> None:
        if not self._staged:
            return
        if len(self._staged) == 1:
            indices, rows = self._staged[0]
        else:
            indices = np.concatenate([idx for idx, _ in self._staged])
            rows = Ragged.concat([rows for _, rows in self._staged])
        self.values = self.values.replace_rows(indices, rows)
        self._staged = []

    def _advance_payloads(self) -> None:
        n = self.graph.num_vertices
        self.in_elem_indptr = np.zeros(n + 1, dtype=np.int64)
        if not self._ev_dest:
            self.in_data = np.empty(0, dtype=self.values.data.dtype)
            return
        dest = np.concatenate(self._ev_dest)
        refs = np.concatenate(self._ev_ref)
        pool = Ragged.concat(self._ev_rows)
        # Stable sort groups messages per destination while preserving the
        # global send order within each vertex's delivery list.  The sorted
        # ref order depends only on the routing arrays, which repeat in the
        # always-active steady state -- reuse it when they do.
        ordered_refs = self._steady_lookup(dest, refs)
        if ordered_refs is None:
            order = np.argsort(dest, kind="stable")
            ordered_refs = refs[order]
            self._steady_store(dest, refs, ordered_refs)
        lengths = pool.lengths[ordered_refs]
        self.in_data = pool.data[
            concat_ranges(pool.offsets[:-1][ordered_refs], lengths)
        ]
        elem_counts = np.bincount(
            dest, weights=pool.lengths[refs], minlength=n
        ).astype(np.int64)
        np.cumsum(elem_counts, out=self.in_elem_indptr[1:])
        self._ev_dest = []
        self._ev_ref = []
        self._ev_rows = []
        self._ev_row_base = 0

    def export_values(self) -> Dict[VertexId, Any]:
        return dict(zip(self.ids, self.values.to_tuples()))


# ---------------------------------------------------------------- object kind
class ObjectBatchContext(RaggedBatchContext):
    """Batch context for arbitrary Python payloads (semi-cluster lists).

    Routing and counters stay vectorized; values and message payloads are
    plain Python objects folded per vertex by the algorithm.
    """

    __slots__ = ()

    def vertex_id(self, i: int) -> VertexId:
        """The vertex id of vertex index ``i``."""
        return self._state.ids[i]

    def out_edges(self, i: int):
        """Outgoing ``(target_id, weight)`` pairs of vertex index ``i``."""
        state = self._state
        return state.graph.out_edges(state.ids[i])

    def value_of(self, i: int) -> Any:
        """Current value of vertex index ``i``."""
        return self._state.values[i]

    def set_value(self, i: int, value: Any) -> None:
        """Update the value of vertex index ``i``."""
        self._state.values[i] = value

    def messages_of(self, i: int) -> List[Any]:
        """Payloads delivered to vertex index ``i``, in scalar send order."""
        return self._state.messages_of(i)

    def send_objects_to_all_neighbors(self, senders, payloads: List[Any]) -> None:
        """Send payload ``payloads[i]`` along every out-edge of ``senders[i]``."""
        self._state.send_objects(self._block, senders, payloads)


class ObjectState(_RaggedStateBase):
    """Python payload plane: batch routing, per-vertex folds."""

    context_cls = ObjectBatchContext

    def __init__(self, run, values: List[Any]) -> None:
        super().__init__(run)
        self.values = values
        self._pool: List[Any] = []
        self._ev_dest: List[np.ndarray] = []
        self._ev_ref: List[np.ndarray] = []
        self.in_refs = np.empty(0, dtype=np.int64)
        self.in_pool: List[Any] = []
        n = self.graph.num_vertices
        self.in_msg_indptr = np.zeros(n + 1, dtype=np.int64)

    def send_objects(self, workers, senders, payloads: List[Any]) -> None:
        # Per-message sizes via the algorithm's own sizer: one call per
        # sender instead of the scalar path's one call per edge -- every
        # copy of a payload has the same size either way.
        sizer = self.run.message_sizer
        sizes = np.fromiter(
            (sizer(payload) for payload in payloads), dtype=np.int64, count=len(payloads)
        )
        routed = self._route(workers, senders, sizes)
        if routed is None:
            return
        destinations, degrees, _ = routed
        refs = np.repeat(
            np.arange(len(payloads), dtype=np.int64) + len(self._pool), degrees
        )
        self._ev_dest.append(destinations)
        self._ev_ref.append(refs)
        self._pool.extend(payloads)

    def messages_of(self, i: int) -> List[Any]:
        lo = self.in_msg_indptr[i]
        hi = self.in_msg_indptr[i + 1]
        if lo == hi:
            return []
        pool = self.in_pool
        return [pool[j] for j in self.in_refs[lo:hi].tolist()]

    def _advance_payloads(self) -> None:
        n = self.graph.num_vertices
        self.in_msg_indptr = np.zeros(n + 1, dtype=np.int64)
        if not self._ev_dest:
            self.in_refs = np.empty(0, dtype=np.int64)
            self.in_pool = []
            return
        dest = np.concatenate(self._ev_dest)
        refs = np.concatenate(self._ev_ref)
        derived = self._steady_lookup(dest, refs)
        if derived is None:
            order = np.argsort(dest, kind="stable")
            derived = (refs[order], np.bincount(dest, minlength=n))
            self._steady_store(dest, refs, derived)
        self.in_refs, counts = derived
        self.in_pool = self._pool
        np.cumsum(counts, out=self.in_msg_indptr[1:])
        self._pool = []
        self._ev_dest = []
        self._ev_ref = []

    def export_values(self) -> Dict[VertexId, Any]:
        return dict(zip(self.ids, self.values))


# --------------------------------------------------- numeric object fast path
class ClusterRowsContext(StreamBatchContext):
    """Batch context for the numeric fast path of the ``"object"`` kind.

    The payloads are fixed-width numeric *records* (one semi-cluster per
    record) travelling flattened through the ``"ragged"`` delivery machinery,
    so the full :class:`StreamBatchContext` surface applies: ``values`` is
    the global ragged value store (row ``v`` holds vertex ``v``'s records,
    flattened), ``incoming_elements()`` yields the delivered record stream in
    exact scalar send order, ``set_rows`` stages value updates and
    ``send_ragged_to_all_neighbors`` routes record blocks with explicit
    wire-format byte sizes.  On top of that the context exposes the frozen
    graph's CSR arrays -- the vectorized fold consumes adjacency directly
    instead of going through per-vertex ``out_edges`` calls -- and a per-run
    ``cache`` dict where the algorithm keeps run constants (for
    semi-clustering: the record width and the string-rank permutation that
    reproduces the scalar sort tie-break).
    """

    __slots__ = ()

    @property
    def edge_indptr(self) -> np.ndarray:
        """CSR ``indptr`` of the run graph (edge slots of vertex ``i``)."""
        return self._state.indptr

    @property
    def edge_targets(self) -> np.ndarray:
        """CSR ``targets`` of the run graph (destination vertex indices)."""
        return self._state.targets

    @property
    def edge_weights(self) -> np.ndarray:
        """CSR ``weights`` of the run graph, aligned with ``edge_targets``."""
        return self._state.graph.weights

    @property
    def cache(self) -> Dict[str, Any]:
        """Per-run scratch space for algorithm-owned constants."""
        return self._state.cache


class ClusterRowsState(RaggedStreamState):
    """Numeric record plane: the ``"object"`` kind without Python payloads.

    Built instead of :class:`ObjectState` when the algorithm encodes its
    payloads as fixed-width float64 records (see
    ``SemiClustering.encode_numeric_object_plane``) and
    ``EngineConfig.semicluster_numeric`` is on.  Everything below the
    algorithm -- routing, stable per-destination delivery, counter and
    delivered-bytes accounting -- is inherited unchanged from
    :class:`RaggedStreamState`; byte sizes follow the algorithm's *wire
    format* (reported per sender at send time), never the padded in-memory
    record width, so every Table 1 feature matches the scalar path exactly.
    Only value export differs: records decode back into the algorithm's
    Python value objects once, at the end of the run.
    """

    context_cls = ClusterRowsContext

    def __init__(self, run, values: Ragged, decode, cache: Dict[str, Any]) -> None:
        super().__init__(run, values)
        self._decode = decode
        self.cache = cache

    def export_values(self) -> Dict[VertexId, Any]:
        return self._decode(self)


# ------------------------------------------------------------------- factory
def build_ragged_state(run) -> Optional[_RaggedStateBase]:
    """Build the ragged batch state for ``run``, or None when ineligible.

    Ineligibility (non-frozen graph, scalar-only algorithm, an active
    combiner, or values that do not encode into the declared payload kind)
    silently falls back to the per-vertex scalar path, mirroring
    ``_VectorizedState.try_build``.

    For the ``"object"`` kind there is a second, inner dispatch: when the
    engine config leaves ``semicluster_numeric`` on and the algorithm
    provides the numeric-record hooks (``encode_numeric_object_plane`` /
    ``decode_numeric_object_values``), the numeric
    :class:`ClusterRowsState` is built; if the encoder declines (string-id
    rank collisions, oversized clusters, unencodable members) or the flag is
    off, the Python-fold :class:`ObjectState` is used.  Both are
    bit-identical to the scalar path, so the choice is purely a speed/
    baseline trade-off.
    """
    algorithm = run.algorithm
    if not (
        run.engine_config.vectorized
        and getattr(run.graph, "is_frozen", False)
        and callable(getattr(algorithm, "compute_batch", None))
    ):
        return None
    if run.combiner is not None:
        return None
    kind = getattr(algorithm, "batch_payload", "scalar")
    values = [run.values[vertex] for vertex in run.batch_graph().vertices()]
    if kind == "rows":
        try:
            encoded = np.asarray(values, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            return None
        if encoded.ndim != 2:
            return None
        return RowReduceState(run, encoded)
    if kind == "ragged":
        try:
            encoded = Ragged.from_rows(values, dtype=np.float64)
        except (TypeError, ValueError):
            return None
        return RaggedStreamState(run, encoded)
    if kind == "object":
        encoder = getattr(algorithm, "encode_numeric_object_plane", None)
        if getattr(run.engine_config, "semicluster_numeric", True) and callable(encoder):
            built = encoder(run.batch_graph(), values, run.config)
            if built is not None:
                encoded, cache = built
                return ClusterRowsState(
                    run, encoded, algorithm.decode_numeric_object_values, cache
                )
        return ObjectState(run, list(values))
    raise BSPError(f"unknown batch_payload kind {kind!r}")
