"""Parallel semi-clustering (Malewicz et al., Pregel, SIGMOD 2010).

Semi-clustering groups vertices that interact frequently with each other; a
vertex may belong to several semi-clusters.  Each semi-cluster ``c`` carries a
score

``S_c = (I_c - f_B * B_c) / (V_c * (V_c - 1) / 2)``

where ``I_c`` is the total weight of internal edges, ``B_c`` the total weight
of boundary edges, ``f_B`` the boundary-edge penalty factor and ``V_c`` the
number of member vertices (the normalisation prevents large clusters from
dominating).

Execution (per the paper's §4.2):

* iteration 0: every vertex creates the singleton semi-cluster ``{v}`` and
  sends it to all neighbours;
* iteration ``i``: every vertex iterates over the semi-clusters received; any
  cluster that does not contain the vertex and has fewer than ``Vmax`` members
  is extended with it; received plus newly-formed clusters are sorted by score
  and the best ``Smax`` are forwarded to the neighbours; the vertex keeps the
  best ``Cmax`` clusters that contain it.

Messages are *lists of semi-clusters*, each of which grows over iterations --
this is the paper's category ii.a (variable per-iteration runtime caused by
growing message sizes).

Convergence: the practical stopping condition from the paper,
``updatedClusters / totalClusters < tau``, where ``updatedClusters`` counts
vertices whose best-cluster list changed during the iteration.  The ratio is
not tuned to the dataset size, so the PREDIcT default transform keeps ``tau``
unchanged on the sample run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    IterativeAlgorithm,
    require_in_unit_interval,
    require_positive,
)
from repro.bsp.aggregators import Aggregator, sum_aggregator
from repro.bsp.master import GraphInfo
from repro.bsp.ragged import ClusterRowsContext, Ragged
from repro.bsp.vertex import VertexContext
from repro.graph.csr import concat_ranges
from repro.graph.digraph import DiGraph

#: Aggregator counting vertices whose semi-cluster list changed.
UPDATES_AGGREGATOR = "semiclustering.updated"
#: Aggregator counting the total number of semi-clusters maintained.
TOTAL_AGGREGATOR = "semiclustering.total"

#: Ceiling on ``v_max`` for the numeric batch plane: records are padded to
#: ``v_max`` member slots, so pathological configs fall back to the object
#: fold instead of allocating huge mostly-empty rows.
NUMERIC_VMAX_LIMIT = 64


#: Extension records whose adjacency streams one fold pass expands at once.
#: A superstep's ``compute_batch`` covers a whole block of workers, and its
#: extension stream (one copy of a vertex's out-edges per extendable record)
#: is the largest intermediate of the fold; chunking it bounds peak memory.
#: Results do not depend on the value: every record's folds stay whole.
EXTENSION_CHUNK_RECORDS = 2048


def _extension_weights(
    batch, ext_vertex: np.ndarray, ext_members: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge weight from each extending vertex into / out of its cluster.

    Record ``r`` extends the cluster with members ``ext_members[r]`` (-1
    padded) by vertex ``ext_vertex[r]``.  Returns per-record
    ``(weight_to_members, weight_to_outside)`` -- the masked sums over the
    vertex's out-edges in adjacency order that ``SemiCluster.extended_with``
    computes, via the sequential
    :func:`~repro.bsp.kernels.reference.masked_segment_left_fold`.  The
    adjacency stream is expanded :data:`EXTENSION_CHUNK_RECORDS` records at
    a time.
    """
    indptr = batch.edge_indptr
    targets = batch.edge_targets
    weights = batch.edge_weights
    fold = batch.kernels.masked_segment_left_fold
    num_ext = len(ext_vertex)
    to_members = np.empty(num_ext, dtype=np.float64)
    to_outside = np.empty(num_ext, dtype=np.float64)
    for lo in range(0, num_ext, EXTENSION_CHUNK_RECORDS):
        hi = min(lo + EXTENSION_CHUNK_RECORDS, num_ext)
        vertex = ext_vertex[lo:hi]
        degrees = batch.out_degrees[vertex]
        slots = concat_ranges(indptr[vertex], degrees)
        stream_t = targets[slots]
        stream_w = weights[slots]
        in_members = np.zeros(len(stream_t), dtype=bool)
        for column in ext_members[lo:hi].T:
            in_members |= stream_t == np.repeat(column, degrees)
        stream_seg = np.repeat(np.arange(hi - lo, dtype=np.int64), degrees)
        to_members[lo:hi] = fold(stream_w, in_members, stream_seg, hi - lo)
        outside = ~in_members & (stream_t != np.repeat(vertex, degrees))
        to_outside[lo:hi] = fold(stream_w, outside, stream_seg, hi - lo)
    return to_members, to_outside


def _extend_records(
    batch, records: np.ndarray, vertex: np.ndarray, str_rank: np.ndarray
) -> np.ndarray:
    """``records[r]`` extended by ``vertex[r]``, as ``SemiCluster.extended_with``.

    Records use the numeric plane's layout (see
    :meth:`SemiClustering.encode_numeric_object_plane`): the weights follow
    the scalar expressions term for term, and the vertex is inserted into
    the string-rank-sorted member slots.  Every record has a free member
    slot (extension requires fewer than ``v_max`` members).
    """
    # Member slots past the largest cluster are -1 padding in every record;
    # they neither match a target nor move, so only the used ones are read.
    used = int(records[:, 2].max()) if len(records) else 0
    members = records[:, 3 : 3 + used]
    members_int = members.astype(np.int64)
    to_members, to_outside = _extension_weights(batch, vertex, members_int)
    extended = np.full_like(records, -1.0)
    extended[:, 0] = records[:, 0] + to_members
    shrunk = records[:, 1] - to_members
    extended[:, 1] = np.where(shrunk > 0.0, shrunk, 0.0) + to_outside
    extended[:, 2] = records[:, 2] + 1.0
    member_ranks = np.where(
        members_int >= 0, str_rank[np.maximum(members_int, 0)], len(str_rank)
    )
    insert_pos = (member_ranks < str_rank[vertex][:, None]).sum(axis=1)
    vertex_col = vertex.astype(np.float64)
    for j in range(used + 1):
        shifted = members[:, j - 1] if j else np.full(len(vertex), -1.0)
        current = members[:, j] if j < used else -1.0
        extended[:, 3 + j] = np.where(
            j < insert_pos,
            current,
            np.where(j == insert_pos, vertex_col, shifted),
        )
    return extended


def _positions_within(counts: np.ndarray) -> np.ndarray:
    """0-based position of each element within its (concatenated) segment."""
    total = int(counts.sum())
    prefix = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(prefix, counts)


@dataclass(frozen=True)
class SemiCluster:
    """An immutable semi-cluster: members plus incremental score terms."""

    members: FrozenSet[Any]
    internal_weight: float
    boundary_weight: float

    def score(self, boundary_factor: float) -> float:
        """The paper's normalised score ``S_c``."""
        size = len(self.members)
        if size <= 1:
            # A singleton has no internal edges; define its score as 0 so it
            # never beats a real cluster (this matches the Pregel paper).
            return 0.0
        normaliser = size * (size - 1) / 2.0
        return (self.internal_weight - boundary_factor * self.boundary_weight) / normaliser

    def contains(self, vertex: Any) -> bool:
        """True when ``vertex`` is already a member."""
        return vertex in self.members

    def extended_with(self, vertex: Any, out_edges: List[Tuple[Any, float]]) -> "SemiCluster":
        """Return a new cluster with ``vertex`` added.

        The score terms are updated incrementally from the vertex's own edge
        list: edges from the vertex to existing members become internal (and
        stop being boundary edges), all other edges of the vertex become
        boundary edges.
        """
        weight_to_members = 0.0
        weight_to_outside = 0.0
        for target, weight in out_edges:
            if target in self.members:
                weight_to_members += weight
            elif target != vertex:
                weight_to_outside += weight
        internal = self.internal_weight + weight_to_members
        boundary = max(0.0, self.boundary_weight - weight_to_members) + weight_to_outside
        return SemiCluster(
            members=self.members | {vertex},
            internal_weight=internal,
            boundary_weight=boundary,
        )

    @staticmethod
    def singleton(vertex: Any, out_edges: List[Tuple[Any, float]]) -> "SemiCluster":
        """The initial single-member cluster of ``vertex``."""
        boundary = sum(weight for target, weight in out_edges if target != vertex)
        return SemiCluster(members=frozenset([vertex]), internal_weight=0.0, boundary_weight=boundary)


@dataclass(frozen=True)
class SemiClusteringConfig:
    """Configuration of a semi-clustering run (paper base settings).

    Attributes
    ----------
    c_max:
        Maximum number of semi-clusters a vertex keeps (``Cmax``).
    s_max:
        Maximum number of semi-clusters a vertex forwards (``Smax``).
    v_max:
        Maximum number of vertices in a semi-cluster (``Vmax``).
    boundary_factor:
        The boundary edge penalty ``f_B`` (0 < f_B < 1).
    tolerance:
        Convergence threshold on ``updatedClusters / totalClusters``.
    max_iterations:
        Safety budget on supersteps.
    """

    c_max: int = 1
    s_max: int = 1
    v_max: int = 10
    boundary_factor: float = 0.1
    tolerance: float = 0.001
    max_iterations: int = 60


class SemiClustering(IterativeAlgorithm):
    """The Pregel parallel semi-clustering algorithm."""

    name = "semi-clustering"
    prefix = "SC"
    convergence_attribute = "tolerance"
    convergence_tuned_to_input_size = False
    requires_undirected = True

    def default_config(self) -> SemiClusteringConfig:
        return SemiClusteringConfig()

    def validate_config(self, config: SemiClusteringConfig) -> None:
        require_positive("c_max", config.c_max)
        require_positive("s_max", config.s_max)
        require_positive("v_max", config.v_max)
        require_in_unit_interval("boundary_factor", config.boundary_factor)
        require_in_unit_interval("tolerance", config.tolerance)
        require_positive("max_iterations", config.max_iterations)

    # ------------------------------------------------------------ vertex API
    def initial_value(self, vertex, graph: DiGraph, config) -> Tuple[SemiCluster, ...]:
        return ()

    def aggregators(self, config) -> List[Aggregator]:
        return [sum_aggregator(UPDATES_AGGREGATOR), sum_aggregator(TOTAL_AGGREGATOR)]

    def message_size(self, payload: Any) -> int:
        # payload is a tuple of SemiCluster objects: 8 bytes per member id
        # plus two doubles of score terms and small framing per cluster.
        size = 4
        for cluster in payload:
            size += 20 + 8 * len(cluster.members)
        return size

    def _fold_vertex(
        self,
        vertex,
        received: List[SemiCluster],
        out_edges: List[Tuple[Any, float]],
        value: Tuple[SemiCluster, ...],
        config: SemiClusteringConfig,
    ) -> Tuple[Optional[Tuple[SemiCluster, ...]], Tuple[SemiCluster, ...], bool]:
        """One vertex's candidate fold, shared by the scalar and batch paths.

        Returns ``(to_send, new_value, updated)``; ``to_send`` is None when
        there were no candidates at all (the vertex goes to sleep).
        """
        # Extend received clusters with this vertex where allowed.
        candidates: List[SemiCluster] = list(received)
        for cluster in received:
            if not cluster.contains(vertex) and len(cluster.members) < config.v_max:
                candidates.append(cluster.extended_with(vertex, out_edges))

        if not candidates:
            return None, value, False

        def sort_key(cluster: SemiCluster):
            # Deterministic ordering: score first, then members for ties.
            return (-cluster.score(config.boundary_factor), tuple(sorted(map(str, cluster.members))))

        candidates.sort(key=sort_key)

        # Forward the best Smax candidates; keep the best Cmax that contain
        # this vertex.
        to_send = tuple(candidates[: config.s_max])
        containing = [cluster for cluster in candidates if cluster.contains(vertex)]
        new_value = tuple(containing[: config.c_max])
        if new_value and set(new_value) != set(value):
            return to_send, new_value, True
        return to_send, value, False

    def compute(
        self,
        ctx: VertexContext,
        messages: List[Tuple[SemiCluster, ...]],
        config: SemiClusteringConfig,
    ) -> None:
        vertex = ctx.vertex_id
        out_edges = ctx.out_edges()

        if ctx.superstep == 0:
            singleton = SemiCluster.singleton(vertex, out_edges)
            ctx.value = (singleton,)
            ctx.aggregate(UPDATES_AGGREGATOR, 1.0)
            ctx.aggregate(TOTAL_AGGREGATOR, 1.0)
            ctx.send_message_to_all_neighbors((singleton,))
            return

        received: List[SemiCluster] = []
        for payload in messages:
            received.extend(payload)

        to_send, new_value, updated = self._fold_vertex(
            vertex, received, out_edges, ctx.value, config
        )
        if to_send is None:
            ctx.aggregate(TOTAL_AGGREGATOR, float(len(ctx.value)))
            ctx.vote_to_halt()
            return
        if to_send:
            ctx.send_message_to_all_neighbors(to_send)
        if updated:
            ctx.value = new_value
            ctx.aggregate(UPDATES_AGGREGATOR, 1.0)
        ctx.aggregate(TOTAL_AGGREGATOR, float(max(len(ctx.value), 1)))

    # ------------------------------------------------------- vectorized batch
    batch_payload = "object"

    def compute_batch(self, batch, config: SemiClusteringConfig) -> None:
        """Batch superstep on either ``"object"`` plane.

        The engine hands this method one of two context types, decided once
        per run in ``repro.bsp.ragged.build_ragged_state``:

        * :class:`~repro.bsp.ragged.ClusterRowsContext` -- the **numeric
          fast path** (default): semi-clusters are fixed-width float64
          records and the whole fold (extension, scoring, the sorted
          top-``Smax``/``Cmax`` merge, the update test) runs as array
          kernels in :meth:`_compute_batch_numeric`.
        * :class:`~repro.bsp.ragged.ObjectBatchContext` -- the hybrid
          fallback (``EngineConfig(semicluster_numeric=False)``, or an
          input the encoder declines): array-side routing and counters, but
          the per-vertex fold mirrors :meth:`compute` on Python objects.

        Both process vertices in partition order and emit sends in that
        order, so delivery lists and every counter match the scalar path
        exactly.
        """
        if isinstance(batch, ClusterRowsContext):
            self._compute_batch_numeric(batch, config)
            return
        indices = batch.indices
        if batch.superstep == 0:
            payloads = []
            for i in indices.tolist():
                singleton = SemiCluster.singleton(batch.vertex_id(i), batch.out_edges(i))
                batch.set_value(i, (singleton,))
                payloads.append((singleton,))
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(len(payloads)))
            batch.aggregate(TOTAL_AGGREGATOR, np.ones(len(payloads)))
            batch.send_objects_to_all_neighbors(indices, payloads)
            return

        senders: List[int] = []
        payloads = []
        halters: List[int] = []
        totals: List[float] = []
        updates = 0
        for position, i in enumerate(indices.tolist()):
            vertex = batch.vertex_id(i)
            received: List[SemiCluster] = []
            for payload in batch.messages_of(i):
                received.extend(payload)

            value = batch.value_of(i)
            to_send, new_value, updated = self._fold_vertex(
                vertex, received, batch.out_edges(i), value, config
            )
            if to_send is None:
                totals.append(float(len(value)))
                halters.append(position)
                continue
            if to_send:
                senders.append(i)
                payloads.append(to_send)
            if updated:
                batch.set_value(i, new_value)
                updates += 1
                value = new_value
            totals.append(float(max(len(value), 1)))

        if updates:
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(updates))
        batch.aggregate(TOTAL_AGGREGATOR, totals)
        if senders:
            batch.send_objects_to_all_neighbors(
                np.asarray(senders, dtype=np.int64), payloads
            )
        if halters:
            batch.vote_to_halt(np.asarray(halters, dtype=np.int64))

    # ----------------------------------------------- numeric record plane
    # Record layout (width = v_max + 3, all float64):
    #   [0] internal_weight   [1] boundary_weight   [2] member count
    #   [3 : 3 + v_max] member vertex indices, sorted by string rank,
    #                   padded with -1.
    # Member ids as indices stay exact in float64 (< 2**53), and storing
    # them in string-rank order makes the scalar sort tie-break
    # (tuple(sorted(map(str, members)))) a plain lexicographic comparison
    # of the rank columns.

    def encode_numeric_object_plane(self, graph, values, config):
        """Encode initial values for the numeric plane, or None to decline.

        Declines (falling back to the Python-object fold) when the numeric
        representation cannot reproduce the scalar semantics: distinct
        vertex ids whose ``str()`` forms collide (the rank order would no
        longer equal the scalar string tie-break), clusters over ``v_max``
        members, members missing from the graph, or an oversized ``v_max``.
        Returns ``(Ragged values, cache)`` with the per-run constants the
        fold needs: the record ``width`` and the ``str_rank`` permutation.
        """
        v_max = int(config.v_max)
        if v_max > NUMERIC_VMAX_LIMIT:
            return None
        n = graph.num_vertices
        ids = graph.ids
        strings = [str(vertex) for vertex in ids]
        order = sorted(range(n), key=strings.__getitem__)
        if any(strings[a] == strings[b] for a, b in zip(order, order[1:])):
            return None
        str_rank = np.empty(n, dtype=np.int64)
        str_rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
        width = v_max + 3
        if any(len(value) for value in values):
            index = graph.index
            rank_of = str_rank.tolist()
            rows: List[List[float]] = []
            for value in values:
                row: List[float] = []
                for cluster in value:
                    if len(cluster.members) > v_max:
                        return None
                    try:
                        members = sorted(
                            (index[m] for m in cluster.members),
                            key=rank_of.__getitem__,
                        )
                    except KeyError:
                        return None
                    row.append(float(cluster.internal_weight))
                    row.append(float(cluster.boundary_weight))
                    row.append(float(len(members)))
                    row.extend(float(m) for m in members)
                    row.extend([-1.0] * (v_max - len(members)))
                rows.append(row)
            encoded = Ragged.from_rows(rows, dtype=np.float64)
        else:
            encoded = Ragged(
                np.empty(0, dtype=np.float64), np.zeros(n + 1, dtype=np.int64)
            )
        cache = {"width": width, "str_rank": str_rank}
        return encoded, cache

    def decode_numeric_object_values(self, state) -> Dict[Any, Tuple[SemiCluster, ...]]:
        """Decode the plane's record store back into per-vertex cluster tuples."""
        width = state.cache["width"]
        ids = state.ids
        data = state.values.data.tolist()
        bounds = state.values.offsets.tolist()
        out: Dict[Any, Tuple[SemiCluster, ...]] = {}
        for i, vertex in enumerate(ids):
            lo, hi = bounds[i], bounds[i + 1]
            clusters = []
            while lo < hi:
                record = data[lo : lo + width]
                count = int(record[2])
                members = frozenset(ids[int(m)] for m in record[3 : 3 + count])
                clusters.append(SemiCluster(members, record[0], record[1]))
                lo += width
            out[vertex] = tuple(clusters)
        return out

    def _compute_batch_numeric(self, batch, config: SemiClusteringConfig) -> None:
        """Fully vectorized superstep on the numeric record plane.

        Reproduces :meth:`_fold_vertex` bit for bit without touching Python
        payload objects:

        * the masked adjacency sums of ``extended_with``/``singleton`` use
          :func:`~repro.bsp.ragged.masked_segment_left_fold`, whose per-row
          accumulation is strictly sequential in adjacency order -- the same
          IEEE rounding as the scalar Python fold (``np.sum``'s pairwise
          reduction would differ);
        * scores are recomputed with the exact scalar expression, and the
          candidate sort is one ``np.lexsort`` keyed by (vertex, -score,
          member string ranks) -- stable, like ``list.sort`` -- with member
          slots padded by -1 so that a rank-prefix cluster orders before its
          extensions, exactly like Python's shorter-tuple-first rule;
        * the ``set(new_value) != set(value)`` update test becomes a
          canonical sort + dedup comparison of old and new record blocks
          (:func:`~repro.bsp.ragged.segment_unique_records`);
        * sent byte sizes follow the scalar wire format, ``4 + sum(20 + 8 *
          members)`` per message, never the padded record width.
        """
        cache = batch.cache
        str_rank: np.ndarray = cache["str_rank"]
        width: int = cache["width"]
        v_max = int(config.v_max)
        idx = batch.indices
        k = len(idx)
        n = len(str_rank)
        indptr = batch.edge_indptr
        targets = batch.edge_targets
        weights = batch.edge_weights
        out_degrees = batch.out_degrees

        if batch.superstep == 0:
            degrees = out_degrees[idx]
            slots = concat_ranges(indptr[idx], degrees)
            stream_seg = np.repeat(np.arange(k, dtype=np.int64), degrees)
            not_self = targets[slots] != idx[stream_seg]
            boundary = batch.kernels.masked_segment_left_fold(
                weights[slots], not_self, stream_seg, k
            )
            records = np.full((k, width), -1.0, dtype=np.float64)
            records[:, 0] = 0.0
            records[:, 1] = boundary
            records[:, 2] = 1.0
            records[:, 3] = idx.astype(np.float64)
            rows = Ragged.from_lengths(
                records.reshape(-1), np.full(k, width, dtype=np.int64)
            )
            batch.set_rows(idx, rows)
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(k))
            batch.aggregate(TOTAL_AGGREGATOR, np.ones(k))
            # Wire size of a one-member singleton message: 4 + (20 + 8).
            batch.send_ragged_to_all_neighbors(
                idx, rows, np.full(k, 32, dtype=np.int64)
            )
            return

        # ------------------------------------------------ delivered records
        in_data, in_indptr = batch.incoming_elements()
        elem_starts = in_indptr[idx]
        elem_lens = in_indptr[idx + 1] - elem_starts
        rec_counts = elem_lens // width
        values = batch.values
        old_counts = values.lengths[idx] // width
        halt_mask = rec_counts == 0
        total_records = int(rec_counts.sum())

        if total_records == 0:
            batch.aggregate(TOTAL_AGGREGATOR, old_counts.astype(np.float64))
            batch.vote_to_halt(np.flatnonzero(halt_mask))
            return

        received = in_data[concat_ranges(elem_starts, elem_lens)].reshape(-1, width)
        rec_seg = np.repeat(np.arange(k, dtype=np.int64), rec_counts)
        rec_members_int = received[:, 3:].astype(np.int64)
        rec_counts_col = received[:, 2]
        contains = (rec_members_int == idx[rec_seg][:, None]).any(axis=1)
        extendable = ~contains & (rec_counts_col < v_max)

        # ------------------------------------------------------- extensions
        ext = np.flatnonzero(extendable)
        ext_seg = rec_seg[ext]
        ext_records = _extend_records(batch, received[ext], idx[ext_seg], str_rank)
        ext_counts_per_vertex = np.bincount(ext_seg, minlength=k)

        # ------------------------------------------- candidate list assembly
        # Scalar order per vertex: all received clusters first (delivery
        # order), then the extensions in the order of the clusters that
        # spawned them.
        cand_counts = rec_counts + ext_counts_per_vertex
        total = int(cand_counts.sum())
        cand_offsets = np.cumsum(cand_counts) - cand_counts
        rec_to = cand_offsets[rec_seg] + _positions_within(rec_counts)
        cand_rec = np.empty((total, width), dtype=np.float64)
        cand_contains = np.empty(total, dtype=bool)
        cand_rec[rec_to] = received
        cand_contains[rec_to] = contains
        ext_to = (
            cand_offsets[ext_seg]
            + rec_counts[ext_seg]
            + _positions_within(ext_counts_per_vertex)
        )
        cand_rec[ext_to] = ext_records
        cand_contains[ext_to] = True
        # One call covers a whole worker block: drop the per-call arrays as
        # soon as they are dead to keep the peak footprint down.
        del received, rec_members_int, rec_counts_col, contains, extendable, ext_records
        cand_seg = np.repeat(np.arange(k, dtype=np.int64), cand_counts)

        # -------------------------------------------------- score + sorting
        # The exact scalar expression of SemiCluster.score, term for term.
        cand_count = cand_rec[:, 2]
        normaliser = cand_count * (cand_count - 1.0) / 2.0
        safe_norm = np.where(normaliser == 0.0, 1.0, normaliser)
        score = np.where(
            cand_count <= 1.0,
            0.0,
            (cand_rec[:, 0] - config.boundary_factor * cand_rec[:, 1]) / safe_norm,
        )
        # Tie-break keys: member string ranks shifted to 1..n with 0 for
        # padding, so a rank-prefix cluster sorts before its extensions --
        # Python's shorter-tuple-first rule.  As many rank columns as fit
        # are bit-packed into each int64 lexsort key (fields compare
        # lexicographically, so the order is unchanged); this halves the
        # number of stable sort passes, the hottest part of the fold.
        # Slots past the largest candidate are padding in every row, a
        # constant key that cannot change the order, so they are left out.
        used = int(cand_count.max())
        members_int = cand_rec[:, 3 : 3 + used].astype(np.int64)
        rank_plus = np.where(
            members_int >= 0, str_rank[np.maximum(members_int, 0)] + 1, 0
        )
        bits = max(1, int(n).bit_length())
        per_key = max(1, 63 // bits)
        packed = batch.kernels.pack_rank_keys(rank_plus, bits, per_key)
        # lexsort: last key is primary.  Priority (vertex, -score, ranks).
        order = np.lexsort(tuple(reversed(packed)) + (np.negative(score), cand_seg))
        del members_int, rank_plus, packed, score, normaliser, safe_norm
        s_rec = cand_rec[order]
        s_count = s_rec[:, 2]
        s_contains = cand_contains[order]
        del cand_rec, cand_count, cand_contains, order
        # The sort is grouped by vertex (primary key), so segment offsets and
        # per-element positions are unchanged.
        position = _positions_within(cand_counts)

        # ------------------------------------------------- forward the best
        live_mask = ~halt_mask
        send_sel = position < config.s_max
        send_counts = np.minimum(cand_counts, config.s_max)
        send_records = s_rec[send_sel]
        member_totals = np.bincount(
            cand_seg[send_sel], weights=s_count[send_sel], minlength=k
        ).astype(np.int64)
        senders = idx[live_mask]
        sizes = 4 + 20 * send_counts[live_mask] + 8 * member_totals[live_mask]
        payload = Ragged.from_lengths(
            send_records.reshape(-1), send_counts[live_mask] * width
        )
        batch.send_ragged_to_all_neighbors(senders, payload, sizes)

        # ------------------------------------- keep the best Cmax containing
        cont_int = s_contains.astype(np.int64)
        cumulative = np.cumsum(cont_int)
        safe_offsets = np.minimum(cand_offsets, max(total - 1, 0))
        seg_base = cumulative[safe_offsets] - cont_int[safe_offsets]
        containing_rank = cumulative - np.repeat(seg_base, cand_counts)
        keep_sel = s_contains & (containing_rank <= config.c_max)
        new_counts = np.bincount(cand_seg[keep_sel], minlength=k)

        # Update test: set(new_value) != set(value), on canonical record sets.
        old_starts = values.offsets[:-1][idx]
        old_lens = values.lengths[idx]
        old_records = values.data[concat_ranges(old_starts, old_lens)].reshape(-1, width)
        old_seg = np.repeat(np.arange(k, dtype=np.int64), old_counts)
        new_records = s_rec[keep_sel]
        new_seg = cand_seg[keep_sel]
        unique_records = batch.kernels.segment_unique_records
        old_u, old_u_seg, old_u_counts = unique_records(old_records, old_seg, k)
        new_u, new_u_seg, new_u_counts = unique_records(new_records, new_seg, k)
        count_match = old_u_counts == new_u_counts
        aligned_new = count_match[new_u_seg]
        aligned_old = count_match[old_u_seg]
        mismatch_rows = ~np.all(new_u[aligned_new] == old_u[aligned_old], axis=1)
        mismatched = (
            np.bincount(new_u_seg[aligned_new][mismatch_rows], minlength=k) > 0
        )
        sets_equal = count_match & ~mismatched
        updated = (new_counts > 0) & ~sets_equal & live_mask

        if np.any(updated):
            store = new_records[updated[new_seg]]
            batch.set_rows(
                idx[updated],
                Ragged.from_lengths(store.reshape(-1), new_counts[updated] * width),
            )

        # -------------------------------------------- aggregates + halting
        num_updates = int(np.count_nonzero(updated))
        if num_updates:
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(num_updates))
        kept_len = np.where(updated, new_counts, old_counts)
        totals = np.where(
            halt_mask, old_counts.astype(np.float64), np.maximum(kept_len, 1)
        )
        batch.aggregate(TOTAL_AGGREGATOR, totals)
        if np.any(halt_mask):
            batch.vote_to_halt(np.flatnonzero(halt_mask))

    # ------------------------------------------------------------ convergence
    def check_convergence(
        self,
        aggregates: Dict[str, float],
        superstep: int,
        graph_info: GraphInfo,
        config: SemiClusteringConfig,
    ) -> Tuple[bool, Optional[float]]:
        if superstep == 0:
            return False, None
        updated = aggregates.get(UPDATES_AGGREGATOR, 0.0)
        total = max(aggregates.get(TOTAL_AGGREGATOR, 0.0), 1.0)
        ratio = updated / total
        return ratio < config.tolerance, ratio


def best_clusters(vertex_values: Dict, boundary_factor: float = 0.1, top: int = 10) -> List[SemiCluster]:
    """Aggregate the per-vertex cluster lists into a global best-cluster list.

    Mirrors the paper's final step: "the set of best semi-clusters of each
    vertex ... are aggregated into a global list of best semi-clusters".
    """
    seen: Dict[FrozenSet[Any], SemiCluster] = {}
    for clusters in vertex_values.values():
        for cluster in clusters:
            seen.setdefault(cluster.members, cluster)
    ranked = sorted(seen.values(), key=lambda c: -c.score(boundary_factor))
    return ranked[:top]
