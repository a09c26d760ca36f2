"""Neighborhood-size estimation with Flajolet-Martin sketches.

Neighborhood estimation answers "how many vertices are reachable from v within
h hops?" for every vertex -- the LinkedIn-style statistic the paper's
introduction motivates ("total number of professionals reachable within a few
hops").  Computing the exact neighbourhood function is quadratic, so the
standard approach (PEGASUS' HADI, Pregel implementations) keeps a small
Flajolet-Martin (FM) bitstring sketch per vertex and iterates:

* iteration 0: every vertex initialises its sketch with its own id and sends
  it to its neighbours;
* iteration ``i``: every vertex ORs the received sketches into its own; if the
  sketch changed, the vertex forwards it, otherwise it votes to halt.

The number of active vertices decreases over iterations (sparse computation),
making this another variable-runtime workload.  Convergence: the fraction of
vertices whose sketch changed drops below ``tolerance``, or a fixed hop budget
``max_hops`` is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    IterativeAlgorithm,
    require_in_unit_interval,
    require_positive,
)
from repro.bsp.aggregators import Aggregator, sum_aggregator
from repro.bsp.master import GraphInfo
from repro.bsp.vertex import VertexContext
from repro.graph.digraph import DiGraph

#: Aggregator counting vertices whose sketch changed this superstep.
UPDATES_AGGREGATOR = "neighborhood.updated"

#: Correction constant of the Flajolet-Martin estimator.
FM_PHI = 0.77351


@dataclass(frozen=True)
class NeighborhoodConfig:
    """Configuration of a neighborhood-estimation run.

    Attributes
    ----------
    num_sketches:
        Number of independent FM sketches per vertex (averaged to reduce the
        estimator's variance).
    sketch_bits:
        Width of each sketch bitmap.
    max_hops:
        Maximum neighbourhood radius to explore.
    tolerance:
        Convergence threshold on the ratio of vertices whose sketch changed.
    seed:
        Seed of the hash functions (keeps runs deterministic).
    """

    num_sketches: int = 4
    sketch_bits: int = 32
    max_hops: int = 30
    tolerance: float = 0.001
    seed: int = 1234


class NeighborhoodEstimation(IterativeAlgorithm):
    """Per-vertex reachable-set size estimation via FM sketches."""

    name = "neighborhood-estimation"
    prefix = "NH"
    convergence_attribute = "tolerance"
    convergence_tuned_to_input_size = False
    requires_undirected = False

    def default_config(self) -> NeighborhoodConfig:
        return NeighborhoodConfig()

    def validate_config(self, config: NeighborhoodConfig) -> None:
        require_positive("num_sketches", config.num_sketches)
        require_positive("sketch_bits", config.sketch_bits)
        require_positive("max_hops", config.max_hops)
        require_in_unit_interval("tolerance", config.tolerance)

    # ------------------------------------------------------------ vertex API
    def initial_value(self, vertex, graph: DiGraph, config: NeighborhoodConfig) -> Tuple[int, ...]:
        return tuple(
            1 << self._fm_bit(vertex, sketch, config)
            for sketch in range(config.num_sketches)
        )

    def aggregators(self, config: NeighborhoodConfig) -> List[Aggregator]:
        return [sum_aggregator(UPDATES_AGGREGATOR)]

    def message_size(self, payload: Any) -> int:
        # One bitmap word per sketch.
        return 4 * len(payload)

    def compute(
        self, ctx: VertexContext, messages: List[Tuple[int, ...]], config: NeighborhoodConfig
    ) -> None:
        if ctx.superstep == 0:
            ctx.aggregate(UPDATES_AGGREGATOR, 1.0)
            ctx.send_message_to_all_neighbors(ctx.value)
            return
        if ctx.superstep >= config.max_hops:
            ctx.vote_to_halt()
            return
        current = ctx.value
        merged = list(current)
        for sketches in messages:
            for index, bitmap in enumerate(sketches):
                merged[index] |= bitmap
        merged_tuple = tuple(merged)
        if merged_tuple != current:
            ctx.value = merged_tuple
            ctx.aggregate(UPDATES_AGGREGATOR, 1.0)
            ctx.send_message_to_all_neighbors(merged_tuple)
        else:
            ctx.vote_to_halt()

    # ------------------------------------------------------- vectorized batch
    batch_payload = "rows"
    batch_row_reducer = "bitwise_or"

    def compute_batch(self, batch, config: NeighborhoodConfig) -> None:
        """Array-pass equivalent of :meth:`compute` (one call per worker block).

        Sketches are fixed-width integer rows, so the ragged plane's
        ``"rows"`` kind applies: incoming sketches are OR-reduced per
        destination at send time, and merging is a single ``|`` over the
        active rows.  OR is exact and order-insensitive on integers, so
        values and counters are bit-identical to the per-vertex path.
        """
        indices = batch.indices
        width = batch.values.shape[1]
        if batch.superstep == 0:
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(len(indices)))
            batch.send_rows_to_all_neighbors(
                indices,
                batch.values[indices],
                np.full(len(indices), 4 * width, dtype=np.int64),
            )
            return
        if batch.superstep >= config.max_hops:
            batch.vote_to_halt()
            return
        current = batch.values[indices]
        merged = current | batch.incoming[indices]
        changed = np.any(merged != current, axis=1)
        if changed.any():
            updated = indices[changed]
            batch.values[updated] = merged[changed]
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(int(changed.sum())))
            batch.send_rows_to_all_neighbors(
                updated,
                merged[changed],
                np.full(len(updated), 4 * width, dtype=np.int64),
            )
        batch.vote_to_halt(~changed)

    # ------------------------------------------------------------ convergence
    def check_convergence(
        self,
        aggregates: Dict[str, float],
        superstep: int,
        graph_info: GraphInfo,
        config: NeighborhoodConfig,
    ) -> Tuple[bool, Optional[float]]:
        if superstep == 0:
            return False, None
        updated = aggregates.get(UPDATES_AGGREGATOR, 0.0)
        ratio = updated / graph_info.num_vertices
        return ratio < config.tolerance, ratio

    # -------------------------------------------------------------- internals
    @staticmethod
    def _fm_bit(vertex: Any, sketch: int, config: NeighborhoodConfig) -> int:
        """Position of the least-significant set bit for ``vertex`` in ``sketch``.

        The geometric distribution of FM sketch bit positions is obtained by
        counting trailing zeros of a deterministic hash of (vertex, sketch).
        """
        value = hash((vertex, sketch, config.seed)) & 0xFFFFFFFF
        if value == 0:
            return config.sketch_bits - 1
        position = 0
        while value & 1 == 0 and position < config.sketch_bits - 1:
            value >>= 1
            position += 1
        return position


def estimate_neighborhood_sizes(vertex_values: Dict, config: NeighborhoodConfig) -> Dict[Any, float]:
    """Convert final FM sketches into per-vertex reachable-set size estimates."""
    estimates: Dict[Any, float] = {}
    for vertex, sketches in vertex_values.items():
        positions = []
        for bitmap in sketches:
            position = 0
            while position < config.sketch_bits and (bitmap >> position) & 1:
                position += 1
            positions.append(position)
        mean_position = sum(positions) / len(positions)
        estimates[vertex] = (2.0**mean_position) / FM_PHI
    return estimates
