"""Connected components by minimum-label propagation (HCC / hash-min).

Every vertex starts with its own id as label, propagates the smallest label it
has seen to its neighbours and votes to halt; a vertex is re-activated only
when it receives a smaller label.  The algorithm reaches a fixed point when no
labels change, i.e. when every vertex has the minimum id of its (weakly)
connected component.

This is the paper's example of *sparse computation*: "propagating the smallest
vertex identifier in a graph structure using only point to point messages
among neighboring elements" -- the number of active vertices and messages
drops sharply across iterations, which is why per-iteration worst-case bounds
are useless for such algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import IterativeAlgorithm, require_positive
from repro.bsp.aggregators import Aggregator, sum_aggregator
from repro.bsp.master import GraphInfo
from repro.bsp.vertex import VertexContext
from repro.graph.digraph import DiGraph

#: Aggregator counting label updates per superstep (progress metric).
UPDATES_AGGREGATOR = "cc.updates"


@dataclass(frozen=True)
class ConnectedComponentsConfig:
    """Configuration of a connected-components run."""

    max_iterations: int = 200


class ConnectedComponents(IterativeAlgorithm):
    """Weakly connected components via min-id propagation."""

    name = "connected-components"
    prefix = "CC"
    convergence_attribute = None
    convergence_tuned_to_input_size = False
    requires_undirected = True

    MESSAGE_SIZE_BYTES = 8

    def default_config(self) -> ConnectedComponentsConfig:
        return ConnectedComponentsConfig()

    def validate_config(self, config: ConnectedComponentsConfig) -> None:
        require_positive("max_iterations", config.max_iterations)

    def initial_value(self, vertex, graph: DiGraph, config) -> Any:
        return vertex

    def aggregators(self, config) -> List[Aggregator]:
        return [sum_aggregator(UPDATES_AGGREGATOR)]

    def message_size(self, payload: Any) -> int:
        return self.MESSAGE_SIZE_BYTES

    def compute(self, ctx: VertexContext, messages: List[Any], config) -> None:
        if ctx.superstep == 0:
            ctx.aggregate(UPDATES_AGGREGATOR, 1.0)
            ctx.send_message_to_all_neighbors(ctx.value)
            ctx.vote_to_halt()
            return
        smallest = min(messages) if messages else ctx.value
        if smallest < ctx.value:
            ctx.value = smallest
            ctx.aggregate(UPDATES_AGGREGATOR, 1.0)
            ctx.send_message_to_all_neighbors(smallest)
        ctx.vote_to_halt()

    # ------------------------------------------------------- vectorized batch
    batch_message_reducer = "min"
    batch_message_size = MESSAGE_SIZE_BYTES

    def compute_batch(self, batch, config) -> None:
        """Array-pass equivalent of :meth:`compute` (one call per worker block).

        Labels must vectorize (integer vertex ids); otherwise the engine
        falls back to the scalar path automatically.  Min-reduction is
        order-insensitive and exact on integers, so values and counters are
        identical to the per-vertex path.
        """
        indices = batch.indices
        if batch.superstep == 0:
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(len(indices)))
            batch.send_to_all_neighbors(batch.values[indices])
            batch.vote_to_halt()
            return
        current = batch.values[indices]
        smallest = batch.incoming[indices]
        improved = (batch.message_counts[indices] > 0) & (smallest < current)
        if improved.any():
            new_labels = np.where(improved, smallest, current)
            batch.values[indices] = new_labels
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(int(improved.sum())))
            batch.send_to_all_neighbors(new_labels, improved)
        batch.vote_to_halt()

    def check_convergence(
        self,
        aggregates: Dict[str, float],
        superstep: int,
        graph_info: GraphInfo,
        config,
    ) -> Tuple[bool, Optional[float]]:
        updates = aggregates.get(UPDATES_AGGREGATOR, 0.0)
        # Convergence is the fixed point: no updates -> all vertices halt and
        # the engine's native termination fires.  We still expose the update
        # count as the convergence metric.
        return False, updates


def extract_components(vertex_values: Dict) -> Dict[Any, List[Any]]:
    """Group vertices by their component label.

    Returns a map ``component_label -> list of member vertices``.
    """
    components: Dict[Any, List[Any]] = {}
    for vertex, label in vertex_values.items():
        components.setdefault(label, []).append(vertex)
    return components
