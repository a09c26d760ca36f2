"""PageRank on the BSP engine.

PageRank is the paper's representative of algorithms with *constant*
per-iteration runtime: every vertex is active in every superstep and sends one
message per outgoing edge, so the key input features barely change across
iterations.

The implementation follows equation (1) of the paper:

``PR(p_i) = (1 - d) / N + d * sum_{p_j in M(p_i)} PR(p_j) / L(p_j)``

with the rank of every vertex initialised to ``1/N``.  Convergence uses the
paper's criterion: the *average delta change* of PageRank per vertex
(``1/N * sum_i |PR_i(it) - PR_i(it-1)|``) must fall below a user threshold
``tau``.  The evaluation sets ``tau = epsilon / N`` where ``epsilon`` is a
tolerance level (0.1, 0.01 or 0.001); since that threshold is tuned to the
dataset size, PREDIcT's default transform scales it by ``1/sampling_ratio``
for the sample run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import IterativeAlgorithm, require_in_unit_interval, require_positive
from repro.bsp.aggregators import Aggregator, sum_aggregator
from repro.bsp.master import GraphInfo
from repro.bsp.messages import Combiner, SumCombiner
from repro.bsp.vertex import VertexContext
from repro.exceptions import ConfigurationError
from repro.graph.digraph import DiGraph

#: Aggregator collecting the total |delta PR| across vertices each superstep.
DELTA_AGGREGATOR = "pagerank.delta_sum"


@dataclass(frozen=True)
class PageRankConfig:
    """Configuration of a PageRank run.

    Attributes
    ----------
    damping:
        The damping factor ``d`` (0.85 in the paper and in the original
        PageRank formulation).
    tolerance:
        Convergence threshold ``tau`` on the average per-vertex delta change.
        The paper sets ``tau = epsilon / N`` for a tolerance level ``epsilon``.
    max_iterations:
        Safety budget on supersteps.
    """

    damping: float = 0.85
    tolerance: float = 1e-6
    max_iterations: int = 100

    @staticmethod
    def for_tolerance_level(epsilon: float, num_vertices: int,
                            damping: float = 0.85) -> "PageRankConfig":
        """Build the paper's configuration ``tau = epsilon / N``."""
        require_positive("epsilon", epsilon)
        require_positive("num_vertices", num_vertices)
        return PageRankConfig(damping=damping, tolerance=epsilon / num_vertices)


class PageRank(IterativeAlgorithm):
    """Vertex-centric PageRank with average-delta convergence."""

    name = "pagerank"
    prefix = "PR"
    convergence_attribute = "tolerance"
    convergence_tuned_to_input_size = True
    requires_undirected = False

    MESSAGE_SIZE_BYTES = 8

    def default_config(self) -> PageRankConfig:
        return PageRankConfig()

    def validate_config(self, config: PageRankConfig) -> None:
        require_in_unit_interval("damping", config.damping)
        require_positive("tolerance", config.tolerance)
        require_positive("max_iterations", config.max_iterations)

    # ------------------------------------------------------------ vertex API
    def initial_value(self, vertex, graph: DiGraph, config: PageRankConfig) -> float:
        return 1.0 / graph.num_vertices

    def aggregators(self, config: PageRankConfig) -> List[Aggregator]:
        return [sum_aggregator(DELTA_AGGREGATOR)]

    def combiner(self, config: PageRankConfig) -> Optional[Combiner]:
        return SumCombiner()

    def message_size(self, payload: Any) -> int:
        return self.MESSAGE_SIZE_BYTES

    def compute(self, ctx: VertexContext, messages: List[float], config: PageRankConfig) -> None:
        if ctx.superstep == 0:
            # First superstep: ranks are already initialised to 1/N; just
            # propagate the initial contribution along outgoing edges.
            rank = ctx.value
        else:
            incoming = sum(messages)
            new_rank = (1.0 - config.damping) / ctx.num_vertices + config.damping * incoming
            delta = abs(new_rank - ctx.value)
            ctx.aggregate(DELTA_AGGREGATOR, delta)
            ctx.value = new_rank
            rank = new_rank
        out_degree = ctx.out_degree()
        if out_degree > 0:
            contribution = rank / out_degree
            ctx.send_message_to_all_neighbors(contribution)

    # ------------------------------------------------------- vectorized batch
    batch_message_reducer = "sum"
    batch_message_size = MESSAGE_SIZE_BYTES

    def compute_batch(self, batch, config: PageRankConfig) -> None:
        """Array-pass equivalent of :meth:`compute` (one call per worker block).

        Mirrors the scalar arithmetic operation-for-operation -- same
        expression structure, same float64 types -- so vertex values, deltas
        and the convergence metric are bit-identical to the per-vertex path.
        """
        indices = batch.indices
        if batch.superstep == 0:
            ranks = batch.values[indices]
        else:
            incoming = batch.incoming[indices]
            new_ranks = (1.0 - config.damping) / batch.num_vertices + config.damping * incoming
            batch.aggregate(DELTA_AGGREGATOR, np.abs(new_ranks - batch.values[indices]))
            batch.values[indices] = new_ranks
            ranks = new_ranks
        degrees = batch.out_degrees[indices]
        senders = degrees > 0
        contributions = np.divide(
            ranks, degrees, out=np.zeros_like(ranks), where=senders
        )
        batch.send_to_all_neighbors(contributions, senders)

    # ------------------------------------------------------------ convergence
    def check_convergence(
        self,
        aggregates: Dict[str, float],
        superstep: int,
        graph_info: GraphInfo,
        config: PageRankConfig,
    ) -> Tuple[bool, Optional[float]]:
        if superstep == 0:
            # No rank update happened yet; the delta aggregate is meaningless.
            return False, None
        average_delta = aggregates.get(DELTA_AGGREGATOR, 0.0) / graph_info.num_vertices
        return average_delta < config.tolerance, average_delta


def extract_ranks(vertex_values: Dict) -> Dict:
    """Return the PageRank output as a plain ``vertex -> rank`` dictionary.

    Provided for symmetry with the other algorithms' output helpers and used
    when piping PageRank output into top-k ranking.
    """
    if vertex_values is None:
        raise ConfigurationError(
            "run PageRank with collect_vertex_values=True to extract ranks"
        )
    return dict(vertex_values)
