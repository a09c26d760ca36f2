"""Top-k ranking over PageRank output.

Top-k ranking (as used in Mizan / the paper's §4.3) finds, for every vertex,
the ``k`` highest PageRank values reachable from it.  It runs on the *output*
of PageRank:

* iteration 0: every vertex initialises its list with its own rank and sends
  the rank to its direct neighbours;
* iteration ``i``: every vertex merges the rank lists received from its
  neighbours into its local top-k list; only vertices whose list *changed*
  send their updated list onwards and stay active.

Because the number of vertices performing updates (and therefore the number
and size of messages) shrinks -- non-monotonically -- across iterations, the
per-iteration runtime varies widely; this is the paper's category ii.b.

Convergence: the fraction of vertices that performed an update during the
iteration drops below ``tau`` (``activeVertices / totalVertices < tau``).
That threshold is a *ratio*, not tuned to the dataset size, so PREDIcT's
default transform keeps it unchanged for the sample run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    IterativeAlgorithm,
    require_in_unit_interval,
    require_positive,
)
from repro.bsp.aggregators import Aggregator, sum_aggregator
from repro.bsp.master import GraphInfo
from repro.bsp.ragged import Ragged, ragged_rows_equal
from repro.bsp.vertex import VertexContext
from repro.graph.csr import concat_ranges
from repro.exceptions import ConfigurationError
from repro.graph.digraph import DiGraph

#: Aggregator counting vertices that updated their top-k list this superstep.
UPDATES_AGGREGATOR = "topk.updated_vertices"


@dataclass(frozen=True)
class TopKRankingConfig:
    """Configuration of a top-k ranking run.

    Attributes
    ----------
    k:
        Number of top ranks each vertex tracks (``topK`` in the paper).
    tolerance:
        Convergence threshold on the ratio of vertices performing updates.
    ranks:
        Per-vertex input rank values (PageRank output).  When None, every
        vertex's out-degree is used as a deterministic fallback so the
        algorithm remains runnable stand-alone (tests, examples).
    max_iterations:
        Safety budget on supersteps.
    """

    k: int = 5
    tolerance: float = 0.001
    ranks: Optional[Dict[Any, float]] = field(default=None, compare=False)
    max_iterations: int = 100


class TopKRanking(IterativeAlgorithm):
    """Propagate the k highest reachable PageRank values to every vertex."""

    name = "topk-ranking"
    prefix = "TOP-K"
    convergence_attribute = "tolerance"
    convergence_tuned_to_input_size = False
    requires_undirected = False

    def default_config(self) -> TopKRankingConfig:
        return TopKRankingConfig()

    def validate_config(self, config: TopKRankingConfig) -> None:
        require_positive("k", config.k)
        require_in_unit_interval("tolerance", config.tolerance)
        require_positive("max_iterations", config.max_iterations)

    # ------------------------------------------------------------ vertex API
    def initial_value(self, vertex, graph: DiGraph, config: TopKRankingConfig) -> Tuple[float, ...]:
        rank = self._rank_of(vertex, graph, config)
        return (rank,)

    def aggregators(self, config: TopKRankingConfig) -> List[Aggregator]:
        return [sum_aggregator(UPDATES_AGGREGATOR)]

    def message_size(self, payload: Any) -> int:
        # A list of doubles plus a small framing overhead.
        return 4 + 8 * len(payload)

    def compute(
        self, ctx: VertexContext, messages: List[Tuple[float, ...]], config: TopKRankingConfig
    ) -> None:
        if ctx.superstep == 0:
            ctx.aggregate(UPDATES_AGGREGATOR, 1.0)
            ctx.send_message_to_all_neighbors(ctx.value)
            return

        current = ctx.value
        merged = set(current)
        for rank_list in messages:
            merged.update(rank_list)
        best = tuple(sorted(merged, reverse=True)[: config.k])
        if best != current:
            ctx.value = best
            ctx.aggregate(UPDATES_AGGREGATOR, 1.0)
            ctx.send_message_to_all_neighbors(best)
        else:
            # A vertex whose list did not change sends nothing and goes to
            # sleep; incoming rank lists will re-activate it.
            ctx.vote_to_halt()

    # ------------------------------------------------------- vectorized batch
    batch_payload = "ragged"

    def compute_batch(self, batch, config: TopKRankingConfig) -> None:
        """Array-pass equivalent of :meth:`compute` (one call per worker block).

        Rank lists are variable-length float rows on the ragged plane.  The
        scalar ``sorted(set(current) | received, reverse=True)[:k]`` is a
        segment-wise sort/unique/top-k kernel -- value comparisons only, no
        arithmetic -- so merged lists, counters and the convergence history
        are bit-identical to the per-vertex path.
        """
        indices = batch.indices
        if batch.superstep == 0:
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(len(indices)))
            rows = batch.values.take(indices)
            batch.send_ragged_to_all_neighbors(indices, rows, 4 + 8 * rows.lengths)
            return

        current = batch.values.take(indices)
        in_data, in_indptr = batch.incoming_elements()
        received = in_indptr[indices + 1] - in_indptr[indices]
        # Candidate segments: each vertex's current list followed by every
        # delivered rank-list element (set semantics make the order moot).
        seg_lengths = current.lengths + received
        seg_starts = np.cumsum(seg_lengths) - seg_lengths
        candidates = np.empty(int(seg_lengths.sum()), dtype=np.float64)
        candidates[concat_ranges(seg_starts, current.lengths)] = current.data
        candidates[concat_ranges(seg_starts + current.lengths, received)] = in_data[
            concat_ranges(in_indptr[:-1][indices], received)
        ]
        seg_ids = np.repeat(np.arange(len(indices), dtype=np.int64), seg_lengths)
        best = Ragged.from_lengths(
            *batch.kernels.segment_unique_topk_desc(
                candidates, seg_ids, len(indices), config.k
            )
        )

        changed = ~ragged_rows_equal(best, current)
        if changed.any():
            positions = np.nonzero(changed)[0]
            updated = indices[positions]
            best_rows = best.take(positions)
            batch.set_rows(updated, best_rows)
            batch.aggregate(UPDATES_AGGREGATOR, np.ones(len(updated)))
            batch.send_ragged_to_all_neighbors(
                updated, best_rows, 4 + 8 * best_rows.lengths
            )
        batch.vote_to_halt(~changed)

    # ------------------------------------------------------------ convergence
    def check_convergence(
        self,
        aggregates: Dict[str, float],
        superstep: int,
        graph_info: GraphInfo,
        config: TopKRankingConfig,
    ) -> Tuple[bool, Optional[float]]:
        if superstep == 0:
            return False, None
        updated = aggregates.get(UPDATES_AGGREGATOR, 0.0)
        ratio = updated / graph_info.num_vertices
        return ratio < config.tolerance, ratio

    # -------------------------------------------------------------- internals
    @staticmethod
    def _rank_of(vertex, graph: DiGraph, config: TopKRankingConfig) -> float:
        if config.ranks is not None:
            if vertex not in config.ranks:
                raise ConfigurationError(
                    f"no input rank provided for vertex {vertex!r}"
                )
            return float(config.ranks[vertex])
        # Deterministic stand-alone fallback: normalised out-degree.
        return (graph.out_degree(vertex) + 1.0) / (graph.num_edges + graph.num_vertices)


def config_with_ranks(config: TopKRankingConfig, ranks: Dict[Any, float]) -> TopKRankingConfig:
    """Return a copy of ``config`` carrying the PageRank output ``ranks``."""
    return TopKRankingConfig(
        k=config.k,
        tolerance=config.tolerance,
        ranks=dict(ranks),
        max_iterations=config.max_iterations,
    )
