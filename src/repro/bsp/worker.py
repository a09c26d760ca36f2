"""BSP worker: executes the compute function for its partition of vertices.

Each worker owns a set of vertices (decided by the partitioner), a reusable
:class:`VertexContext` and a fresh :class:`WorkerCounters` per superstep.  The
worker does not talk to other workers directly -- all message routing goes
through the engine, which knows the vertex-to-worker assignment and therefore
whether a message is local or remote.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List

from repro.bsp.counters import WorkerCounters
from repro.bsp.vertex import VertexContext

VertexId = Hashable


class Worker:
    """One BSP worker task (a Giraph mapper slot)."""

    def __init__(self, worker_id: int, vertices: List[VertexId], engine) -> None:
        self.worker_id = worker_id
        self.vertices = vertices
        self._engine = engine
        self._context = VertexContext(engine, self)
        self.counters: WorkerCounters | None = None

    def begin_superstep(self, superstep: int) -> WorkerCounters:
        """Reset the per-superstep counters and return them."""
        self.counters = WorkerCounters(
            worker_id=self.worker_id,
            superstep=superstep,
            total_vertices=len(self.vertices),
        )
        return self.counters

    def execute_superstep(
        self,
        superstep: int,
        incoming: Dict[VertexId, List[Any]],
        halted: set,
        compute,
    ) -> None:
        """Run ``compute`` for every active vertex owned by this worker.

        A vertex is active when it has not voted to halt or when it has
        incoming messages (which re-activate it, per the Pregel model).
        ``compute`` is called as ``compute(context, messages)``.
        """
        context = self._context
        context.superstep = superstep
        counters = self.counters
        for vertex in self.vertices:
            messages = incoming.get(vertex)
            if vertex in halted:
                if not messages:
                    continue
                # Incoming messages re-activate a halted vertex.
                halted.discard(vertex)
            counters.active_vertices += 1
            context._bind(vertex, superstep)
            compute(context, messages or [])
