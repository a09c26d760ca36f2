"""The batch planes' block step: one ``compute_batch`` call per worker block.

Every batch-plane superstep hands the algorithm the active vertices of a
whole *block* of workers at once -- every worker inline, each process's own
worker block on the process backend -- and splits each send's Table 1
counters back per worker at the worker boundaries
(:meth:`repro.bsp.ragged.BatchPlane.compute_block`).  These differential
tests pin the block path against the per-vertex scalar path on the shapes
where that split is easiest to get wrong: empty workers, partly halted
(scattered) active sets, a single worker, the legacy gather layout and the
2-process backend.  They also pin how often ``compute_batch`` runs and that
semi-clustering's extension chunk size cannot change a result.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_differential_engine import (
    ALGORITHM_NAMES,
    algorithm_settings,
    assert_profiles_identical,
    run_both_paths,
)

from repro.algorithms import semi_clustering
from repro.algorithms.pagerank import PageRank, PageRankConfig
from repro.algorithms.registry import algorithm_by_name
from repro.algorithms.semi_clustering import SemiClustering, SemiClusteringConfig
from repro.bsp.aggregators import sum_aggregator
from repro.bsp.engine import BSPEngine, EngineConfig
from repro.bsp.kernels import get_kernels
from repro.cluster.cost_profile import CostProfile
from repro.cluster.spec import ClusterSpec
from repro.graph import generators
from repro.graph.partition import BasePartitioner

NUM_WORKERS = 5
PROCESSES = 2
CALLS_AGGREGATOR = "test.compute_batch_calls"


class SparsePartitioner(BasePartitioner):
    """Round-robin over workers 1 and 3 only: workers 0, 2 and 4 own nothing.

    Covers an empty first, interior and last worker at once, so every
    worker boundary cut of a send has empty slices on both sides.
    """

    def _assign(self, ids, num_workers):
        return np.where(np.arange(len(ids)) % 2 == 0, 1, 3).astype(np.int64)


class CountingPageRank(PageRank):
    """PageRank whose every ``compute_batch`` call adds 1 to an aggregator.

    The aggregate of a superstep is then the number of ``compute_batch``
    calls made in it, on any backend (aggregator contributions from worker
    processes are folded by the master).
    """

    def aggregators(self, config):
        return super().aggregators(config) + [sum_aggregator(CALLS_AGGREGATOR)]

    def compute_batch(self, batch, config):
        batch.aggregate(CALLS_AGGREGATOR, np.ones(1))
        super().compute_batch(batch, config)


@pytest.fixture(scope="module")
def engine():
    engine = BSPEngine(
        cluster=ClusterSpec(num_nodes=1, workers_per_node=NUM_WORKERS),
        cost_profile=CostProfile(noise_std=0.0, congestion_factor=0.0),
    )
    yield engine
    engine.close_pools()


@pytest.fixture(scope="module")
def graph():
    """A scale-free graph plus isolated vertices spread over every worker.

    The isolated vertices receive nothing, so even semi-clustering -- which
    runs on the undirected graph -- halts part of each worker's partition.
    """
    graph = generators.preferential_attachment(150, out_degree=4, seed=3)
    for vertex in range(1000, 1020):
        graph.add_vertex(vertex)
    return graph


def run_block_vs_scalar(engine, graph, algorithm_name, **overrides):
    """Scalar path on the DiGraph vs. the block path on the frozen graph."""
    config, max_supersteps = algorithm_settings(algorithm_name)

    def engine_config(vectorized):
        kwargs = dict(
            num_workers=NUM_WORKERS, max_supersteps=max_supersteps, runtime_seed=7,
            collect_vertex_values=True, vectorized=vectorized,
        )
        kwargs.update(overrides)
        if not vectorized:
            kwargs.pop("backend", None)
            kwargs.pop("processes", None)
        return EngineConfig(**kwargs)

    algorithm = algorithm_by_name(algorithm_name)
    scalar = engine.run(graph, algorithm, config, engine_config(False))
    block = engine.run(graph.freeze(), algorithm, config, engine_config(True))
    return scalar, block


def has_scattered_superstep(result) -> bool:
    """True when some worker ran a superstep with part of its vertices halted."""
    return any(
        0 < counters.active_vertices < counters.total_vertices
        for profile in result.iterations
        for counters in profile.worker_counters
    )


# ------------------------------------------------------------- differentials
@pytest.mark.parametrize("algorithm_name", ALGORITHM_NAMES)
def test_block_equals_scalar_with_empty_workers(engine, graph, algorithm_name):
    scalar, block = run_block_vs_scalar(
        engine, graph, algorithm_name, partitioner=SparsePartitioner()
    )
    assert_profiles_identical(scalar, block)
    first = block.iterations[0].worker_counters
    assert [c.total_vertices for c in first][::2] == [0, 0, 0]


@pytest.mark.parametrize(
    "algorithm_name",
    ["connected-components", "semi-clustering", "topk-ranking", "neighborhood-estimation"],
)
def test_block_equals_scalar_on_scattered_active_sets(engine, graph, algorithm_name):
    scalar, block = run_block_vs_scalar(engine, graph, algorithm_name)
    assert_profiles_identical(scalar, block)
    assert has_scattered_superstep(block)


@pytest.mark.parametrize("algorithm_name", ALGORITHM_NAMES)
def test_block_equals_scalar_with_one_worker(engine, graph, algorithm_name):
    scalar, block = run_block_vs_scalar(engine, graph, algorithm_name, num_workers=1)
    assert_profiles_identical(scalar, block)


@pytest.mark.parametrize("algorithm_name", ALGORITHM_NAMES)
def test_block_equals_scalar_on_gather_layout(engine, graph, algorithm_name):
    scalar, block = run_block_vs_scalar(
        engine, graph, algorithm_name, partition_native=False
    )
    assert_profiles_identical(scalar, block)


@pytest.mark.parametrize("algorithm_name", ALGORITHM_NAMES)
def test_block_equals_scalar_on_process_backend(engine, graph, algorithm_name):
    scalar, block = run_block_vs_scalar(
        engine, graph, algorithm_name, backend="process", processes=PROCESSES
    )
    assert_profiles_identical(scalar, block)


def test_block_equals_scalar_on_process_backend_with_empty_workers(engine, graph):
    scalar, block = run_block_vs_scalar(
        engine, graph, "semi-clustering", partitioner=SparsePartitioner(),
        backend="process", processes=PROCESSES,
    )
    assert_profiles_identical(scalar, block)


# ---------------------------------------------------------------- call count
@pytest.mark.parametrize(
    "backend,calls_per_superstep", [("inline", 1), ("process", PROCESSES)]
)
def test_compute_batch_runs_once_per_block_per_superstep(
    engine, graph, backend, calls_per_superstep
):
    result = engine.run(
        graph.freeze(), CountingPageRank(), PageRankConfig(tolerance=1e-5),
        EngineConfig(
            num_workers=NUM_WORKERS, max_supersteps=12, runtime_seed=7,
            backend=backend, processes=PROCESSES,
        ),
    )
    calls = [profile.aggregates[CALLS_AGGREGATOR] for profile in result.iterations]
    assert calls == [float(calls_per_superstep)] * len(result.iterations)


# ---------------------------------------------------------------- chunk size
@pytest.fixture(scope="module")
def community_graph_sc():
    return generators.two_level_hierarchy(
        num_communities=6, community_size=20, intra_probability=0.35, seed=5
    )


def test_extension_chunk_size_cannot_change_results(
    engine, community_graph_sc, monkeypatch
):
    config = SemiClusteringConfig(c_max=2, s_max=3, v_max=6, tolerance=0.001)
    kernels = get_kernels()
    fold = kernels.masked_segment_left_fold
    fold_calls = []

    def counting_fold(*args):
        fold_calls.append(1)
        return fold(*args)

    monkeypatch.setattr(kernels, "masked_segment_left_fold", counting_fold)
    results = {}
    calls = {}
    for chunk in (1, 2**40):
        monkeypatch.setattr(semi_clustering, "EXTENSION_CHUNK_RECORDS", chunk)
        fold_calls.clear()
        results[chunk] = run_both_paths(
            engine, community_graph_sc, SemiClustering, config,
            max_supersteps=20, num_workers=NUM_WORKERS,
        )
        calls[chunk] = len(fold_calls)
    scalar, unchunked = results[2**40]
    assert_profiles_identical(scalar, unchunked)
    assert_profiles_identical(scalar, results[1][1])
    # Chunks of one record really did split the extension stream.
    assert calls[1] > 10 * calls[2**40]
