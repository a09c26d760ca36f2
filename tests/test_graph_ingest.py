"""Out-of-core ingestion: chunked parser, on-disk CSR cache, memmap loading.

The ingester (:mod:`repro.graph.ingest`) promises to build *the same graph*
as the in-memory reader (:func:`repro.graph.io.read_edge_list`) while never
materialising the edge list in RAM.  "Same graph" is semantic, not bitwise:
``read_edge_list`` assigns CSR indices by first appearance while the ingester
uses the dense-id contract (index == id), so equivalence is checked on the
per-vertex adjacency (target ids and weights, in file order) rather than on
raw arrays.  The satellite regressions for the dataset LRU cache and the
repartition-cache weakref live here too, next to the memmap machinery they
protect.
"""

from __future__ import annotations

import gc
import gzip
import json
import weakref

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, GraphError, GraphFormatError
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.graph.ingest import (
    cache_digest,
    ingest_edge_list,
    ingest_or_load,
    load_csr_cache,
    save_csr_cache,
)
from repro.graph.io import read_edge_list
from repro.graph.partition import ContiguousPartitioner, HashPartitioner


# ------------------------------------------------------------------ helpers
def adjacency(graph):
    """``id -> [(target_id, weight), ...]`` in stored (file) order."""
    ids = list(graph.ids)
    indptr = np.asarray(graph.indptr)
    targets = np.asarray(graph.targets)
    weights = np.asarray(graph.weights)
    return {
        source: [
            (ids[int(t)], float(w))
            for t, w in zip(
                targets[indptr[i]:indptr[i + 1]], weights[indptr[i]:indptr[i + 1]]
            )
        ]
        for i, source in enumerate(ids)
    }


def make_corpus(seed, num_vertices=60, num_lines=500, weighted=False):
    """A messy seeded edge-list body: comments, blanks, dups, self-loops."""
    rng = np.random.default_rng(seed)
    lines = ["# generated corpus", ""]
    for i in range(num_lines):
        source = int(rng.integers(num_vertices))
        target = int(rng.integers(num_vertices))
        if weighted:
            lines.append(f"{source} {target} {float(rng.uniform(0.1, 9.0)):.4f}")
        else:
            lines.append(f"{source} {target}")
        if i % 97 == 0:
            lines.append("")
        if i % 131 == 0:
            lines.append("# interior comment")
    lines.append(f"{num_vertices - 1} {num_vertices - 1}")  # self-loop
    return "\n".join(lines) + "\n"


def assert_equivalent(cache_path, reference):
    ingested = load_csr_cache(cache_path)
    ref = reference.freeze()
    assert ingested.num_edges == ref.num_edges
    ingested_adj = adjacency(ingested)
    for vertex, edges in adjacency(ref).items():
        assert ingested_adj[vertex] == edges
    return ingested


# ------------------------------------------------------- ingester equivalence
class TestIngesterEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_read_edge_list(self, tmp_path, seed, weighted):
        path = tmp_path / "corpus.txt"
        path.write_text(make_corpus(seed, weighted=weighted))
        cache = ingest_edge_list(path, tmp_path / "cache")
        assert_equivalent(cache, read_edge_list(path))

    @pytest.mark.parametrize("options", [
        dict(deduplicate=True),
        dict(allow_self_loops=True),
        dict(deduplicate=True, allow_self_loops=True),
    ])
    def test_option_combinations(self, tmp_path, options):
        path = tmp_path / "corpus.txt"
        path.write_text(make_corpus(3, weighted=True))
        cache = ingest_edge_list(path, tmp_path / "cache", **options)
        assert_equivalent(cache, read_edge_list(path, **options))

    def test_tiny_chunks_force_carry_handling(self, tmp_path):
        """A chunk size smaller than one line exercises the carry buffer."""
        path = tmp_path / "corpus.txt"
        path.write_text(make_corpus(4))
        cache = ingest_edge_list(path, tmp_path / "cache", chunk_bytes=16)
        assert_equivalent(cache, read_edge_list(path))

    def test_tiny_buckets_force_external_sort(self, tmp_path):
        """A bucket budget far below the spill size exercises pass B."""
        path = tmp_path / "corpus.txt"
        path.write_text(make_corpus(5, num_lines=2000))
        cache = ingest_edge_list(
            path, tmp_path / "cache", deduplicate=True, bucket_bytes=1024
        )
        assert_equivalent(cache, read_edge_list(path, deduplicate=True))

    def test_gzip_input(self, tmp_path):
        body = make_corpus(6, weighted=True).encode()
        plain = tmp_path / "corpus.txt"
        plain.write_bytes(body)
        zipped = tmp_path / "corpus.txt.gz"
        with gzip.open(zipped, "wb") as handle:
            handle.write(body)
        cache = ingest_edge_list(zipped, tmp_path / "cache")
        assert_equivalent(cache, read_edge_list(plain))

    def test_custom_comment_char(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("; comment\n# graph: x\n0 1\n1 2\n")
        cache = ingest_edge_list(path, tmp_path / "cache", comment=";")
        graph = load_csr_cache(cache)
        assert graph.num_edges == 2

    def test_dense_id_contract(self, tmp_path):
        """Vertices never mentioned still exist: index == id, 0..max_id."""
        path = tmp_path / "sparse.txt"
        path.write_text("0 9\n")
        graph = load_csr_cache(ingest_edge_list(path, tmp_path / "cache"))
        assert graph.num_vertices == 10
        assert list(graph.ids) == list(range(10))
        assert isinstance(graph.ids, range)


# --------------------------------------------------------------- cache layer
class TestCsrCache:
    def test_digest_is_stable_and_option_sensitive(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        assert cache_digest(path) == cache_digest(path)
        assert cache_digest(path) != cache_digest(path, deduplicate=True)
        assert cache_digest(path) != cache_digest(path, comment=";")

    def test_second_ingest_is_a_cache_hit(self, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        path.write_text(make_corpus(7))
        first = ingest_edge_list(path, tmp_path / "cache")
        # A hit never re-parses: poison the parser to prove it is not called.
        from repro.graph import ingest as ingest_module

        def exploding_ingest(*args, **kwargs):  # pragma: no cover
            raise AssertionError("cache hit must not re-ingest")

        monkeypatch.setattr(ingest_module, "_ingest_into", exploding_ingest)
        assert ingest_edge_list(path, tmp_path / "cache") == first

    def test_force_reingests(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        cache = ingest_edge_list(path, tmp_path / "cache")
        marker = cache / "marker"
        marker.touch()
        ingest_edge_list(path, tmp_path / "cache", force=True)
        assert not marker.exists()

    def test_save_load_roundtrip_is_bit_identical(self, tmp_path):
        from repro.graph import generators

        frozen = generators.preferential_attachment(90, out_degree=4, seed=11).freeze()
        cache = save_csr_cache(frozen, tmp_path / "pa")
        for mmap_mode in ("r", None):
            loaded = load_csr_cache(cache, mmap_mode=mmap_mode)
            assert loaded.mmap_backed == (mmap_mode is not None)
            assert list(loaded.ids) == list(frozen.ids)
            assert np.array_equal(np.asarray(loaded.indptr), frozen.indptr)
            assert np.array_equal(np.asarray(loaded.targets), frozen.targets)
            assert np.array_equal(np.asarray(loaded.weights), frozen.weights)

    def test_memmap_load_does_not_copy(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(make_corpus(8))
        graph = load_csr_cache(ingest_edge_list(path, tmp_path / "cache"))

        def memmap_backed(array):
            while isinstance(array, np.ndarray):
                if isinstance(array, np.memmap):
                    return True
                if array.base is None:
                    return False
                array = array.base
            return False

        assert memmap_backed(graph.targets)
        assert memmap_backed(graph.indptr)
        assert not graph.targets.flags.owndata

    def test_ingest_or_load_returns_memmap_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n")
        graph = ingest_or_load(path, tmp_path / "cache")
        assert graph.mmap_backed
        assert graph.num_edges == 2

    def test_meta_json_records_stats(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 1\n2 2\n")
        cache = ingest_edge_list(path, tmp_path / "cache", deduplicate=True)
        meta = json.loads((cache / "meta.json").read_text())
        assert meta["num_edges"] == 1
        assert meta["stats"]["duplicates_dropped"] == 1
        assert meta["stats"]["self_loops_dropped"] == 1


# -------------------------------------------------------------- error paths
class TestIngestErrors:
    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n\n# ok\njunk\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:4"):
            ingest_edge_list(path, tmp_path / "cache")

    def test_non_integer_id_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\na b\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:2"):
            ingest_edge_list(path, tmp_path / "cache")

    def test_id_outside_int64_reports_line_number(self, tmp_path):
        """Past int64 the cast overflows; that must still be a typed error."""
        path = tmp_path / "big.txt"
        path.write_text("1 2\n99999999999999999999 3\n")
        with pytest.raises(
            GraphFormatError,
            match=r"big\.txt:2: vertex ids are not integers: '99999999999999999999'",
        ):
            ingest_edge_list(path, tmp_path / "cache")
        assert read_edge_list(path).num_edges == 2  # the reader has no int64 bound

    def test_bad_weight_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 1.5\n1 2 soup\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:2"):
            ingest_edge_list(path, tmp_path / "cache")

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 -1\n")
        with pytest.raises(GraphFormatError):
            ingest_edge_list(path, tmp_path / "cache")

    def test_empty_edge_list_matches_reader(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        graph = load_csr_cache(ingest_edge_list(path, tmp_path / "cache"))
        reference = read_edge_list(path)
        assert graph.num_vertices == reference.num_vertices == 0
        assert graph.num_edges == reference.num_edges == 0

    def test_partitioner_requires_num_workers(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphError):
            ingest_edge_list(path, tmp_path / "cache", partitioner="ldg")

    def test_failed_ingest_leaves_no_partial_cache(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\njunk\n")
        with pytest.raises(GraphFormatError):
            ingest_edge_list(path, tmp_path / "cache")
        cache_root = tmp_path / "cache"
        leftovers = list(cache_root.glob("*")) if cache_root.exists() else []
        assert not leftovers


# ------------------------------------------------------ partition-at-ingest
class TestPartitionAtIngest:
    def test_ldg_at_ingest_lands_partition_contiguous(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(make_corpus(9, num_vertices=80, num_lines=800))
        cache = ingest_edge_list(
            path, tmp_path / "cache", deduplicate=True,
            partitioner="ldg", num_workers=4,
        )
        graph = load_csr_cache(cache)
        assert graph.ingest_partition is not None
        assert graph.ingest_partition["partitioner"] == "ldg"
        offsets = np.asarray(graph.ingest_partition["offsets"])
        assert offsets[0] == 0 and offsets[-1] == graph.num_vertices
        assert np.all(np.diff(offsets) >= 0)

    def test_contiguous_partitioner_makes_repartition_a_noop(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(make_corpus(10, num_vertices=64, num_lines=700))
        cache = ingest_edge_list(
            path, tmp_path / "cache", deduplicate=True,
            partitioner="ldg", num_workers=4,
        )
        graph = load_csr_cache(cache)
        partitioning = ContiguousPartitioner().partition(graph, 4)
        # The ingest-time offsets are honoured verbatim...
        assert np.array_equal(
            np.asarray(partitioning.layout().offsets),
            np.asarray(graph.ingest_partition["offsets"]),
        )
        # ...and the layout is the identity, so repartitioning never copies
        # the edge arrays: the "relabelled" graph aliases the memmap.
        assert partitioning.layout().is_identity
        relabelled = graph.repartition(partitioning)
        assert np.shares_memory(
            np.asarray(relabelled.targets), np.asarray(graph.targets)
        )

    def test_contiguous_partitioner_balances_edges_without_metadata(self):
        from repro.graph import generators

        graph = generators.preferential_attachment(200, out_degree=4, seed=5).freeze()
        partitioning = ContiguousPartitioner().partition(graph, 4)
        layout = partitioning.layout()
        assert layout.is_identity
        offsets = np.asarray(layout.offsets)
        indptr = np.asarray(graph.indptr)
        per_worker_edges = np.diff(indptr[offsets])
        # Contiguous blocks chosen by cumulative degree: no worker holds more
        # than ~half the edges (a vertex-count split would be far worse on a
        # scale-free graph where early vertices dominate).
        assert per_worker_edges.max() <= graph.num_edges * 0.55


# ------------------------------------------------- satellite 1: dataset LRU
class TestDatasetCacheLRU:
    def test_cache_is_bounded_and_releases_evicted_graphs(self):
        datasets.clear_cache()
        previous = datasets.set_cache_limit(2)
        try:
            first = datasets.load_dataset("livejournal", scale=0.05, seed=1)
            ref = weakref.ref(first)
            datasets.load_dataset("wikipedia", scale=0.05, seed=1)
            datasets.load_dataset("uk-2002", scale=0.05, seed=1)
            assert len(datasets._CACHE) <= 2
            del first
            gc.collect()
            # Regression: the unbounded dict used to pin every generated
            # graph forever; the evicted entry must now actually be freed.
            assert ref() is None
        finally:
            datasets.set_cache_limit(previous)
            datasets.clear_cache()

    def test_lru_keeps_recently_used(self):
        datasets.clear_cache()
        previous = datasets.set_cache_limit(2)
        try:
            a = datasets.load_dataset("livejournal", scale=0.05, seed=2)
            datasets.load_dataset("wikipedia", scale=0.05, seed=2)
            # Touch the oldest entry, then insert a third: the middle one
            # (wikipedia) is now the LRU victim.
            assert datasets.load_dataset("livejournal", scale=0.05, seed=2) is a
            datasets.load_dataset("uk-2002", scale=0.05, seed=2)
            keys = {key[0] for key in datasets._CACHE}
            assert keys == {"livejournal", "uk-2002"}
        finally:
            datasets.set_cache_limit(previous)
            datasets.clear_cache()

    def test_cache_limit_validation(self):
        with pytest.raises(ConfigurationError):
            datasets.set_cache_limit(0)

    def test_csr_cache_dir_serves_memmap_dataset(self, tmp_path):
        graph = datasets.load_dataset(
            "livejournal", scale=0.05, seed=3, csr_cache_dir=tmp_path
        )
        assert isinstance(graph, CSRGraph)
        assert graph.mmap_backed
        again = datasets.load_dataset(
            "livejournal", scale=0.05, seed=3, csr_cache_dir=tmp_path
        )
        assert again.num_edges == graph.num_edges
        # Served from disk, not from the in-process instance cache.
        assert ("livejournal", 0.05, 3) not in datasets._CACHE


# -------------------------------------- satellite 2: repartition cache pin
class TestRepartitionCachePinning:
    def _mmap_graph(self, tmp_path):
        from repro.graph import generators

        frozen = generators.preferential_attachment(120, out_degree=4, seed=7).freeze()
        cache = save_csr_cache(frozen, tmp_path / "pa")
        return load_csr_cache(cache, mmap_mode="r")

    def test_mmap_graph_does_not_pin_relabelled_copy(self, tmp_path):
        """Regression: the cache used to hold a strong reference, so a
        memmap-backed graph silently pinned a full materialised relabelling
        in RAM -- double the footprint the memmap path exists to avoid."""
        graph = self._mmap_graph(tmp_path)
        partitioning = HashPartitioner().partition(graph, 4)
        relabelled = graph.repartition(partitioning)
        assert not np.shares_memory(
            np.asarray(relabelled.targets), np.asarray(graph.targets)
        )
        ref = weakref.ref(relabelled)
        cache_key = (partitioning.num_workers, partitioning.workers.tobytes())
        assert graph._cached_repartition(cache_key) is relabelled
        del relabelled
        gc.collect()
        assert ref() is None
        assert graph._cached_repartition(cache_key) is None

    def test_ram_graph_keeps_strong_cache(self, tmp_path):
        graph = self._mmap_graph(tmp_path)
        ram = load_csr_cache(tmp_path / "pa", mmap_mode=None)
        partitioning = HashPartitioner().partition(ram, 4)
        first = ram.repartition(partitioning)
        assert ram.repartition(partitioning) is first

    def test_invalidate_repartition_cache(self, tmp_path):
        graph = self._mmap_graph(tmp_path)
        ram = load_csr_cache(tmp_path / "pa", mmap_mode=None)
        partitioning = HashPartitioner().partition(ram, 4)
        first = ram.repartition(partitioning)
        ram.invalidate_repartition_cache()
        assert ram.repartition(partitioning) is not first
