"""Property-based tests (hypothesis) on the core data structures and invariants.

These cover the invariants the rest of the system silently relies on:

* graph bookkeeping (degree sums, subgraph closure, undirected symmetry),
* the frozen CSR graph (freeze round-trips, derivation commutativity,
  reverse involution, degree preservation under relabelling),
* the statistics helpers (R² of a perfect fit, D-statistic bounds),
* the regression (exact recovery of linear ground truth, scale equivariance),
* the extrapolator (linearity, identity at factor 1),
* the samplers (requested ratio met, sample is a subgraph),
* the transform functions (threshold scaling is exact and pure),
* the edge-list boundary: the chunked ingester reads any file the way
  ``read_edge_list`` does -- same edges per id, bit-identical weights, and
  the same line number when a line is malformed.
"""

from __future__ import annotations

import gzip
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.extrapolation import Extrapolator, ScalingFactors
from repro.core.features import FeatureTable
from repro.core.regression import fit_linear_model
from repro.core.transform import THRESHOLD_SCALING_TRANSFORM
from repro.algorithms.pagerank import PageRank, PageRankConfig
from repro.exceptions import GraphFormatError
from repro.graph.digraph import DiGraph
from repro.graph import generators
from repro.graph.ingest import (
    DEFAULT_CHUNK_BYTES, _iter_chunks, ingest_edge_list, load_csr_cache,
)
from repro.graph.io import read_edge_list
from repro.sampling.random_jump import RandomJump
from repro.utils.stats import coefficient_of_determination, d_statistic, signed_relative_error

# A strategy producing small random edge lists over a bounded vertex universe.
edge_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30)),
    min_size=1,
    max_size=120,
)


def build_graph(edges) -> DiGraph:
    graph = DiGraph(name="hypothesis")
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


class TestGraphInvariants:
    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_degree_sums_equal_edge_count(self, edges):
        graph = build_graph(edges)
        assert sum(graph.out_degree_sequence()) == graph.num_edges
        assert sum(graph.in_degree_sequence()) == graph.num_edges

    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_undirected_copy_is_symmetric_and_doubled(self, edges):
        graph = build_graph(edges)
        undirected = graph.as_undirected()
        assert undirected.num_edges == 2 * graph.num_edges
        for source, target, _ in graph.edges():
            assert undirected.has_edge(source, target)
            assert undirected.has_edge(target, source)

    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_reverse_is_involution_on_edge_multiset(self, edges):
        graph = build_graph(edges)
        double_reversed = graph.reverse().reverse()
        assert sorted((s, t) for s, t, _ in double_reversed.edges()) == sorted(
            (s, t) for s, t, _ in graph.edges()
        )

    @given(edge_lists, st.integers(min_value=0, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_subgraph_edges_are_subset(self, edges, cutoff):
        graph = build_graph(edges)
        keep = [v for v in graph.vertices() if v <= cutoff]
        sub = graph.subgraph(keep)
        assert sub.num_edges <= graph.num_edges
        for source, target, _ in sub.edges():
            assert source <= cutoff and target <= cutoff
            assert graph.has_edge(source, target)


class TestCSRGraphInvariants:
    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_freeze_round_trips_structure(self, edges):
        graph = build_graph(edges)
        frozen = graph.freeze()
        assert list(frozen.vertices()) == list(graph.vertices())
        assert list(frozen.edges()) == list(graph.edges())
        assert frozen.out_degree_sequence() == graph.out_degree_sequence()
        assert frozen.in_degree_sequence() == graph.in_degree_sequence()
        thawed = frozen.to_digraph()
        assert list(thawed.edges()) == list(graph.edges())

    @given(edge_lists, st.integers(min_value=0, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_subgraph_commutes_with_freeze(self, edges, cutoff):
        graph = build_graph(edges)
        keep = [v for v in graph.vertices() if v <= cutoff]
        freeze_then_sub = graph.freeze().subgraph(keep)
        sub_then_freeze = graph.subgraph(keep).freeze()
        assert list(freeze_then_sub.vertices()) == list(sub_then_freeze.vertices())
        assert list(freeze_then_sub.edges()) == list(sub_then_freeze.edges())

    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_reverse_is_involution_on_csr(self, edges):
        frozen = build_graph(edges).freeze()
        double_reversed = frozen.reverse().reverse()
        assert list(double_reversed.vertices()) == list(frozen.vertices())
        assert sorted((s, t) for s, t, _ in double_reversed.edges()) == sorted(
            (s, t) for s, t, _ in frozen.edges()
        )

    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_as_undirected_matches_digraph_exactly(self, edges):
        graph = build_graph(edges)
        assert list(graph.freeze().as_undirected().edges()) == list(
            graph.as_undirected().edges()
        )

    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_relabelling_preserves_degree_sequences(self, edges):
        frozen = build_graph(edges).freeze()
        relabelled, mapping = frozen.relabel_to_integers()
        assert relabelled.out_degree_sequence() == frozen.out_degree_sequence()
        assert relabelled.in_degree_sequence() == frozen.in_degree_sequence()
        assert sorted(mapping.values()) == list(range(frozen.num_vertices))


class TestStatisticsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_r_squared_of_perfect_prediction_is_one(self, values):
        assert coefficient_of_determination(values, values) == 1.0

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_d_statistic_in_unit_interval_and_symmetric(self, a, b):
        forward = d_statistic(a, b)
        backward = d_statistic(b, a)
        assert 0.0 <= forward <= 1.0
        assert forward == backward

    @given(st.floats(min_value=0.1, max_value=1e6), st.floats(min_value=0.1, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_signed_relative_error_sign_convention(self, predicted, actual):
        error = signed_relative_error(predicted, actual)
        if predicted > actual:
            assert error > 0
        elif predicted < actual:
            assert error < 0
        else:
            assert error == 0.0


class TestRegressionProperties:
    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-5, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_linear_ground_truth_recovered(self, coef_a, coef_b, intercept, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(0, 100, size=(25, 2))
        response = coef_a * matrix[:, 0] + coef_b * matrix[:, 1] + intercept
        model = fit_linear_model(matrix, response, ["A", "B"])
        np.testing.assert_allclose(model.coefficient_dict()["A"], coef_a, atol=1e-6)
        np.testing.assert_allclose(model.coefficient_dict()["B"], coef_b, atol=1e-6)
        np.testing.assert_allclose(model.intercept, intercept, atol=1e-5)
        assert model.r_squared >= 0.999999 or np.allclose(response, response.mean())


class TestExtrapolatorProperties:
    feature_rows = st.dictionaries(
        st.sampled_from(["ActVert", "TotVert", "LocMsg", "RemMsg", "LocMsgSize", "RemMsgSize", "AvgMsgSize"]),
        st.floats(min_value=0, max_value=1e9),
        min_size=1,
        max_size=7,
    )

    @given(feature_rows)
    @settings(max_examples=100, deadline=None)
    def test_identity_factors_leave_rows_unchanged(self, row):
        extrapolator = Extrapolator(ScalingFactors(1.0, 1.0))
        assert extrapolator.extrapolate_row(row) == row

    @given(feature_rows, st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_extrapolation_is_homogeneous(self, row, ev, ee):
        extrapolator = Extrapolator(ScalingFactors(ev, ee))
        scaled = extrapolator.extrapolate_row(row)
        for name, value in row.items():
            assert scaled[name] >= value  # factors are >= 1
            if value > 0 and name not in ("AvgMsgSize",):
                assert scaled[name] in (
                    value * ev,
                    value * ee,
                )

    @given(st.lists(feature_rows, min_size=0, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_rows_extrapolated_independently(self, rows):
        extrapolator = Extrapolator(ScalingFactors(2.0, 3.0))
        scaled = extrapolator.extrapolate_rows(rows)
        assert len(scaled) == len(rows)
        for original, row in zip(rows, scaled):
            assert extrapolator.extrapolate_row(original) == row


class TestSamplerProperties:
    @given(st.floats(min_value=0.05, max_value=0.5), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_jump_meets_requested_ratio(self, ratio, seed):
        graph = generators.preferential_attachment(200, out_degree=4, seed=3)
        result = RandomJump(seed=seed).sample(graph, ratio)
        assert result.num_vertices == max(1, int(round(200 * ratio)))
        assert set(result.vertices) <= set(graph.vertices())


class TestTransformProperties:
    @given(st.floats(min_value=1e-9, max_value=1e-2), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_threshold_scaling_exact_and_pure(self, tolerance, ratio):
        config = PageRankConfig(tolerance=tolerance)
        scaled = THRESHOLD_SCALING_TRANSFORM(PageRank(), config, ratio)
        assert scaled.tolerance == tolerance / ratio
        assert config.tolerance == tolerance


class TestFeatureTableProperties:
    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matrix_round_trips_rows(self, pairs):
        table = FeatureTable()
        for a, b in pairs:
            table.append({"ActVert": a, "RemMsg": b}, a + b)
        matrix = table.matrix(["ActVert", "RemMsg"])
        assert matrix.shape == (len(pairs), 2)
        for i, (a, b) in enumerate(pairs):
            assert matrix[i, 0] == a
            assert matrix[i, 1] == b
        assert list(table.response()) == [a + b for a, b in pairs]


# ------------------------------------------------------- edge-list boundary
# Files are built from what both readers agree is a line break (``\n`` or
# ``\r\n``) and whitespace (space, \t, \x0b, \x0c).  A lone ``\r`` and
# \x1c-\x1f are breaks or whitespace only to the text-mode reader, so they
# are left out.
gaps = st.text(alphabet=" \t\x0b\x0c", min_size=1, max_size=3)
margins = st.text(alphabet=" \t\x0b\x0c", max_size=2)


@st.composite
def id_tokens(draw, ids):
    """An id written with optional ``+`` sign and leading zeros."""
    sign = draw(st.sampled_from(["", "+"]))
    return sign + "0" * draw(st.integers(0, 3)) + str(draw(ids))


weight_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-50, 50).map(str),
    st.sampled_from(["1e-3", "-0.0", "2.5E2", ".5", "7."]),
)


@st.composite
def edge_lines(draw, ids):
    fields = [draw(id_tokens(ids)), draw(id_tokens(ids))]
    if draw(st.booleans()):
        fields.append(draw(weight_tokens))
        fields += draw(st.lists(st.sampled_from(["x", "7", "#"]), max_size=2))
    line = fields[0]
    for field in fields[1:]:
        line += draw(gaps) + field
    return draw(margins) + line + draw(margins)


def other_lines(comment):
    return st.one_of(
        margins,  # blank, or whitespace only
        st.tuples(margins, st.sampled_from([comment, comment + " note", comment + "1 2"])).map(
            "".join
        ),
        st.sampled_from(["# graph: g", "# vertices: 3 edges: 4", "  # graph:"]),
    )


@st.composite
def edge_files(draw, ids, comment="#"):
    lines = draw(st.lists(
        st.one_of(edge_lines(ids), other_lines(comment)), max_size=40,
    ))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines)
    if lines and draw(st.booleans()):
        text += eol
    return text.encode("ascii")


def write_edge_file(directory: Path, body: bytes, gzipped: bool) -> Path:
    path = directory / ("edges.txt.gz" if gzipped else "edges.txt")
    if gzipped:
        with gzip.open(path, "wb") as handle:
            handle.write(body)
    else:
        path.write_bytes(body)
    return path


def adjacency_by_id(graph):
    """``id -> [(target id, weight bits), ...]`` in stored order."""
    ids = list(graph.ids)
    indptr = np.asarray(graph.indptr)
    targets = np.asarray(graph.targets)
    bits = np.asarray(graph.weights, dtype=np.float64).view(np.int64)
    return {
        vertex: [(ids[int(t)], int(b)) for t, b in zip(
            targets[indptr[i]:indptr[i + 1]], bits[indptr[i]:indptr[i + 1]]
        )]
        for i, vertex in enumerate(ids)
        if indptr[i + 1] > indptr[i]
    }


def error_line(excinfo) -> int:
    """The line number in a ``path:lineno: ...`` error message."""
    return int(re.search(r":(\d+): ", str(excinfo.value)).group(1))


chunk_sizes = st.one_of(st.integers(1, 64), st.just(DEFAULT_CHUNK_BYTES))


class TestEdgeListBoundaryProperties:
    @given(
        st.sampled_from(["#", "%"]).flatmap(
            lambda c: st.tuples(st.just(c), edge_files(st.integers(0, 40), c))
        ),
        chunk_sizes,
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_ingest_matches_reader(self, comment_and_body, chunk_bytes, gzipped):
        comment, body = comment_and_body
        with tempfile.TemporaryDirectory() as tmp:
            path = write_edge_file(Path(tmp), body, gzipped)
            cache = ingest_edge_list(path, Path(tmp) / "cache", comment=comment,
                                     chunk_bytes=chunk_bytes)
            ingested = load_csr_cache(cache)
            reference = read_edge_list(path, comment=comment, frozen=True)
            assert ingested.num_edges == reference.num_edges
            assert adjacency_by_id(ingested) == adjacency_by_id(reference)

    @given(edge_files(st.integers(0, 2**63 - 1)), chunk_sizes)
    @settings(max_examples=150, deadline=None)
    def test_parser_reads_every_int64_id(self, body, chunk_bytes):
        """Ids up to 2**63 - 1 parse exactly (the dense cache cannot hold them)."""
        path = Path("edges.txt")
        adjacency = {}
        for sources, targets, weights in _iter_chunks(io.BytesIO(body), b"#", chunk_bytes, path):
            weights = np.ones(len(sources)) if weights is None else weights
            for source, target, bits in zip(
                sources.tolist(), targets.tolist(), weights.view(np.int64).tolist()
            ):
                adjacency.setdefault(source, []).append((target, bits))
        with tempfile.TemporaryDirectory() as tmp:
            file_path = write_edge_file(Path(tmp), body, gzipped=False)
            reference = read_edge_list(file_path, allow_self_loops=True, frozen=True)
        assert adjacency == adjacency_by_id(reference)

    @given(
        edge_files(st.integers(0, 40)),
        st.sampled_from(["7", "x 1", "3 1.5", "+ 4", "12 -", "4 0x1f", "1 2 w", "1 2 1.2.3"]),
        st.integers(0, 50),
        chunk_sizes,
    )
    @settings(max_examples=150, deadline=None)
    def test_malformed_line_number_matches_reader(self, body, bad_line, position, chunk_bytes):
        eol = b"\r\n" if b"\r\n" in body else b"\n"
        lines = body.split(eol)
        lines.insert(min(position, len(lines)), bad_line.encode("ascii"))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_edge_file(Path(tmp), eol.join(lines), gzipped=False)
            with pytest.raises(GraphFormatError) as reader_error:
                read_edge_list(path)
            with pytest.raises(GraphFormatError) as ingest_error:
                ingest_edge_list(path, Path(tmp) / "cache", chunk_bytes=chunk_bytes)
        assert error_line(ingest_error) == error_line(reader_error)
