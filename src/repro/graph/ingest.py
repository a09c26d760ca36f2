"""Out-of-core edge-list ingestion into an on-disk CSR cache.

The paper's inputs are HDFS-resident edge lists of up to 1.5B edges
(PAPER.md Table 2); :func:`repro.graph.io.read_edge_list` -- a per-line
Python loop into a dict-backed builder -- cannot load them.  This module is
the out-of-core ingestion path: a chunked, ``np.loadtxt``-free parser that
bucket-sorts edges through spill files into an on-disk ``.npy`` CSR cache,
so peak memory is bounded by the chunk/bucket sizes rather than the graph.

Pipeline
--------
1. **Digest** -- the cache is keyed by a content hash: sha256 over the raw
   file bytes plus the ingestion options (comment char, self-loop/dedup
   policy, partitioner).  Re-ingesting the same file with the same options
   is a directory lookup.
2. **Parse + spill** -- the file is read in fixed-size binary chunks
   (gzip-aware).  Each chunk's whole lines are tokenised as one ``uint8``
   array (:func:`_parse_block`): token bounds from a whitespace mask, line
   bounds from the newline positions, ids of up to 18 digits by column-wise
   digit arithmetic, every other id and every weight by an
   ``np.array(tokens).astype`` cast -- there is no per-line Python loop.
   Self-loops are dropped (matching
   :class:`~repro.graph.builder.GraphBuilder` semantics) and the surviving
   ``(source, target, weight)`` triples are appended to a binary spill file.
3. **Bucket sort** -- the spill is routed into at most
   ``_MAX_BUCKETS`` bucket files by contiguous source-id range, so each
   bucket fits in memory regardless of the total edge count.
4. **CSR write** -- buckets are processed in ascending source order: load,
   stable-sort by source (file order preserved within a source), optional
   per-``(source, target)`` dedup keeping the first occurrence (buckets
   partition the source space, so bucket-local dedup equals the builder's
   global dedup), then *sequential* appends to ``targets.npy`` /
   ``weights.npy`` and the matching ``indptr.npy`` slice.  The ``.npy``
   headers are fixed-size and patched after the data is on disk, so the
   final edge count never has to be known up front.
5. **Partition (optional)** -- a partitioner (e.g. LDG) runs on the
   memmapped CSR and the cache is rewritten partition-contiguous; the
   worker offsets land in ``meta.json`` so
   :class:`~repro.graph.partition.ContiguousPartitioner` can reuse them and
   ``CSRGraph.repartition`` becomes a metadata no-op.

Cache layout (one directory per ``(file digest, options)``)::

    <cache_dir>/<digest>/
        indptr.npy    int64[n + 1]
        targets.npy   int64[m]
        weights.npy   float64[m]
        ids.npy       int64[n]   -- only for partition-permuted caches
        meta.json     counts, options, digest, partition offsets

Vertex-id contract: ingestion requires non-negative integer ids -- any
token Python's ``int()`` accepts, below 2**63 (larger ids raise a
``GraphFormatError`` naming the line) -- and the
cache is *dense* -- the vertex set is ``0..max_id`` and ids never seen in
the file are isolated vertices.  (``read_edge_list`` instead creates
vertices in first-appearance order; the two agree on every edge and on the
adjacency order of every source, which is what the equivalence tests pin.)

:func:`load_csr_cache` rebuilds a :class:`~repro.graph.csr.CSRGraph` over
``np.load(..., mmap_mode=...)`` views, with ids as a lazy ``range`` -- the
graph object is O(1) in the edge count and pages are faulted in on demand.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
import struct
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import GraphError, GraphFormatError
from repro.graph.csr import CSRGraph, concat_ranges
from repro.graph.io import HEADER_PREFIXES
from repro.obs.tracer import current_tracer

PathLike = Union[str, Path]

#: Bump when the on-disk layout changes; part of the cache digest.
FORMAT_VERSION = 1

#: Bytes of raw text parsed per chunk.  Peak parser memory is a small
#: multiple of this (the byte mask, token positions and converted arrays).
DEFAULT_CHUNK_BYTES = 1 << 20

#: Target bytes of one bucket file; per-bucket sort memory is a small
#: multiple of this.
DEFAULT_BUCKET_BYTES = 1 << 25

#: Upper bound on simultaneously open bucket files.
_MAX_BUCKETS = 128

#: Reserved bytes for a ``.npy`` header written after the data (v1.0
#: format: 6-byte magic + 2-byte version + 2-byte header length + padded
#: header dict).  128 is a multiple of the format's 16-byte alignment and
#: comfortably fits any int64/float64 1-D shape.
_NPY_HEADER_SPACE = 128

#: Spill/bucket record: one edge as it came out of the parser.
_SPILL_DTYPE = np.dtype([("source", "<i8"), ("target", "<i8"), ("weight", "<f8")])

_HEADER_PREFIXES_B = tuple(prefix.encode("ascii") for prefix in HEADER_PREFIXES)

#: Longest all-digit id token converted by digit arithmetic: 10**18 - 1 is
#: below 2**63, so no such token can overflow int64.
_MAX_FAST_DIGITS = 18


# ------------------------------------------------------------------- digest
def cache_digest(
    path: PathLike,
    comment: str = "#",
    allow_self_loops: bool = False,
    deduplicate: bool = False,
    partitioner: Optional[str] = None,
    num_workers: Optional[int] = None,
) -> str:
    """Content hash keying the CSR cache of ``path`` under these options.

    Hashes the raw stored bytes (the compressed stream for ``.gz`` inputs),
    so the hash pass is pure sequential I/O, then folds in every option
    that changes the resulting CSR.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            digest.update(block)
    options = {
        "format_version": FORMAT_VERSION,
        "comment": comment,
        "allow_self_loops": bool(allow_self_loops),
        "deduplicate": bool(deduplicate),
        "partitioner": partitioner,
        "num_workers": int(num_workers) if num_workers else None,
    }
    digest.update(json.dumps(options, sort_keys=True).encode("ascii"))
    return digest.hexdigest()[:16]


# ------------------------------------------------------------------- parser
def _open_binary(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _int64(token: bytes) -> np.int64:
    """``int(token)`` as int64: ``OverflowError`` outside int64, like the array cast."""
    return np.int64(int(token))


def _locate_parse_error(
    tokens: Sequence[bytes], line_numbers: Sequence[int], path: Path, what: str, cast
) -> GraphFormatError:
    """Pin a vectorised cast failure to its source line."""
    for token, line_no in zip(tokens, line_numbers):
        try:
            cast(token)
        except (ValueError, OverflowError):
            return GraphFormatError(f"{path}:{line_no}: {what}: {token.decode(errors='replace')!r}")
    return GraphFormatError(f"{path}: {what}")  # pragma: no cover - cast raced


def _slices(body: bytes, begin: np.ndarray, end: np.ndarray) -> List[bytes]:
    """The tokens ``body[begin:end]`` as bytes objects."""
    return [body[b:e] for b, e in zip(begin.tolist(), end.tolist())]


def _prefixed(
    data: np.ndarray, lead: np.ndarray, begin: np.ndarray, end: np.ndarray, prefix: bytes
) -> np.ndarray:
    """Indices of the lines whose stripped text ``data[begin:end]`` starts with ``prefix``.

    ``lead`` holds each line's first byte, so only lines that can match are
    compared further.
    """
    if not prefix:
        return np.arange(len(lead))
    hits = np.flatnonzero(lead == prefix[0])
    hits = hits[end[hits] - begin[hits] >= len(prefix)]
    for offset in range(1, len(prefix)):
        hits = hits[data[begin[hits] + offset] == prefix[offset]]
    return hits


def _parse_ids(
    data: np.ndarray, body: bytes, begin: np.ndarray, end: np.ndarray,
    line_numbers: np.ndarray, path: Path,
) -> np.ndarray:
    """Convert the id tokens ``data[begin:end]`` to int64.

    Tokens of 1..``_MAX_FAST_DIGITS`` ASCII digits are summed column by
    column, right-aligned to the longest one.  Every other token -- a sign,
    an underscore, a longer digit run, any other byte -- goes through the
    ``np.array(tokens).astype(np.int64)`` cast, which calls ``int()``, so
    the accepted language is exactly Python's ``int()`` within int64.
    """
    lengths = end - begin
    width = min(int(lengths.max()), _MAX_FAST_DIGITS)
    values = np.zeros(len(begin), dtype=np.int64)
    top = np.zeros(len(begin), dtype=np.uint8)  # any non-digit byte ends > 9
    at = end - width
    for _ in range(width):
        # ``at`` runs left of a shorter token (below 0 at the block start);
        # those columns add zeros.
        digit = np.take(data, at, mode="clip") - np.uint8(48)
        digit *= at >= begin
        np.maximum(top, digit, out=top)
        values *= 10
        values += digit
        at += 1
    slow = (top > 9) | (lengths > _MAX_FAST_DIGITS)
    if slow.any():
        rows = np.flatnonzero(slow)
        tokens = _slices(body, begin[rows], end[rows])
        try:
            values[rows] = np.array(tokens).astype(np.int64)
        except (ValueError, OverflowError):
            raise _locate_parse_error(
                tokens, line_numbers[rows].tolist(), path,
                "vertex ids are not integers", _int64,
            ) from None
    return values


def _parse_block(
    body: bytes, first_line_no: int, comment: bytes, path: Path
) -> Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Tokenise a block of whole lines into (sources, targets, weights?) arrays.

    The block is scanned as one ``uint8`` array: token bounds come from the
    ``bytes.split()`` whitespace mask, a token opens a line when a newline
    precedes it, and comments, blank lines and ``write_edge_list``'s own
    header lines are skipped by comparing the bytes at each line's first
    token (headers whatever ``comment`` is, as in
    :func:`repro.graph.io.read_edge_list`).  Errors carry ``path:lineno``.
    """
    data = np.frombuffer(body, dtype=np.uint8)
    # The ``bytes.split()`` whitespace is space and \t \n \x0b \x0c \r
    # (9..13); ``solid`` is padded with one whitespace byte at each end.
    solid = np.zeros(len(data) + 2, dtype=bool)
    np.logical_and(data != 32, (data < 9) | (data > 13), out=solid[1:-1])
    # Token runs alternate with whitespace runs, so the flips of the mask
    # alternate token start, token end, start, end, ...
    flips = np.flatnonzero(solid[1:] != solid[:-1])
    del solid
    if not len(flips):
        return None
    starts, ends = flips[0::2], flips[1::2]
    # The first token after each newline, behind a virtual newline before
    # the block: entry k opens line k, unless line k is blank -- then it
    # repeats entry k + 1 (or, on the last line, is past the last token).
    after = np.concatenate(
        ([0], np.searchsorted(starts, np.flatnonzero(data == ord("\n"))))
    )
    opens = np.empty(len(after), dtype=bool)
    np.not_equal(after[:-1], after[1:], out=opens[:-1])
    opens[-1] = after[-1] < len(starts)
    line_offsets = np.flatnonzero(opens)
    first = after[line_offsets]  # each non-blank line's first token
    counts = np.diff(first, append=len(starts))
    line_begin = starts[first]
    line_end = ends[first + counts - 1]

    keep = np.ones(len(first), dtype=bool)
    lead = data[line_begin]
    for prefix in (comment,) + _HEADER_PREFIXES_B:
        keep[_prefixed(data, lead, line_begin, line_end, prefix)] = False
    if not keep.all():
        first, counts, line_offsets = first[keep], counts[keep], line_offsets[keep]
        line_begin, line_end = line_begin[keep], line_end[keep]
    if not len(first):
        return None
    line_numbers = first_line_no + line_offsets
    short = np.flatnonzero(counts < 2)
    if len(short):
        row = int(short[0])
        line = body[line_begin[row]:line_end[row]]
        raise GraphFormatError(
            f"{path}:{line_numbers[row]}: expected 'source target "
            f"[weight]', got {line.decode(errors='replace')!r}"
        )

    sources = _parse_ids(data, body, line_begin, ends[first], line_numbers, path)
    targets = _parse_ids(
        data, body, starts[first + 1], ends[first + 1], line_numbers, path
    )
    weighted = np.flatnonzero(counts > 2)
    weights = None
    if len(weighted):
        slots = first[weighted] + 2
        tokens = _slices(body, starts[slots], ends[slots])
        try:
            parsed = np.array(tokens).astype(np.float64)
        except ValueError:
            raise _locate_parse_error(
                tokens, line_numbers[weighted].tolist(), path, "bad weight", float
            ) from None
        weights = np.ones(len(first), dtype=np.float64)
        weights[weighted] = parsed
    bad = (sources < 0) | (targets < 0)
    if bad.any():
        line_no = line_numbers[int(np.argmax(bad))]
        raise GraphFormatError(f"{path}:{line_no}: vertex ids must be non-negative")
    return sources, targets, weights


def _iter_chunks(handle, comment: bytes, chunk_bytes: int, path: Path):
    """Yield parsed ``(sources, targets, weights?)`` arrays per text chunk."""
    carry = b""
    line_no = 1
    while True:
        block = handle.read(chunk_bytes)
        if not block:
            break
        block = carry + block
        cut = block.rfind(b"\n")
        if cut < 0:
            carry = block
            continue
        carry = block[cut + 1 :]
        body = block[:cut]
        parsed = _parse_block(body, line_no, comment, path)
        line_no += body.count(b"\n") + 1
        if parsed is not None:
            yield parsed
    if carry.strip():
        parsed = _parse_block(carry, line_no, comment, path)
        if parsed is not None:
            yield parsed


# ---------------------------------------------------------------- npy files
def _write_npy_header(handle, descr: str, shape: Tuple[int, ...]) -> None:
    """Write a v1.0 ``.npy`` header into the reserved leading block.

    The data region always starts at byte ``_NPY_HEADER_SPACE``, so the
    header can be (re)written after the array length is finally known --
    the trick that lets the CSR writer stream data of unknown total size.
    """
    header = "{'descr': '%s', 'fortran_order': False, 'shape': %r, }" % (descr, shape)
    padding = _NPY_HEADER_SPACE - 10 - 1 - len(header)
    if padding < 0:  # pragma: no cover - shapes here are always short
        raise GraphError(f"npy header too long for reserved space: {header!r}")
    handle.seek(0)
    handle.write(b"\x93NUMPY\x01\x00")
    handle.write(struct.pack("<H", _NPY_HEADER_SPACE - 10))
    handle.write((header + " " * padding + "\n").encode("latin1"))


def _open_npy_stream(path: Path):
    """Open a ``.npy`` file for streaming: reserve the header, seek to data."""
    handle = open(path, "w+b")
    handle.write(b"\0" * _NPY_HEADER_SPACE)
    return handle


# ------------------------------------------------------------------- ingest
def ingest_edge_list(
    path: PathLike,
    cache_dir: PathLike,
    name: Optional[str] = None,
    comment: str = "#",
    allow_self_loops: bool = False,
    deduplicate: bool = False,
    partitioner: Optional[str] = None,
    num_workers: Optional[int] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    force: bool = False,
    tracer=None,
) -> Path:
    """Ingest an edge-list file into an on-disk CSR cache; return its path.

    Peak memory is O(chunk + bucket), independent of the graph size.  The
    cache is keyed by :func:`cache_digest`; an existing complete cache is
    returned without re-reading the input (unless ``force``).  With
    ``partitioner`` (a :data:`repro.graph.partition.PARTITIONERS` name) and
    ``num_workers``, the cache lands partition-contiguous on disk.
    ``tracer`` (default: the ambient :func:`repro.obs.current_tracer`)
    records one span per pipeline stage.
    """
    file_path = Path(path)
    tracer = tracer if tracer is not None else current_tracer()
    if partitioner is not None and not num_workers:
        raise GraphError("partitioner at ingest requires num_workers")
    with tracer.span("ingest") as ingest_span:
        if tracer.enabled:
            ingest_span.set("path", str(file_path))
        digest = cache_digest(
            file_path, comment=comment, allow_self_loops=allow_self_loops,
            deduplicate=deduplicate, partitioner=partitioner, num_workers=num_workers,
        )
        cache_root = Path(cache_dir)
        final_dir = cache_root / digest
        if (final_dir / "meta.json").exists() and not force:
            if tracer.enabled:
                ingest_span.set("cache_hit", True)
            return final_dir
        if tracer.enabled:
            ingest_span.set("cache_hit", False)
        cache_root.mkdir(parents=True, exist_ok=True)
        tmp_dir = cache_root / f".tmp-{digest}-{os.getpid()}"
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir()
        try:
            meta = _ingest_into(
                file_path, tmp_dir,
                name=name or file_path.name.partition(".")[0],
                comment=comment, allow_self_loops=allow_self_loops,
                deduplicate=deduplicate, chunk_bytes=chunk_bytes,
                bucket_bytes=bucket_bytes, tracer=tracer,
            )
            if partitioner is not None:
                with tracer.span("ingest.partition") as part_span:
                    _partition_stage(tmp_dir, meta, partitioner, int(num_workers))
                    if tracer.enabled:
                        part_span.set("partitioner", partitioner)
                        part_span.set("num_workers", int(num_workers))
            meta["digest"] = digest
            with open(tmp_dir / "meta.json", "w") as handle:
                json.dump(meta, handle, indent=1)
            if final_dir.exists():
                shutil.rmtree(final_dir)
            os.replace(tmp_dir, final_dir)
        finally:
            if tmp_dir.exists():
                shutil.rmtree(tmp_dir)
        if tracer.enabled:
            ingest_span.set("num_vertices", meta["num_vertices"])
            ingest_span.set("num_edges", meta["num_edges"])
    return final_dir


def _ingest_into(
    file_path: Path,
    out_dir: Path,
    name: str,
    comment: str,
    allow_self_loops: bool,
    deduplicate: bool,
    chunk_bytes: int,
    bucket_bytes: int,
    tracer=None,
) -> dict:
    """Run the parse/spill/bucket/CSR passes; write arrays into ``out_dir``."""
    tracer = tracer if tracer is not None else current_tracer()
    comment_b = comment.encode("utf-8")
    spill_path = out_dir / "spill.bin"
    max_id = -1
    raw_edges = 0
    self_loops_dropped = 0
    has_weights = False

    # Pass A: chunked parse -> binary spill of (source, target, weight).
    parse_span = tracer.begin("ingest.parse")
    with _open_binary(file_path) as handle, open(spill_path, "wb") as spill:
        for sources, targets, weights in _iter_chunks(
            handle, comment_b, chunk_bytes, file_path
        ):
            if not allow_self_loops:
                keep = sources != targets
                self_loops_dropped += int(len(sources) - keep.sum())
                if not keep.all():
                    sources = sources[keep]
                    targets = targets[keep]
                    weights = weights[keep] if weights is not None else None
            if not len(sources):
                continue
            records = np.empty(len(sources), dtype=_SPILL_DTYPE)
            records["source"] = sources
            records["target"] = targets
            records["weight"] = weights if weights is not None else 1.0
            if weights is not None:
                has_weights = True
            chunk_max = int(max(sources.max(), targets.max()))
            max_id = max(max_id, chunk_max)
            raw_edges += len(records)
            spill.write(records.tobytes())
    if tracer.enabled:
        parse_span.set("raw_edges", raw_edges + self_loops_dropped)
        parse_span.set("spilled_edges", raw_edges)
    parse_span.finish()

    num_vertices = max_id + 1
    spill_bytes = raw_edges * _SPILL_DTYPE.itemsize
    num_buckets = min(_MAX_BUCKETS, max(1, -(-spill_bytes // max(1, bucket_bytes))))
    bounds = (np.arange(num_buckets + 1, dtype=np.int64) * num_vertices) // num_buckets

    # Pass B: route the spill into per-source-range bucket files.  Skipped
    # when everything fits one bucket -- the spill already is that bucket.
    bucket_span = tracer.begin("ingest.bucket")
    if tracer.enabled:
        bucket_span.set("num_buckets", num_buckets)
    if num_buckets > 1:
        bucket_paths = [out_dir / f"bucket-{k}.bin" for k in range(num_buckets)]
        bucket_files = [open(p, "wb") for p in bucket_paths]
        try:
            records_per_chunk = max(1, chunk_bytes // _SPILL_DTYPE.itemsize)
            with open(spill_path, "rb") as spill:
                while True:
                    blob = spill.read(records_per_chunk * _SPILL_DTYPE.itemsize)
                    if not blob:
                        break
                    records = np.frombuffer(blob, dtype=_SPILL_DTYPE)
                    buckets = np.searchsorted(bounds, records["source"], side="right") - 1
                    for k in np.unique(buckets):
                        bucket_files[k].write(records[buckets == k].tobytes())
        finally:
            for handle in bucket_files:
                handle.close()
        spill_path.unlink()
    else:
        bucket_paths = [spill_path]
    bucket_span.finish()

    # Pass C: per bucket -- sort by source, dedup, sequential CSR append.
    csr_span = tracer.begin("ingest.csr_write")
    duplicates_dropped = 0
    num_edges = 0
    indptr_f = _open_npy_stream(out_dir / "indptr.npy")
    targets_f = _open_npy_stream(out_dir / "targets.npy")
    weights_f = _open_npy_stream(out_dir / "weights.npy")
    try:
        indptr_f.write(np.zeros(1, dtype=np.int64).tobytes())
        for k, bucket_path in enumerate(bucket_paths):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            if hi <= lo:
                continue
            records = (
                np.fromfile(bucket_path, dtype=_SPILL_DTYPE)
                if bucket_path.exists()
                else np.empty(0, dtype=_SPILL_DTYPE)
            )
            sources = records["source"]
            order = np.argsort(sources, kind="stable")
            sources = sources[order]
            targets = records["target"][order]
            weights = records["weight"][order]
            if deduplicate and len(sources):
                # Bucket-local == global dedup: every edge of a source lives
                # in this bucket.  Keep the first file occurrence per
                # (source, target), like GraphBuilder.
                keys = sources * np.int64(num_vertices) + targets
                by_key = np.argsort(keys, kind="stable")
                first = np.ones(len(keys), dtype=bool)
                first[1:] = keys[by_key][1:] != keys[by_key][:-1]
                keep = np.sort(by_key[first])
                duplicates_dropped += int(len(sources) - len(keep))
                sources = sources[keep]
                targets = targets[keep]
                weights = weights[keep]
            counts = np.bincount(sources - lo, minlength=hi - lo)
            indptr_slice = num_edges + np.cumsum(counts, dtype=np.int64)
            indptr_f.write(indptr_slice.tobytes())
            targets_f.write(np.ascontiguousarray(targets, dtype=np.int64).tobytes())
            weights_f.write(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
            num_edges += len(sources)
            bucket_path.unlink()
        for bucket_path in bucket_paths:  # empty-range leftovers
            if bucket_path.exists():
                bucket_path.unlink()
        _write_npy_header(indptr_f, "<i8", (num_vertices + 1,))
        _write_npy_header(targets_f, "<i8", (num_edges,))
        _write_npy_header(weights_f, "<f8", (num_edges,))
    finally:
        indptr_f.close()
        targets_f.close()
        weights_f.close()
    if tracer.enabled:
        csr_span.set("num_vertices", num_vertices)
        csr_span.set("num_edges", num_edges)
    csr_span.finish()

    return {
        "format_version": FORMAT_VERSION,
        "name": name,
        "num_vertices": num_vertices,
        "num_edges": num_edges,
        "has_weights": has_weights,
        "options": {
            "comment": comment,
            "allow_self_loops": allow_self_loops,
            "deduplicate": deduplicate,
        },
        "stats": {
            "raw_edges": raw_edges + self_loops_dropped,
            "self_loops_dropped": self_loops_dropped,
            "duplicates_dropped": duplicates_dropped,
        },
        "partition": None,
    }


def _partition_stage(
    out_dir: Path, meta: dict, partitioner_name: str, num_workers: int,
    block_vertices: int = 1 << 18,
) -> None:
    """Rewrite the cache partition-contiguous for ``partitioner_name``.

    The partitioner runs on the memmapped base CSR; when its stable layout
    is not already the identity, a permuted copy is streamed out block by
    block (O(block) resident) and the original arrays are replaced.  The
    worker offsets are recorded in ``meta`` so ``ContiguousPartitioner``
    reproduces the assignment as a metadata-only repartition.
    """
    from repro.graph.partition import partitioner_by_name

    graph = load_csr_cache(out_dir, mmap_mode="r", _meta=meta)
    partitioning = partitioner_by_name(partitioner_name).partition(graph, num_workers)
    layout = partitioning.layout()
    meta["partition"] = {
        "partitioner": partitioner_name,
        "num_workers": num_workers,
        "offsets": [int(v) for v in layout.offsets],
        "permuted": False,
    }
    if layout.is_identity:
        return
    meta["partition"]["permuted"] = True
    n = graph.num_vertices
    perm = np.asarray(layout.perm, dtype=np.int64)
    inverse = np.asarray(layout.inverse_perm, dtype=np.int64)
    indptr_f = _open_npy_stream(out_dir / "indptr.perm.npy")
    targets_f = _open_npy_stream(out_dir / "targets.perm.npy")
    weights_f = _open_npy_stream(out_dir / "weights.perm.npy")
    try:
        indptr_f.write(np.zeros(1, dtype=np.int64).tobytes())
        written = 0
        for start in range(0, n, block_vertices):
            verts = perm[start : start + block_vertices]
            lengths = np.asarray(graph.out_degrees[verts], dtype=np.int64)
            slots = concat_ranges(np.asarray(graph.indptr[verts]), lengths)
            targets_f.write(inverse[np.asarray(graph.targets[slots])].tobytes())
            weights_f.write(np.asarray(graph.weights[slots]).tobytes())
            indptr_f.write((written + np.cumsum(lengths, dtype=np.int64)).tobytes())
            written += int(lengths.sum())
        _write_npy_header(indptr_f, "<i8", (n + 1,))
        _write_npy_header(targets_f, "<i8", (written,))
        _write_npy_header(weights_f, "<f8", (written,))
    finally:
        indptr_f.close()
        targets_f.close()
        weights_f.close()
    del graph  # drop the memmap views before replacing their files
    np.save(out_dir / "ids.npy", perm)  # original ids are 0..n-1 == perm values
    for stem in ("indptr", "targets", "weights"):
        os.replace(out_dir / f"{stem}.perm.npy", out_dir / f"{stem}.npy")


# --------------------------------------------------------------- load / save
def load_csr_cache(
    cache_path: PathLike,
    mmap_mode: Optional[str] = "r",
    _meta: Optional[dict] = None,
) -> CSRGraph:
    """Rebuild a :class:`CSRGraph` over a CSR cache directory.

    With the default ``mmap_mode="r"`` the arrays are ``np.memmap`` views
    and pages load on first touch; ``mmap_mode=None`` reads everything into
    RAM (the in-memory comparator of the differential tests).  Ids are a
    lazy ``range`` unless the cache was partition-permuted, so the graph
    object itself stays O(vertices-touched).
    """
    cache_path = Path(cache_path)
    if _meta is None:
        meta_path = cache_path / "meta.json"
        if not meta_path.exists():
            raise GraphError(f"no CSR cache at {cache_path} (missing meta.json)")
        with open(meta_path) as handle:
            _meta = json.load(handle)
    indptr = np.load(cache_path / "indptr.npy", mmap_mode=mmap_mode)
    targets = np.load(cache_path / "targets.npy", mmap_mode=mmap_mode)
    weights = np.load(cache_path / "weights.npy", mmap_mode=mmap_mode)
    n = int(_meta["num_vertices"])
    ids_path = cache_path / "ids.npy"
    ids = np.load(ids_path).tolist() if ids_path.exists() else range(n)
    graph = CSRGraph(
        _meta.get("name", cache_path.name), ids, indptr, targets, weights,
        validate=False,
    )
    graph.mmap_backed = mmap_mode is not None
    partition = _meta.get("partition")
    if partition:
        graph.ingest_partition = {
            "partitioner": partition["partitioner"],
            "num_workers": int(partition["num_workers"]),
            "offsets": np.asarray(partition["offsets"], dtype=np.int64),
        }
    return graph


def save_csr_cache(graph, cache_path: PathLike, name: Optional[str] = None) -> Path:
    """Write a frozen graph's CSR arrays as a cache directory.

    The in-RAM complement of :func:`ingest_edge_list` for graphs that
    already exist as objects (generated stand-ins, test fixtures).  Ids
    must be integers; dense ``0..n-1`` ids are stored implicitly.
    """
    frozen = graph.freeze()
    cache_path = Path(cache_path)
    cache_path.mkdir(parents=True, exist_ok=True)
    n = frozen.num_vertices
    ids = frozen.ids
    dense = isinstance(ids, range) and ids == range(n)
    if not dense:
        if not frozen.integer_ids:
            raise GraphError(
                f"CSR cache requires integer vertex ids; graph {frozen.name!r} "
                "has non-integer ids"
            )
        ids_array = np.asarray(list(ids), dtype=np.int64)
        if np.array_equal(ids_array, np.arange(n, dtype=np.int64)):
            dense = True
        else:
            np.save(cache_path / "ids.npy", ids_array)
    np.save(cache_path / "indptr.npy", np.asarray(frozen.indptr, dtype=np.int64))
    np.save(cache_path / "targets.npy", np.asarray(frozen.targets, dtype=np.int64))
    np.save(cache_path / "weights.npy", np.asarray(frozen.weights, dtype=np.float64))
    if dense and (cache_path / "ids.npy").exists():
        (cache_path / "ids.npy").unlink()
    partition = None
    if frozen.ingest_partition is not None:
        partition = {
            "partitioner": frozen.ingest_partition["partitioner"],
            "num_workers": int(frozen.ingest_partition["num_workers"]),
            "offsets": [int(v) for v in frozen.ingest_partition["offsets"]],
            "permuted": not dense,
        }
    meta = {
        "format_version": FORMAT_VERSION,
        "name": name or frozen.name,
        "num_vertices": n,
        "num_edges": frozen.num_edges,
        "has_weights": True,
        "options": None,
        "stats": None,
        "partition": partition,
    }
    with open(cache_path / "meta.json", "w") as handle:
        json.dump(meta, handle, indent=1)
    return cache_path


def ingest_or_load(
    path: PathLike,
    cache_dir: PathLike,
    mmap_mode: Optional[str] = "r",
    **options,
) -> CSRGraph:
    """Ingest ``path`` if its cache is missing, then load the cached CSR."""
    cache = ingest_edge_list(path, cache_dir, **options)
    return load_csr_cache(cache, mmap_mode=mmap_mode)
