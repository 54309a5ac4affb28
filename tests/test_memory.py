"""Peak memory of the decode read path, traced with ``tracemalloc`` (numpy
reports its buffers to it) on a generated noiseless FASTQ of 4.8 MiB."""

import tracemalloc

import numpy as np
import pytest

from pjdna import jr, seqio, strand
from pjdna.channel import ChannelProfile, corrupt_reads, vote
from pjdna.seqio import ReadStream, read_sequences, write_fastq
from pjdna.strand import assemble_many

STRANDS, COVERAGE = 2000, 8


@pytest.fixture(scope="module")
def reads_fastq(tmp_path_factory):
    rng = np.random.default_rng(5)
    blocks = rng.integers(0, jr.DEFAULT_CONFIG.block_limit, (STRANDS, 18))
    reads = corrupt_reads(assemble_many(np.arange(STRANDS), blocks),
                          ChannelProfile(coverage_mean=COVERAGE))
    path = tmp_path_factory.mktemp("memory") / "reads.fastq"
    write_fastq(path, reads.pool, reads.origin_ids)
    return path


def _traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated while it ran."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


def test_reading_holds_the_file_once(reads_fastq):
    """Reading holds the sequences and one 1 MiB window with its
    temporaries, not the file: 0.92 of the file's size here.  Holding the
    file's bytes with per-line bounds took 1.75, and whole-file line and
    byte-class arrays 2.44."""
    size = reads_fastq.stat().st_size
    result, peak = _traced_peak(lambda: read_sequences(reads_fastq))
    assert len(result.pool) == STRANDS * COVERAGE
    assert peak < 1.25 * size


def test_vote_grows_by_narrow_blocks(reads_fastq, monkeypatch):
    """With parse chunks of 1,024 reads the chunk's temporaries are small, so
    the peak is what grows with the reads: 105 bytes a read here, where
    voting on int64 copies of every block took 502."""
    pool = read_sequences(reads_fastq).pool
    monkeypatch.setattr(strand, "_PARSE_CHUNK", 1024)
    batch, peak = _traced_peak(lambda: vote(pool))
    assert batch.counts["indices_observed"] == STRANDS
    assert peak < 200 * len(pool)


def test_vote_holds_its_blocks_once(reads_fastq, monkeypatch):
    """The parse chunks' blocks (36 bytes a read here) move chunk by chunk
    into their sorted rows, beside one int64 rank a read and no index array:
    84 bytes a read with parse chunks of 256 reads.  Concatenating the
    chunks and sorting the concatenation held the blocks twice beside the
    indices, their sorted copy and the sort order: 99.8."""
    pool = read_sequences(reads_fastq).pool
    monkeypatch.setattr(strand, "_PARSE_CHUNK", 256)
    batch, peak = _traced_peak(lambda: vote(pool))
    assert batch.counts["indices_observed"] == STRANDS
    assert peak < 92 * len(pool)


def test_voting_off_the_stream_holds_one_window(reads_fastq, monkeypatch):
    """Voting on the windows of a :class:`ReadStream` as they are read holds
    one window and what the vote keeps: with 64 KiB windows and parse chunks
    of 1,024 reads, 0.31 of the file's size here (96 bytes a read), where
    reading the file first and voting on its pool took 1.75."""
    monkeypatch.setattr(seqio, "_SCAN_BYTES", 1 << 16)
    monkeypatch.setattr(strand, "_PARSE_CHUNK", 1024)
    size = reads_fastq.stat().st_size
    batch, peak = _traced_peak(lambda: vote(ReadStream(reads_fastq)))
    assert batch.counts["reads_total"] == STRANDS * COVERAGE
    assert batch.counts["indices_observed"] == STRANDS
    assert peak < 0.4 * size
