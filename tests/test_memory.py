"""Peak memory of the decode read path, traced with ``tracemalloc`` (numpy
reports its buffers to it) on a generated noiseless FASTQ of 4.8 MiB."""

import tracemalloc

import numpy as np
import pytest

from pjdna import jr, strand
from pjdna.channel import ChannelProfile, corrupt_reads, vote
from pjdna.seqio import read_sequences, write_fastq
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
    """Beyond the file's bytes, reading holds per-line bounds and window
    temporaries: 0.75 of the file's size here.  Whole-file line and byte-class
    arrays took 1.44."""
    size = reads_fastq.stat().st_size
    result, peak = _traced_peak(lambda: read_sequences(reads_fastq))
    assert len(result.pool) == STRANDS * COVERAGE
    assert peak - size < 1.0 * size


def test_vote_grows_by_narrow_blocks(reads_fastq, monkeypatch):
    """With parse chunks of 1,024 reads the chunk's temporaries are small, so
    the peak is what grows with the reads: 110 bytes a read here, where
    voting on int64 copies of every block took 502."""
    pool = read_sequences(reads_fastq).pool
    monkeypatch.setattr(strand, "_PARSE_CHUNK", 1024)
    batch, peak = _traced_peak(lambda: vote(pool))
    assert batch.counts["indices_observed"] == STRANDS
    assert peak < 200 * len(pool)
