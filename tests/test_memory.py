"""Peak memory of the decode read path, traced with ``tracemalloc`` (numpy
reports its buffers to it) on a generated noiseless FASTQ of 4.8 MiB, whose
reads come in runs of 8 equal reads, and on noisy reads through
``aging95C``; and the page faults of a warm loss sweep."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import pjdna
from pjdna import jr, seqio, strand
from pjdna.channel import ChannelProfile, corrupt_reads, preset, vote
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
    temporaries, not the file: 0.62 of the file's size here, each run of 8
    equal reads held once.  Classing every byte and holding every read took
    0.92, holding the file's bytes with per-line bounds 1.75, and whole-file
    line and byte-class arrays 2.44."""
    size = reads_fastq.stat().st_size
    result, peak = _traced_peak(lambda: read_sequences(reads_fastq))
    assert len(result.pool) == STRANDS * COVERAGE
    assert peak < 0.8 * size


def test_vote_grows_by_narrow_blocks(reads_fastq, monkeypatch):
    """With parse chunks of 1,024 reads the chunk's temporaries are small, so
    the peak is what grows with the reads: 29 bytes a read here, where
    gathering every read of a run took 33, parsing and keeping every read
    of a run 92 and voting on int64 copies of every block 502."""
    pool = read_sequences(reads_fastq).pool
    monkeypatch.setattr(strand, "_PARSE_CHUNK", 1024)
    batch, peak = _traced_peak(lambda: vote(pool))
    assert batch.counts["indices_observed"] == STRANDS
    assert peak < 45 * len(pool)


def test_vote_holds_its_blocks_once(reads_fastq, monkeypatch):
    """The parse chunks' blocks (36 bytes a distinct read here) move chunk
    by chunk into their sorted rows, beside one int64 rank a row and no
    index array: 29 bytes a read with parse chunks of 256 reads, each run
    of 8 equal reads being parsed and kept once.  Keeping every read took
    88; concatenating the chunks and sorting the concatenation, 99.8."""
    pool = read_sequences(reads_fastq).pool
    monkeypatch.setattr(strand, "_PARSE_CHUNK", 256)
    batch, peak = _traced_peak(lambda: vote(pool))
    assert batch.counts["indices_observed"] == STRANDS
    assert peak < 45 * len(pool)


def test_vote_holds_the_blocks_of_shuffled_reads_once(reads_fastq, monkeypatch):
    """Shuffled, the reads have no runs to collapse, so every read is kept:
    89 bytes a read with parse chunks of 256 reads, the bound that held
    before runs were collapsed."""
    pool = read_sequences(reads_fastq).pool
    pool = pool.rows(np.random.default_rng(1).permutation(len(pool)))
    monkeypatch.setattr(strand, "_PARSE_CHUNK", 256)
    batch, peak = _traced_peak(lambda: vote(pool))
    assert batch.counts["indices_observed"] == STRANDS
    assert peak < 92 * len(pool)


def test_voting_off_the_stream_holds_one_window(reads_fastq, monkeypatch):
    """Voting on the windows of a :class:`ReadStream` as they are read holds
    one window and what the vote keeps: with 64 KiB windows and parse chunks
    of 1,024 reads, 0.10 of the file's size here (30 bytes a read), where
    classing every byte and gathering every read took 0.17, keeping every
    read of a run 0.30 and reading the file first and voting on its pool
    1.75."""
    monkeypatch.setattr(seqio, "_SCAN_BYTES", 1 << 16)
    monkeypatch.setattr(strand, "_PARSE_CHUNK", 1024)
    size = reads_fastq.stat().st_size
    batch, peak = _traced_peak(lambda: vote(ReadStream(reads_fastq)))
    assert batch.counts["reads_total"] == STRANDS * COVERAGE
    assert batch.counts["indices_observed"] == STRANDS
    assert peak < 0.15 * size


def test_noisy_vote_settles_one_column_at_a_time(monkeypatch):
    """Through ``aging95C`` 30 % of the reads are rejected and most indices
    are contested.  Settling one column at a time, over only the groups
    whose rows disagree in it, peaks at 70 bytes a read here with parse
    chunks of 1,024 reads.  Equal reads of this in-memory pool do not share
    a start, so each is parsed and kept; comparing every gathered row with
    the one before it, to parse a run of equal reads once, took 54, and
    building keys, counts and a lexsort order over every (row, column) pair
    of every contested group at once 463."""
    rng = np.random.default_rng(5)
    blocks = rng.integers(0, jr.DEFAULT_CONFIG.block_limit, (STRANDS, 18))
    pool = corrupt_reads(assemble_many(np.arange(STRANDS), blocks),
                         preset("aging95C", seed=1)).pool
    monkeypatch.setattr(strand, "_PARSE_CHUNK", 1024)
    batch, peak = _traced_peak(lambda: vote(pool))
    assert batch.counts["reject_primer"] + batch.counts["reject_corrupt"] > 0.25 * len(pool)
    assert peak < 100 * len(pool)


def test_writing_fastq_copies_no_pool_buffer(tmp_path):
    """``write_fastq`` gathers each chunk's reads from the pool's buffer, so
    its peak is one chunk's byte matrix and what goes with it: 0.22 of the
    4.3 MiB buffer of these noisy reads, where a copy of the buffer alone
    would be 1."""
    rng = np.random.default_rng(5)
    blocks = rng.integers(0, jr.DEFAULT_CONFIG.block_limit, (4000, 18))
    reads = corrupt_reads(assemble_many(np.arange(4000), blocks),
                          ChannelProfile(sub_p=0.01, ins_p=0.003, del_p=0.003, coverage_mean=8))
    assert len(np.unique(reads.pool.lengths)) > 1  # chunks go through the compress
    count, peak = _traced_peak(
        lambda: write_fastq(tmp_path / "r.fastq", reads.pool, reads.origin_ids))
    assert count == len(reads)
    assert peak < 0.4 * reads.pool.buf.nbytes


_WARM_SWEEP = """
import resource
import numpy as np
from pjdna.sweep import loss_sweep

yy, xx = np.mgrid[0:128, 0:128]
img = np.clip(128 + 80 * np.sin(xx / 5.0) * np.cos(yy / 7.0), 0, 255).astype(np.uint8)
loss_sweep(img, [0.5, 0.9], [1], run_inpaint=True)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
loss_sweep(img, [0.5, 0.9], [1], run_inpaint=True)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_warm_sweep_does_not_fault_its_fields_in_again():
    """A sweep's cells fill and score in one scratch per worker, so a warm
    sweep faults in little more than that scratch and the reference's
    statistics.  The sweep runs in a fresh interpreter whose allocator
    hands every freed block of 64 KiB or more back to the system: by
    default glibc raises that threshold as blocks are freed, so whether a
    freed field is handed back, and faulted in again by the next cell,
    depends on the heap's layout (the old per-cell allocation took 338 to
    1,259 faults here as the script's text changed).  With the threshold
    fixed, this 128x128 sweep of 2 cells with fill takes 397 faults (347 to
    561 as the script's text changes), where allocating every cell's fields
    afresh took 4,084 (3,290 to 4,563)."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(pjdna.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": "65536",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _WARM_SWEEP], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    assert int(child.stdout) < 1500
