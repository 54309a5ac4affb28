"""Strand assembly and parsing: primers, index region, payload region.

A strand is ``primer5 + index region + payload region + primer3``.  The index
and payload regions form one continuous jump-rotating stream whose rotating
context starts at the last nucleotide of the 5' primer, so the 5' junction
can never extend a homopolymer run beyond the code's bound.  The 3' junction
can add at most the leading run of the 3' primer to the data region's final
run; with the built-in primers (no internal repeats) the full default strand
stays within the default bound of 3.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import jr
from .errors import CapacityError, ConfigError, LayoutError, RangeError, StrandReject, require_int

__all__ = [
    "DEFAULT_PRIMER5",
    "DEFAULT_PRIMER3",
    "StrandLayout",
    "Strand",
    "StrandSet",
    "ParseBatch",
    "ReadPool",
    "assemble_strand",
    "assemble_many",
    "parse_strand",
    "parse_many",
]

# Fixed default primers: repeat-free (so junction runs stay short) and with no
# 8-mer equal to the reverse complement of any 8-mer across the pair.
DEFAULT_PRIMER5 = "GCTACAGTATGTCTGTGCGC"
DEFAULT_PRIMER3 = "ATGCAGTGTACGACGCGATAT"

REJECT_LENGTH = "length"
REJECT_PRIMER = "primer"
REJECT_CORRUPT = "corrupt"
REJECT_REASONS = (REJECT_LENGTH, REJECT_PRIMER, REJECT_CORRUPT)

# Reads parsed together in one pass; bounds the pass's temporaries to a few
# MiB at 141 nt.  Its accepted blocks are appended to the caller's output:
# int64 for parse_many, the narrowest unsigned type of a block value for vote;
# a run of reads that share a start, at most one chunk long, is one row and
# one weight.
_PARSE_CHUNK = 8192


def _head_run(seq: str) -> int:
    run = 0
    for ch in seq:
        if ch == seq[0]:
            run += 1
        else:
            break
    return run


def _pattern_lead_run(cfg: jr.JrConfig) -> int:
    """Longest possible homopolymer run at the start of an encoded stream."""
    if cfg.group_radices[0] == 3:
        return 0  # rotating start differs from the junction nucleotide
    run = 1
    for r in (cfg.group_radices * 2)[1:]:
        if r == 4:
            run += 1
        else:
            break
    return run


def _pattern_tail_run(cfg: jr.JrConfig) -> int:
    """Longest possible homopolymer run at the end of an encoded stream.

    A run ending at the last position extends backward only through direct
    positions, so it is bounded by the pattern's trailing radix-4 entries
    plus one (the run may start on any position kind).
    """
    run = 1
    for r in reversed(cfg.group_radices):
        if r == 4:
            run += 1
        else:
            break
    return run


@dataclass(frozen=True)
class StrandLayout:
    primer5: str = DEFAULT_PRIMER5
    primer3: str = DEFAULT_PRIMER3
    index_nt: int = 10
    payload_nt: int = 90

    @classmethod
    def from_dict(cls, d: dict) -> "StrandLayout":
        keys = {f.name for f in fields(cls)}
        if set(d) != keys:
            raise ConfigError(f"layout dict must have exactly the keys {sorted(keys)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def data_nt(self) -> int:
        return self.index_nt + self.payload_nt

    @property
    def total_nt(self) -> int:
        return len(self.primer5) + self.data_nt + len(self.primer3)

    def index_groups(self, cfg: jr.JrConfig) -> int:
        return self.index_nt // cfg.group_size

    def payload_groups(self, cfg: jr.JrConfig) -> int:
        return self.payload_nt // cfg.group_size

    def index_capacity(self, cfg: jr.JrConfig) -> int:
        return cfg.block_limit ** self.index_groups(cfg)

    def payload_bits(self, cfg: jr.JrConfig) -> int:
        return self.payload_groups(cfg) * cfg.bits_per_block

    def payload_bytes_len(self, cfg: jr.JrConfig) -> int:
        return (self.payload_bits(cfg) + 7) // 8

    def prev_init(self) -> str:
        """Rotating context preceding the data region."""
        return self.primer5[-1] if self.primer5 else "A"

    def validate(self, cfg: jr.JrConfig) -> None:
        require_int("index_nt", self.index_nt)
        require_int("payload_nt", self.payload_nt)
        if self.index_nt <= 0 or self.index_nt % cfg.group_size:
            raise ConfigError(f"index_nt {self.index_nt} is not a positive multiple of group size")
        if self.payload_nt <= 0 or self.payload_nt % cfg.group_size:
            raise ConfigError(
                f"payload_nt {self.payload_nt} is not a positive multiple of group size"
            )
        bound = cfg.jump_length + 1
        for name, p in (("primer5", self.primer5), ("primer3", self.primer3)):
            if not isinstance(p, str):
                raise LayoutError(f"{name} must be a string, got {p!r}")
            if any(ch not in jr.ALPHABET for ch in p):
                raise LayoutError(f"{name} contains characters outside ACGT")
            if p and jr.max_homopolymer_run(p) > bound:
                raise LayoutError(f"{name} homopolymer run exceeds {bound}")
        if self.primer5:
            tail = _head_run(self.primer5[::-1])
            if tail + _pattern_lead_run(cfg) > bound:
                raise LayoutError("primer5 tail run can extend a data run past the bound")
        if self.primer3:
            head = _head_run(self.primer3)
            # A leading run of 1 is irreducible; longer runs must leave slack.
            if head > 1 and head + _pattern_tail_run(cfg) > bound:
                raise LayoutError("primer3 head run can extend a data run past the bound")


DEFAULT_LAYOUT = StrandLayout()


@dataclass(frozen=True)
class Strand:
    index_value: int
    payload: bytes  # payload bits packed MSB-first, zero padding in the tail bits
    sequence: str


@dataclass(frozen=True, eq=False)
class StrandSet:
    """Assembled strands as arrays: row ``i`` is one strand.

    An integer item is a :class:`Strand`, built on access; a slice, index
    array or mask gives a ``StrandSet`` of those rows.
    """

    index_values: np.ndarray  # int64 (n,)
    payload_blocks: np.ndarray  # int64 (n, payload groups)
    rows: np.ndarray  # uint8 (n, total_nt): the ASCII strands, primers included
    bits_per_block: int

    def __len__(self) -> int:
        return int(self.index_values.shape[0])

    def __getitem__(self, which):
        try:
            i = operator.index(which)
        except TypeError:
            return StrandSet(self.index_values[which], self.payload_blocks[which],
                             self.rows[which], self.bits_per_block)
        return Strand(int(self.index_values[i]), self._packed[i].tobytes(),
                      self.rows[i].tobytes().decode("ascii"))

    def __iter__(self):
        for i, payload, row in zip(self.index_values.tolist(), self._packed, self.rows):
            yield Strand(i, payload.tobytes(), row.tobytes().decode("ascii"))

    @cached_property
    def _packed(self) -> np.ndarray:
        return jr.pack_block_rows(self.payload_blocks, self.bits_per_block)

    @property
    def pool(self) -> ReadPool:
        """The strands as a :class:`ReadPool` over ``rows``, without a copy."""
        n, width = self.rows.shape
        return ReadPool(self.rows.reshape(-1), np.arange(n, dtype=np.int64) * width,
                        np.full(n, width, np.int64))


@dataclass
class ParseBatch:
    """Accepted parses plus per-reason reject counters.

    From :func:`parse_many` the rows are in input order; from
    :func:`pjdna.channel.vote` the indices are unique and ascending and the
    blocks are each index's winners.
    """

    indices: np.ndarray  # int64
    # (n_accepted, payload groups) int64; vote narrows only its working copy
    payload_blocks: np.ndarray
    counts: dict

    def payload_bytes(self, cfg: jr.JrConfig) -> list[bytes]:
        if self.indices.size == 0:
            return []
        packed = jr.pack_block_rows(self.payload_blocks, cfg.bits_per_block)
        return [row.tobytes() for row in packed]


def _payload_to_blocks(payload: bytes, layout: StrandLayout, cfg: jr.JrConfig) -> np.ndarray:
    nbytes = layout.payload_bytes_len(cfg)
    if len(payload) != nbytes:
        raise RangeError(f"payload must be {nbytes} bytes, got {len(payload)}")
    nbits = layout.payload_bits(cfg)
    spare = nbytes * 8 - nbits
    if spare and payload[-1] & ((1 << spare) - 1):
        raise RangeError(f"the final {spare} padding bits of the payload must be zero")
    row = np.frombuffer(payload, np.uint8).reshape(1, -1)
    return jr.unpack_block_rows(row, layout.payload_groups(cfg), cfg.bits_per_block)[0]


def assemble_many(
    index_values: np.ndarray,
    payload_blocks: np.ndarray,
    layout: StrandLayout = DEFAULT_LAYOUT,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
) -> StrandSet:
    """Assemble one strand per row of ``payload_blocks`` into one
    :class:`StrandSet`; no :class:`Strand` is built."""
    layout.validate(cfg)
    index_values = np.asarray(index_values, np.int64)
    n = index_values.shape[0]
    cap = layout.index_capacity(cfg)
    if n and (index_values.min() < 0 or index_values.max() >= cap):
        raise CapacityError(f"index values must lie in [0, {cap})")
    if payload_blocks.min(initial=0) < 0 or payload_blocks.max(initial=0) >= cfg.block_limit:
        raise RangeError("payload block values outside the encodable range")
    idx_blocks = jr.to_digits(index_values, (cfg.block_limit,) * layout.index_groups(cfg))
    blocks = np.concatenate([idx_blocks, payload_blocks.astype(np.int64)], axis=1)
    prev0 = np.full(n, jr.ALPHABET.index(layout.prev_init()), np.uint8)
    codes = jr.encode_block_rows(blocks, cfg, prev0)
    n5, data_nt = len(layout.primer5), layout.data_nt
    rows = np.empty((n, layout.total_nt), np.uint8)
    rows[:, :n5] = np.frombuffer(layout.primer5.encode("ascii"), np.uint8)
    data = codes.tobytes().translate(jr._CODE_TRANSLATE)
    rows[:, n5 : n5 + data_nt] = np.frombuffer(data, np.uint8).reshape(codes.shape)
    rows[:, n5 + data_nt :] = np.frombuffer(layout.primer3.encode("ascii"), np.uint8)
    return StrandSet(index_values, np.asarray(payload_blocks, np.int64), rows, cfg.bits_per_block)


def assemble_strand(
    index_value: int,
    payload: bytes,
    layout: StrandLayout = DEFAULT_LAYOUT,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
) -> Strand:
    """Build the full strand carrying ``payload`` at tile ``index_value``."""
    layout.validate(cfg)
    cap = layout.index_capacity(cfg)
    if not 0 <= index_value < cap:
        raise CapacityError(f"index {index_value} outside [0, {cap})")
    blocks = _payload_to_blocks(payload, layout, cfg).reshape(1, -1)
    return assemble_many(np.array([index_value]), blocks, layout, cfg)[0]


@dataclass(frozen=True)
class ReadPool:
    """Reads held as one ASCII byte buffer.

    Read ``i`` is ``buf[starts[i] : starts[i] + lengths[i]]``; reads may lie
    anywhere in ``buf``, in any order, with bytes between them.  A repeated
    start is a repeated read: noiseless copies, the equal reads of a FASTQ
    run and equal adjacent strings share the bytes of their first copy, and
    parsing handles a run of them as one.  Equal reads at different starts
    are parsed one by one.
    """

    buf: np.ndarray  # uint8
    starts: np.ndarray  # int64
    lengths: np.ndarray  # int64

    @classmethod
    def from_strings(cls, seqs: Sequence[str]) -> "ReadPool":
        """Join ``seqs`` once, a string equal to the one before it sharing
        its start; each character outside ASCII becomes ``?``."""
        fresh = np.fromiter(itertools.chain([True], map(operator.ne, seqs[1:], seqs)),
                            bool, len(seqs))
        lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
        text = "".join(itertools.compress(seqs, fresh.tolist()))
        buf = np.frombuffer(text.encode("ascii", "replace"), np.uint8)
        return cls(buf, _run_starts(lengths, fresh), lengths)

    def __len__(self) -> int:
        return int(self.lengths.size)

    def rows(self, which) -> "ReadPool":
        """The reads ``which`` picks (indices, a mask or a slice), over the
        same buffer; repeated indices repeat a read without copying it."""
        return ReadPool(self.buf, self.starts[which], self.lengths[which])

    def to_strings(self) -> list[str]:
        """The reads as strings.  Decodes only the span of ``buf`` they cover,
        and a read repeated in a row (a noiseless copy) becomes one string."""
        starts = self.starts.tolist()
        ends = (self.starts + self.lengths).tolist()
        if not starts:
            return []
        lo = min(starts)
        text = self.buf[lo : max(ends)].tobytes().decode("latin-1")
        out, a0, b0 = [], -1, -1
        for a, b in zip(starts, ends):
            if a != a0 or b != b0:
                seq, a0, b0 = text[a - lo : b - lo], a, b
            out.append(seq)
        return out


def _run_starts(lengths: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """The starts of reads of ``lengths`` whose distinct reads, those
    flagged ``fresh``, lie end to end: a read not flagged starts where the
    last flagged read before it does."""
    distinct = lengths[fresh]
    return (np.cumsum(distinct) - distinct)[np.cumsum(fresh) - 1]


def parse_many(
    reads: ReadPool | Sequence[str],
    layout: StrandLayout = DEFAULT_LAYOUT,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    primer_tolerance: int = 0,
) -> ParseBatch:
    """Parse observed sequences in bulk.

    ``reads`` is a :class:`ReadPool` or a sequence of strings, which is
    joined into one first.  Rejects carry no payload: a read of the wrong
    length counts as "length", a primer Hamming distance above
    ``primer_tolerance`` as "primer", and a rotating violation /
    out-of-range block / bad character / an index past 63 bits as
    "corrupt".  A negative ``primer_tolerance`` is a :class:`ConfigError`.
    A read that shares the start of the read before it is parsed once with
    it, and the accepted rows are repeated back, so there is one row per
    accepted read, in input order.
    """
    indices, blocks, weights, counts = _parse_reads(
        _pools(reads), layout, cfg, primer_tolerance, np.int64)
    weights = np.concatenate(weights)
    return ParseBatch(np.repeat(np.concatenate(indices), weights),
                      np.repeat(np.concatenate(blocks), weights, axis=0), counts)


def _pools(reads: ReadPool | Iterable[ReadPool] | Iterable[str]) -> Iterable[ReadPool]:
    """``reads`` as pools: a pool alone, pools as they come, or strings
    joined into one pool."""
    if isinstance(reads, ReadPool):
        return [reads]
    reads = iter(reads)
    first = next(reads, None)
    if isinstance(first, ReadPool):
        return itertools.chain([first], reads)
    return [ReadPool.from_strings([] if first is None else [first, *reads])]


def _parse_reads(
    pools: Iterable[ReadPool],
    layout: StrandLayout,
    cfg: jr.JrConfig,
    primer_tolerance: int,
    dtype,
) -> tuple[list, list, list, dict]:
    """The parse loop of :func:`parse_many` and :func:`pjdna.channel.vote`:
    lists of the accepted distinct reads' int64 indices, of their payload
    blocks as ``dtype`` and of their weights, one entry per parse chunk
    after an empty first one, and the counters.  Each pool is parsed
    ``_PARSE_CHUNK`` reads at a time before the next is drawn.  A run of
    reads that share a start within a chunk is parsed once, as its first
    read, whose weight is the run's length; the counters count every read.
    Runs are found by comparing starts, so only a run's first row is
    gathered and no row is compared with another.  The noiseless channel,
    the file reader and :meth:`ReadPool.from_strings` give equal adjacent
    reads one start; equal reads at different starts, such as unmutated
    copies in a noisy in-memory pool, are parsed one by one, to the same
    rows and counters."""
    layout.validate(cfg)
    require_int("primer_tolerance", primer_tolerance, 0)
    total = layout.total_nt
    counts = dict.fromkeys(
        ("reads_total", "accepted", "reject_length", "reject_primer", "reject_corrupt"), 0)
    weight_type = np.min_scalar_type(_PARSE_CHUNK)
    indices = [np.empty(0, np.int64)]
    blocks = [np.empty((0, layout.payload_groups(cfg)), dtype)]
    weights = [np.empty(0, weight_type)]
    for pool in pools:
        starts = pool.starts[pool.lengths == total]
        counts["reads_total"] += len(pool)
        counts["reject_length"] += len(pool) - starts.size
        if starts.size:
            records = sliding_window_view(pool.buf, total)
            for k in range(0, starts.size, _PARSE_CHUNK):
                chunk = starts[k : k + _PARSE_CHUNK]
                heads = np.flatnonzero(np.diff(chunk, prepend=-1))  # starts are non-negative
                weight = np.diff(heads, append=chunk.size)
                idx, payload, weight = _parse_rows(
                    records[chunk[heads]], weight, layout, cfg, primer_tolerance, counts)
                indices.append(idx)
                blocks.append(payload.astype(dtype, copy=False))
                weights.append(weight.astype(weight_type))
    return indices, blocks, weights, counts


def _parse_rows(
    rows: np.ndarray,
    weight: np.ndarray,
    layout: StrandLayout,
    cfg: jr.JrConfig,
    primer_tolerance: int,
    counts: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a (n, total_nt) matrix of ASCII reads, row ``i`` standing for
    ``weight[i]`` reads; adds to ``counts`` and returns the accepted
    (indices, payload blocks, weights)."""
    total = layout.total_nt
    n5, n3 = len(layout.primer5), len(layout.primer3)

    # primers are ACGT, so comparing bytes counts what comparing codes would
    keep = np.ones(rows.shape[0], bool)
    if n5:
        p5 = np.frombuffer(layout.primer5.encode("ascii"), np.uint8)
        keep &= (rows[:, :n5] != p5).sum(axis=1) <= primer_tolerance
    if n3:
        p3 = np.frombuffer(layout.primer3.encode("ascii"), np.uint8)
        keep &= (rows[:, total - n3 :] != p3).sum(axis=1) <= primer_tolerance
    counts["reject_primer"] += int(weight[~keep].sum())
    weight = weight[keep]

    # a character outside ACGT has code 255
    codes = jr.ascii_codes(rows[keep, n5 : n5 + layout.data_nt])
    prev0 = np.full(codes.shape[0], jr.ALPHABET.index(layout.prev_init()), np.uint8)
    blocks = jr.decode_code_rows(codes, cfg, prev0)
    ok = ~(codes == 255).any(axis=1) & (blocks < cfg.block_limit).all(axis=1)
    n_idx = layout.index_groups(cfg)
    excess = n_idx * cfg.bits_per_block - 63
    if excess > 0:  # an int64 index holds 63 bits, so a read setting a higher one is corrupt
        index_bits = jr.block_rows_to_bits(blocks[:, :n_idx], cfg.bits_per_block)
        ok &= ~index_bits[:, :excess].any(axis=1)
    blocks = blocks[ok]
    counts["reject_corrupt"] += int(weight[~ok].sum())
    weight = weight[ok]
    counts["accepted"] += int(weight.sum())
    indices = jr.from_digits(blocks[:, :n_idx], (cfg.block_limit,) * n_idx)
    return indices, blocks[:, n_idx:], weight


def parse_strand(
    seq: str,
    layout: StrandLayout = DEFAULT_LAYOUT,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    primer_tolerance: int = 0,
) -> tuple[int, bytes]:
    """Parse one observed sequence to ``(index_value, payload)`` or raise
    :class:`StrandReject` with a machine-readable reason."""
    batch = parse_many([seq], layout, cfg, primer_tolerance)
    if batch.counts["reject_length"]:
        raise StrandReject(REJECT_LENGTH, f"expected {layout.total_nt} nt, got {len(seq)}")
    if batch.counts["reject_primer"]:
        raise StrandReject(REJECT_PRIMER, f"primer Hamming distance exceeds {primer_tolerance}")
    if batch.counts["reject_corrupt"]:
        raise StrandReject(REJECT_CORRUPT, "rotating violation or out-of-range block")
    payload = batch.payload_bytes(cfg)[0]
    return int(batch.indices[0]), payload
