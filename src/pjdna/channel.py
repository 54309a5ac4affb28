"""Storage channel simulation: dropout, read errors, replication, consensus.

Randomness is partitioned per strand: every stream seeds
``numpy.random.default_rng`` with a tuple (seed, purpose, strand_id), and a
strand's replicates are consecutive rows of its one stream.  A read
therefore depends only on (seed, strand, replicate), not on coverage,
batching or iteration order, so serial and parallel runs agree and a rerun
with the same profile is byte-identical.  ``CHANNEL_STREAM`` versions this
layout of the stream; ``simulate`` records it in its sidecar.

Presets mirror stressors at defensible magnitudes.  The "aging95C" and
"xray" rate pairs are stand-in estimates chosen for this toolkit, not
measured channel parameters, and carry ``rate_provenance="artifact-estimate"``
so downstream metadata can say so.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import jr
from .errors import ConfigError
from .strand import (
    DEFAULT_LAYOUT,
    ParseBatch,
    ReadPool,
    Strand,
    StrandLayout,
    StrandSet,
    parse_many,
)

__all__ = [
    "CHANNEL_STREAM",
    "ChannelProfile",
    "ReadSet",
    "preset",
    "PRESET_NAMES",
    "check_drop_rate",
    "keep_mask",
    "drop_strands",
    "corrupt_reads",
    "vote",
    "consensus",
]

# Version of the read-corruption random stream.  1: one generator per
# (strand, replicate); 2: one generator per strand, replicates as rows.
CHANNEL_STREAM = 2

# Reads mutated together in one numpy pass; bounds the pass's draws to
# about 1.4 MiB at 141 nt.
_CHUNK_READS = 256


@dataclass(frozen=True)
class ChannelProfile:
    dropout_p: float = 0.0
    sub_p: float = 0.0
    ins_p: float = 0.0
    del_p: float = 0.0
    coverage_mean: float = 10.0
    coverage_model: str = "fixed"  # "fixed" | "poisson"
    seed: int = 0
    name: str = "custom"
    rate_provenance: str = "user"

    def __post_init__(self):
        for field_name in ("dropout_p", "sub_p", "ins_p", "del_p", "coverage_mean"):
            v = getattr(self, field_name)
            if not isinstance(v, numbers.Real):
                raise ConfigError(f"{field_name} must be a number, got {v!r}")
        if not isinstance(self.seed, numbers.Integral):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for field_name in ("dropout_p", "sub_p", "ins_p", "del_p"):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{field_name} must lie in [0, 1], got {v}")
        if self.coverage_mean < 0:
            raise ConfigError("coverage_mean must be >= 0")
        if self.coverage_model not in ("fixed", "poisson"):
            raise ConfigError(f"unknown coverage model {self.coverage_model!r}")
        if self.coverage_model == "fixed" and self.coverage_mean != int(self.coverage_mean):
            raise ConfigError("fixed coverage needs an integer coverage_mean")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelProfile":
        if not isinstance(d, dict):
            raise ConfigError("profile must be a JSON object")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"profile has unknown keys: {sorted(unknown)}")
        return cls(**d)

    @property
    def noiseless(self) -> bool:
        return self.sub_p == 0.0 and self.ins_p == 0.0 and self.del_p == 0.0


_PRESETS = {
    "clean": ChannelProfile(name="clean", rate_provenance="preset"),
    "loss10": ChannelProfile(dropout_p=0.10, name="loss10", rate_provenance="preset"),
    "aging95C": ChannelProfile(
        dropout_p=0.15, sub_p=0.005, name="aging95C", rate_provenance="artifact-estimate"
    ),
    "xray": ChannelProfile(
        dropout_p=0.05, sub_p=0.02, name="xray", rate_provenance="artifact-estimate"
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, seed: int = 0) -> ChannelProfile:
    try:
        base = _PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    return replace(base, seed=seed)


@dataclass
class ReadSet:
    """Observed reads as one pool, plus per-read origin ids (diagnostics only).

    Origins exist so simulations can be audited; nothing on the decode path
    accepts them.  ``sequences`` and ``origins`` are lists built on first use.
    """

    pool: ReadPool
    origin_ids: np.ndarray  # int64: the strand each read came from

    @cached_property
    def sequences(self) -> list[str]:
        return self.pool.to_strings()

    @cached_property
    def origins(self) -> list[int]:
        return self.origin_ids.tolist()

    def __len__(self) -> int:
        return len(self.pool)


def _seq_of(item) -> str:
    return item.sequence if isinstance(item, Strand) else item


def check_drop_rate(p: float) -> None:
    """Raise :class:`ConfigError` unless ``p`` lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"drop probability must lie in [0, 1], got {p}")


def keep_mask(count: int, p: float, seed) -> np.ndarray:
    """Survival flags of ``count`` elements, each dropped with probability ``p``.

    ``seed`` is a non-negative integer or a tuple of them (Python or NumPy);
    position ``j`` survives when the ``j``-th uniform of
    ``default_rng(seed + (0,))`` is at least ``p``, so survivor sets at
    increasing ``p`` are nested.
    """
    check_drop_rate(p)
    try:
        entropy = (operator.index(seed),)
    except TypeError:
        entropy = tuple(map(operator.index, seed))
    if min(entropy, default=0) < 0:
        raise ConfigError(f"seed must be non-negative, got {seed!r}")
    return np.random.default_rng(entropy + (0,)).random(count) >= p


def drop_strands(items: StrandSet | Sequence, p: float, seed) -> StrandSet | list:
    """Remove each element independently with probability ``p``.

    ``seed`` may be an int or a tuple of ints; the survivors are those
    :func:`keep_mask` flags, as a :class:`~pjdna.strand.StrandSet` of its
    rows when ``items`` is one and as a list otherwise.
    """
    keep = keep_mask(len(items), p, seed)
    if isinstance(items, StrandSet):
        return items[keep]
    return [x for x, k in zip(items, keep.tolist()) if k]


def corrupt_reads(
    strands: ReadPool | StrandSet | Sequence, profile: ChannelProfile
) -> ReadSet:
    """Replicate and corrupt surviving strands into a read pool.

    ``strands`` is a :class:`~pjdna.strand.ReadPool`, a
    :class:`~pjdna.strand.StrandSet` (read through its ``pool``) or a
    sequence of strings or :class:`~pjdna.strand.Strand`.  Per strand,
    coverage ``k`` is drawn (fixed or Poisson), then each replicate runs one
    left-to-right pass where every position is independently deleted, else
    followed by a uniform random insertion, else substituted uniformly over
    the three other nucleotides (priority in that order).  Strand ``sid`` draws
    ``random((k, 5, n))`` from ``default_rng((seed, 2, sid))``: per replicate
    the delete, insert and substitute uniforms, the substitution shift and
    the inserted base; a strand character outside ACGT comes out as N.
    Without noise the reads point at the strands' own bytes, each repeated
    ``k`` times.
    """
    if isinstance(strands, StrandSet):
        strands = strands.pool
    elif not isinstance(strands, ReadPool):
        strands = ReadPool.from_strings([_seq_of(item) for item in strands])
    seed = profile.seed
    if profile.coverage_model == "fixed":
        cover = np.full(len(strands), int(profile.coverage_mean), np.int64)
    else:
        cover = np.fromiter(
            (np.random.default_rng((seed, 1, sid)).poisson(profile.coverage_mean)
             for sid in range(len(strands))),
            np.int64,
            len(strands),
        )
    origin_ids = np.repeat(np.arange(len(strands)), cover)
    if profile.noiseless:
        return ReadSet(strands.rows(origin_ids), origin_ids)
    text, lengths = _mutate(strands, origin_ids, profile)
    pool = ReadPool(np.frombuffer(text, np.uint8), np.cumsum(lengths) - lengths, lengths)
    return ReadSet(pool, origin_ids)


def _mutate(
    strands: ReadPool, origin_ids: np.ndarray, profile: ChannelProfile
) -> tuple[bytes, np.ndarray]:
    """Every read's ASCII bytes, concatenated, and each read's length.

    Reads are mutated ``_CHUNK_READS`` at a time, as nucleotide codes.  A
    chunk's strands are padded to its longest and the padding counts as
    deleted.  Only planes whose rate is non-zero are compared, and a chunk
    without an insertion is one gather of its kept codes.  Each chunk's
    codes become ASCII with one ``bytes.translate``, so no temporary spans
    the whole result.
    """
    seed, del_p, ins_p, sub_p = profile.seed, profile.del_p, profile.ins_p, profile.sub_p
    chunk_rows = min(_CHUNK_READS, origin_ids.size)
    scratch = np.empty(chunk_rows * 5 * int(strands.lengths.max(initial=0)))
    parts: list[bytes] = []
    lengths = [np.empty(0, np.int64)]
    rng, current = None, -1
    for a in range(0, origin_ids.size, _CHUNK_READS):
        sids, reps = np.unique(origin_ids[a : a + _CHUNK_READS], return_counts=True)
        rows = int(reps.sum())
        lens = strands.lengths[sids]
        width = int(lens.max())
        u = scratch[: rows * 5 * width].reshape(rows, 5, width)
        row = 0
        for sid, take, n in zip(sids.tolist(), reps.tolist(), lens.tolist()):
            # consecutive draws continue the stream, so a strand split
            # between chunks gets the rows one random((k, 5, n)) would give
            if sid != current:
                rng, current = np.random.default_rng((seed, 2, sid)), sid
            if n == width:
                rng.random(out=u[row : row + take])
            else:
                u[row : row + take, :, :n] = rng.random((take, 5, n))
            row += take

        at = strands.starts[sids, None] + np.arange(width)
        if lens.min() == width:
            keep = None  # every position is inside its strand
            codes = jr.ascii_codes(strands.buf[at])
        else:
            inside = np.arange(width) < lens[:, None]
            codes = np.zeros(at.shape, np.uint8)
            codes[inside] = jr.ascii_codes(strands.buf[at[inside]])
            keep = np.repeat(inside, reps, axis=0)
        codes = np.repeat(codes, reps, axis=0)

        if del_p:
            kept = u[:, 0] >= del_p
            keep = kept if keep is None else keep & kept
        ins = None
        if ins_p:
            ins = u[:, 1] < ins_p
            if keep is not None:
                ins &= keep
        if sub_p:
            sub = u[:, 2] < sub_p
            if keep is not None:
                sub &= keep
            if ins is not None:
                sub &= ~ins
            r, c = np.nonzero(sub)
            codes[r, c] = (codes[r, c] + 1 + (3 * u[r, 3, c]).astype(np.uint8)) % 4

        if ins is not None and ins.any():
            # each position gives its kept base, then its inserted one
            pair = np.empty((rows, width, 2), np.uint8)
            pair[:, :, 0] = codes
            pair[:, :, 1][ins] = (4 * u[:, 4][ins]).astype(np.uint8)
            emit = np.empty(pair.shape, bool)
            emit[:, :, 0] = True if keep is None else keep
            emit[:, :, 1] = ins
            out = pair[emit]
            lengths.append(emit.sum(axis=(1, 2)))
        elif keep is None:
            out = codes
            lengths.append(np.full(rows, width, np.int64))
        else:
            out = codes[keep]
            lengths.append(keep.sum(axis=1))
        parts.append(out.tobytes().translate(jr._CODE_TRANSLATE))
    return b"".join(parts), np.concatenate(lengths)


def vote(
    reads: ReadPool | Iterable[str],
    layout: StrandLayout = DEFAULT_LAYOUT,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    primer_tolerance: int = 0,
) -> ParseBatch:
    """Parse raw reads and settle each observed index by plurality vote.

    ``reads`` is a :class:`~pjdna.strand.ReadPool` or an iterable of
    strings.  Reads are parsed individually; accepted parses group by index
    and each payload block settles by plurality vote, ties to the smallest
    value.  Returns one row per observed index, indices ascending, with
    counters for every rejection reason and ``indices_observed``.
    """
    if not isinstance(reads, ReadPool):
        reads = list(reads)
    batch = parse_many(reads, layout, cfg, primer_tolerance)
    order = np.argsort(batch.indices, kind="stable")
    idx_sorted = batch.indices[order]
    blocks_sorted = batch.payload_blocks[order]
    starts = np.diff(idx_sorted, prepend=-1) != 0  # indices are non-negative
    heads = np.flatnonzero(starts)
    group = np.cumsum(starts) - 1
    winners = blocks_sorted[heads]
    # only groups where some read differs from the group's first read vote
    differs = (blocks_sorted != winners[group]).any(axis=1)
    contested = np.unique(group[differs])
    if contested.size:
        winners[contested] = _column_modes(blocks_sorted, group, contested)
    counts = {**batch.counts, "indices_observed": int(heads.size)}
    return ParseBatch(idx_sorted[heads], winners, counts)


def consensus(
    sequences: ReadPool | Iterable[str],
    layout: StrandLayout = DEFAULT_LAYOUT,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    primer_tolerance: int = 0,
) -> tuple[list[tuple[int, bytes]], dict]:
    """:func:`vote` as (index, packed payload) pairs sorted by index, plus
    its counters."""
    batch = vote(sequences, layout, cfg, primer_tolerance)
    return list(zip(batch.indices.tolist(), batch.payload_bytes(cfg))), batch.counts


def _column_modes(blocks: np.ndarray, group: np.ndarray, voters: np.ndarray) -> np.ndarray:
    """Per-column plurality of the rows of each group in ``voters`` (sorted),
    ties to the smallest value: one row of modes per voting group."""
    rows = np.isin(group, voters)
    rank = np.searchsorted(voters, group[rows])
    n_cols = blocks.shape[1]
    vals = blocks[rows]
    span = int(vals.max()) + 1
    segment = rank[:, None] * n_cols + np.arange(n_cols)
    keys, count = np.unique((segment * span + vals).ravel(), return_counts=True)
    seg = keys // span
    # by segment, then most votes, then smallest value
    best = np.lexsort((keys, -count, seg))
    first = np.r_[True, seg[best][1:] != seg[best][:-1]]
    return (keys[best][first] % span).reshape(voters.size, n_cols)
