"""Storage channel simulation: dropout, read errors, replication, consensus.

Read randomness is partitioned per strand: a strand's reads come from
``numpy.random.default_rng((seed, 2, strand_id))``, its replicates as
consecutive rows of that one stream, and Poisson coverages from one draw of
``default_rng((seed, 1))`` in strand order.  A read therefore depends only
on (seed, strand, replicate), not on coverage, batching or iteration order,
so serial and parallel runs agree and a rerun with the same profile is
byte-identical.  The streams are exactly ``default_rng``'s, but
:func:`_streams` seeds all of a run's strands in one pass: it runs NumPy's
``SeedSequence`` hash over every strand id at once as uint32 array
arithmetic and hands each row of the result to ``PCG64``.  Each read
position takes one uniform, and fixed cut points of [0, 1) turn it into a
deletion, an insertion of one of four bases, a substitution by one of three
shifts, or nothing.  ``CHANNEL_STREAM`` versions this layout of the stream;
``simulate`` records it in its sidecar.

Presets mirror stressors at defensible magnitudes.  The "aging95C" and
"xray" rate pairs are stand-in estimates chosen for this toolkit, not
measured channel parameters, and carry ``rate_provenance="artifact-estimate"``
so downstream metadata can say so.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import jr
from .errors import ConfigError, RangeError
from .strand import (
    DEFAULT_LAYOUT,
    ParseBatch,
    ReadPool,
    StrandLayout,
    StrandSet,
    _parse_reads,
    _pools,
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
# (strand, replicate); 2: one generator per strand, replicates as rows of
# five uniforms per position, Poisson coverage from one generator per
# strand; 3: one uniform per position placed among ``_cut_points``, Poisson
# coverage from one generator for all strands.
CHANNEL_STREAM = 3

# Reads mutated together in one numpy pass; bounds the pass's draws to
# about 0.3 MiB at 141 nt.
_CHUNK_READS = 256


# Largest coverage_mean, far inside what int64 and the Poisson draw hold.
_MAX_COVERAGE = 10**6

# NumPy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, the running constants of its entropy hash (A) and of its
# output hash (B), and the multipliers that mix two pool words.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


@dataclass(frozen=True)
class ChannelProfile:
    """The rates lie in [0, 1], ``coverage_mean`` in [0, 10**6] (whole for
    fixed coverage) and ``seed`` is a non-negative integer; a bool, such as
    JSON ``true``, is neither a number nor an integer here."""

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
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise ConfigError(f"{field_name} must be a number, got {v!r}")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for field_name in ("dropout_p", "sub_p", "ins_p", "del_p"):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{field_name} must lie in [0, 1], got {v}")
        if not 0 <= self.coverage_mean <= _MAX_COVERAGE:  # NaN fails too
            raise ConfigError(f"coverage_mean must lie in [0, {_MAX_COVERAGE}], "
                              f"got {self.coverage_mean}")
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


def check_drop_rate(p: float) -> None:
    """Raise :class:`ConfigError` unless ``p`` lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"drop probability must lie in [0, 1], got {p}")


def _streams(head: tuple, ids, tail: tuple = ()) -> Iterator:
    """The generator ``np.random.default_rng(head + (id,) + tail)`` of each
    of ``ids``, in order, each built only when it is reached.

    ``head`` and ``tail`` hold non-negative integers and each id lies in
    [0, 2**32), else :class:`RangeError`.  All the seed states are hashed
    up front in one pass, so only the (len(ids), 4) uint64 states are held,
    and each generator is ``PCG64`` started from its row, with no
    ``SeedSequence`` built per stream.
    """
    from numpy.random import PCG64, Generator  # imported on use: ``import pjdna`` stays light

    states = _seed_states(head, ids, tail)
    fixed = _fixed_seed_sequence()
    return (Generator(PCG64(fixed(row))) for row in states)


@cache
def _fixed_seed_sequence() -> type:
    """A seed sequence whose ``generate_state`` returns the state it holds,
    which is what ``PCG64`` asks of one."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeedSequence(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return FixedSeedSequence


def _seed_states(head: tuple, ids, tail: tuple) -> np.ndarray:
    """``SeedSequence(head + (id,) + tail).generate_state(4, np.uint64)`` of
    every id as one (len(ids), 4) uint64 array.

    The hash runs once for all ids: a word that depends on the id is a
    uint32 array over the ids, whose arithmetic wraps as NumPy's does, and
    a word that does not (or the id of a single stream) is a Python int
    masked to 32 bits, which costs far less than an array operation.
    """
    ids = np.asarray(ids).reshape(-1)
    if ids.size and not (0 <= ids.min() and ids.max() <= _WORD):
        raise RangeError(f"stream ids must lie in [0, 2**32), got {ids.min()} to {ids.max()}")
    sid = int(ids[0]) if ids.size == 1 else ids.astype(np.uint32)
    words = [*_entropy_words(head), sid, *_entropy_words(tail)]
    words += [0] * (_POOL_WORDS - len(words))  # a short entropy hashes zeros into the pool

    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        x = (x * _MIX_L & _WORD) - (y * _MIX_R & _WORD) & _WORD
        return x ^ x >> 16

    pool = [hashmix(word) for word in words[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))

    # 8 uint32 words cycling over the pool, read as 4 little-endian uint64
    out = _hashmix(_INIT_B, _MULT_B)
    state = np.empty((ids.size, 2 * _POOL_WORDS), "<u4")
    for k in range(2 * _POOL_WORDS):
        state[:, k] = out(pool[k % _POOL_WORDS])
    return state.view("<u8").astype(np.uint64)


def _hashmix(const: int, mult: int):
    """NumPy's ``hashmix`` of a uint32 array or a Python int; each call
    advances its running constant, a Python int, so no NumPy scalar
    arithmetic can overflow."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _WORD
        value = value * const & _WORD
        return value ^ value >> 16

    return hashmix


def _entropy_words(values: tuple) -> list[int]:
    """The uint32 words ``SeedSequence`` makes of non-negative integers:
    each value's words, least significant first, and one word for 0."""
    words = []
    for v in map(operator.index, values):
        words.append(v & _WORD)
        while v > _WORD:
            v >>= 32
            words.append(v & _WORD)
    return words


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
    return next(_streams(entropy, [0])).random(count) >= p


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
    strands: ReadPool | StrandSet | Sequence[str], profile: ChannelProfile
) -> ReadSet:
    """Replicate and corrupt surviving strands into a read pool.

    ``strands`` is a :class:`~pjdna.strand.ReadPool`, a
    :class:`~pjdna.strand.StrandSet` (read through its ``pool``) or a
    sequence of strings.  Per strand, coverage ``k`` is fixed, or the
    ``sid``-th of ``poisson(mean, count)`` from ``default_rng((seed, 1))``.
    Each replicate then runs one left-to-right pass where every position is
    independently deleted, else followed by a uniform random insertion, else
    substituted uniformly over the three other nucleotides (priority in that
    order).  Strand ``sid`` draws ``random((k, n))`` from
    ``default_rng((seed, 2, sid))``, one uniform per position of each
    replicate, and :func:`_cut_points` decides its fate; a strand character
    outside ACGT comes out as N, substituted or not.  Without noise the reads
    point at the strands' own bytes, each repeated ``k`` times.
    """
    if isinstance(strands, StrandSet):
        strands = strands.pool
    elif not isinstance(strands, ReadPool):
        strands = ReadPool.from_strings(strands)
    seed = profile.seed
    if profile.coverage_model == "fixed":
        cover = np.full(len(strands), int(profile.coverage_mean), np.int64)
    else:
        cover = next(_streams((seed,), [1])).poisson(profile.coverage_mean, len(strands))
    origin_ids = np.repeat(np.arange(len(strands)), cover)
    if profile.noiseless:
        return ReadSet(strands.rows(origin_ids), origin_ids)
    text, lengths = _mutate(strands, origin_ids, profile)
    pool = ReadPool(np.frombuffer(text, np.uint8), np.cumsum(lengths) - lengths, lengths)
    return ReadSet(pool, origin_ids)


def _cut_points(profile: ChannelProfile) -> np.ndarray:
    """The eight ascending ends of a read position's fates in [0, 1].

    A position whose uniform ``u`` has ``j`` cut points at or below it is
    deleted for ``j == 0``, kept and followed by the inserted base ``j - 1``
    for ``j`` in 1..4, substituted with shift ``j - 4`` for ``j`` in 5..7,
    and kept for ``j == 8``.  The delete, insert and substitute spans are
    ``d``, ``(1 - d) i`` and ``(1 - d)(1 - i) s`` long, each split into
    equal parts; a rate of 1 ends its span at exactly 1.
    """
    d, i, s = profile.del_p, profile.ins_p, profile.sub_p
    ins_end = 1.0 if i == 1 else d + (1 - d) * i
    sub_end = 1.0 if s == 1 else ins_end + (1 - d) * (1 - i) * s
    cuts = np.concatenate((np.linspace(d, ins_end, 5), np.linspace(ins_end, sub_end, 4)[1:]))
    return np.minimum(cuts, 1.0)


def _mutate(
    strands: ReadPool, origin_ids: np.ndarray, profile: ChannelProfile
) -> tuple[bytes, np.ndarray]:
    """Every read's ASCII bytes, concatenated, and each read's length.

    Reads are mutated ``_CHUNK_READS`` at a time, as nucleotide codes.  A
    chunk's strands are padded to its longest; the padding's uniforms are
    1, past every cut point, and it is not emitted.  Only the positions
    whose uniform falls below the last cut point are placed among the cut
    points, and a chunk without an insertion is one gather of its kept
    codes.  Each chunk's codes become ASCII with one ``bytes.translate``, so
    no temporary spans the whole result.
    """
    seed = profile.seed
    cuts = _cut_points(profile)
    chunk_rows = min(_CHUNK_READS, origin_ids.size)
    scratch = np.empty(chunk_rows * int(strands.lengths.max(initial=0)))
    parts: list[bytes] = []
    lengths = [np.empty(0, np.int64)]
    # origin_ids ascend, so each strand's stream is reached once, in order
    streams = _streams((seed, 2), origin_ids[np.diff(origin_ids, prepend=-1) != 0])
    rng, current = None, -1
    for a in range(0, origin_ids.size, _CHUNK_READS):
        sids, reps = np.unique(origin_ids[a : a + _CHUNK_READS], return_counts=True)
        rows = int(reps.sum())
        lens = strands.lengths[sids]
        width = int(lens.max())
        flat_u = scratch[: rows * width]
        u = flat_u.reshape(rows, width)
        row = 0
        for sid, take, n in zip(sids.tolist(), reps.tolist(), lens.tolist()):
            # consecutive draws continue the stream, so a strand split
            # between chunks gets the rows one random((k, n)) would give
            if sid != current:
                rng, current = next(streams), sid
            if n == width:
                rng.random(out=u[row : row + take])
            else:
                u[row : row + take, :n] = rng.random((take, n))
                u[row : row + take, n:] = 1.0
            row += take

        at = strands.starts[sids, None] + np.arange(width)
        if lens.min() == width:
            keep = None  # every position is inside its strand
            codes = jr.ascii_codes(strands.buf[at])
        else:
            inside = np.arange(width) < lens[:, None]
            codes = np.zeros(at.shape, np.uint8)
            codes[inside] = jr.ascii_codes(strands.buf[at[inside]])
            keep = np.repeat(inside, reps, axis=0).reshape(-1)
        # positions as flat indices: nonzero of a 2-D mask costs several
        # times flatnonzero of the same mask
        codes = np.repeat(codes, reps, axis=0).reshape(-1)

        hit = np.flatnonzero(flat_u < cuts[-1])
        fate = np.searchsorted(cuts, flat_u[hit], side="right")
        gone = fate == 0
        if gone.any():
            if keep is None:
                keep = np.ones(codes.size, bool)
            keep[hit[gone]] = False
        sub = fate > 4
        pos = hit[sub]
        base = codes[pos]
        # a character outside ACGT keeps its code 255, so it comes out as N
        codes[pos] = np.where(base == 255, base, (base + fate[sub] - 4) % 4)

        added = ~gone & ~sub
        if added.any():
            # each position gives its kept base, then its inserted one
            pos = hit[added]
            pair = np.empty((codes.size, 2), np.uint8)
            pair[:, 0] = codes
            pair[pos, 1] = fate[added] - 1
            emit = np.zeros(pair.shape, bool)
            emit[:, 0] = True if keep is None else keep
            emit[pos, 1] = True
            out = pair[emit]
            lengths.append(emit.reshape(rows, -1).sum(axis=1))
        elif keep is None:
            out = codes
            lengths.append(np.full(rows, width, np.int64))
        else:
            out = codes[keep]
            lengths.append(keep.reshape(rows, width).sum(axis=1))
        parts.append(out.tobytes().translate(jr._CODE_TRANSLATE))
    return b"".join(parts), np.concatenate(lengths)


def vote(
    reads: ReadPool | Iterable[ReadPool] | Iterable[str],
    layout: StrandLayout = DEFAULT_LAYOUT,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    primer_tolerance: int = 0,
) -> ParseBatch:
    """Parse raw reads and settle each observed index by plurality vote.

    ``reads`` is a :class:`~pjdna.strand.ReadPool`, an iterable of pools
    (such as the windows of a :class:`~pjdna.seqio.ReadStream`, each parsed
    before the next is drawn) or an iterable of strings.  Reads are parsed
    individually; accepted parses group by index and each payload block
    settles by plurality vote, ties to the smallest value.  Returns one row
    per observed index, indices ascending, with counters for every rejection
    reason and ``indices_observed``.  The indices and the winning blocks are
    int64; the accepted blocks are kept in the narrowest unsigned type that
    holds ``cfg.block_limit - 1`` (uint16 at the default 9 bits per block),
    appended parse chunk by parse chunk; each chunk then moves to its sorted
    rows of one array and is dropped, so no unsorted concatenation is made.
    """
    index_parts, block_parts, counts = _parse_reads(
        _pools(reads), layout, cfg, primer_tolerance, np.min_scalar_type(cfg.block_limit - 1))
    indices = np.concatenate(index_parts)
    del index_parts
    order = np.argsort(indices, kind="stable")
    indices = indices[order]
    starts = np.diff(indices, prepend=-1) != 0  # indices are non-negative
    heads = np.flatnonzero(starts)
    observed = indices[heads]
    del indices
    # each accepted read's row in index order
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    del order
    blocks = np.empty((rank.size, block_parts[0].shape[1]), block_parts[0].dtype)
    placed = 0
    for j, part in enumerate(block_parts):
        blocks[rank[placed : placed + len(part)]] = part
        placed += len(part)
        block_parts[j] = part = None  # frees the chunk
    del rank
    winners = blocks[heads]
    # only groups where some read differs from the read before it vote
    differs = (blocks[1:] != blocks[:-1]).any(axis=1) & ~starts[1:]
    if differs.any():
        group = np.cumsum(starts) - 1
        contested = np.unique(group[1:][differs])
        winners[contested] = _column_modes(blocks, group, contested)
    counts = {**counts, "indices_observed": int(heads.size)}
    return ParseBatch(observed, winners.astype(np.int64), counts)


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
    vals = blocks[rows].astype(np.int64)  # unsigned and int64 keys would mix to float
    span = int(vals.max()) + 1
    segment = rank[:, None] * n_cols + np.arange(n_cols)
    keys, count = np.unique((segment * span + vals).ravel(), return_counts=True)
    seg = keys // span
    # by segment, then most votes, then smallest value
    best = np.lexsort((keys, -count, seg))
    first = np.r_[True, seg[best][1:] != seg[best][:-1]]
    return (keys[best][first] % span).reshape(voters.size, n_cols)
