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
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import jr
from .errors import ConfigError
from .strand import DEFAULT_LAYOUT, ParseBatch, ReadPool, Strand, StrandLayout, parse_many

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
    "consensus",
]

# Version of the read-corruption random stream.  1: one generator per
# (strand, replicate); 2: one generator per strand, replicates as rows.
CHANNEL_STREAM = 2

# Reads mutated together in one numpy pass; bounds the pass's temporaries
# to about 3 MiB at 141 nt.
_CHUNK_READS = 256

_PROFILE_KEYS = {
    "dropout_p",
    "sub_p",
    "ins_p",
    "del_p",
    "coverage_mean",
    "coverage_model",
    "seed",
    "name",
    "rate_provenance",
}


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
        return {
            "dropout_p": self.dropout_p,
            "sub_p": self.sub_p,
            "ins_p": self.ins_p,
            "del_p": self.del_p,
            "coverage_mean": self.coverage_mean,
            "coverage_model": self.coverage_model,
            "seed": self.seed,
            "name": self.name,
            "rate_provenance": self.rate_provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelProfile":
        if not isinstance(d, dict):
            raise ConfigError("profile must be a JSON object")
        unknown = set(d) - _PROFILE_KEYS
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
    """Observed reads plus per-read origin ids (diagnostics only).

    Origins exist so simulations can be audited; nothing on the decode path
    accepts them.
    """

    sequences: list[str]
    origins: list[int]

    def __len__(self) -> int:
        return len(self.sequences)


def _seq_of(item) -> str:
    return item.sequence if isinstance(item, Strand) else item


def check_drop_rate(p: float) -> None:
    """Raise :class:`ConfigError` unless ``p`` lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"drop probability must lie in [0, 1], got {p}")


def keep_mask(count: int, p: float, seed) -> np.ndarray:
    """Survival flags of ``count`` elements, each dropped with probability ``p``.

    ``seed`` is an integer or a tuple of integers (Python or NumPy); position
    ``j`` survives when the ``j``-th uniform of ``default_rng(seed + (0,))``
    is at least ``p``, so survivor sets at increasing ``p`` are nested.
    """
    check_drop_rate(p)
    try:
        entropy = (operator.index(seed),)
    except TypeError:
        entropy = tuple(map(operator.index, seed))
    return np.random.default_rng(entropy + (0,)).random(count) >= p


def drop_strands(items: Sequence, p: float, seed) -> list:
    """Remove each element independently with probability ``p``.

    ``seed`` may be an int or a tuple of ints; the survivors are those
    :func:`keep_mask` flags.
    """
    keep = keep_mask(len(items), p, seed)
    return [x for x, k in zip(items, keep.tolist()) if k]


def corrupt_reads(strands: Sequence, profile: ChannelProfile) -> ReadSet:
    """Replicate and corrupt surviving strands into a read pool.

    Per strand, coverage ``k`` is drawn (fixed or Poisson), then each
    replicate runs one left-to-right pass where every position is
    independently deleted, else followed by a uniform random insertion, else
    substituted uniformly over the three other nucleotides (priority in that
    order).  Strand ``sid`` draws ``random((k, 5, n))`` from
    ``default_rng((seed, 2, sid))``: per replicate the delete, insert and
    substitute uniforms, the substitution shift and the inserted base.
    """
    seed = profile.seed
    sequences: list[str] = []
    origins: list[int] = []
    fast = profile.noiseless
    pending: list[tuple[str, np.ndarray]] = []  # (strand, draws) of this chunk
    size = 0
    for sid, item in enumerate(strands):
        seq = _seq_of(item)
        if profile.coverage_model == "fixed":
            k = int(profile.coverage_mean)
        else:
            k = int(np.random.default_rng((seed, 1, sid)).poisson(profile.coverage_mean))
        origins.extend([sid] * k)
        if fast:
            sequences.extend([seq] * k)
            continue
        rng = np.random.default_rng((seed, 2, sid))
        while k:
            # consecutive draws continue the stream, so a strand split
            # between chunks gets the rows one random((k, 5, n)) would give
            take = min(k, _CHUNK_READS - size)
            pending.append((seq, rng.random((take, 5, len(seq)))))
            k -= take
            size += take
            if size == _CHUNK_READS:
                sequences.extend(_mutate_chunk(pending, profile))
                pending, size = [], 0
    if pending:
        sequences.extend(_mutate_chunk(pending, profile))
    return ReadSet(sequences=sequences, origins=origins)


def _mutate_chunk(pending: list[tuple[str, np.ndarray]], profile: ChannelProfile) -> list[str]:
    """Mutate the replicates of a chunk in one pass; one read per draw row.

    Strands are padded to the chunk's longest and the padding counts as
    deleted.  Every read is written with a trailing newline into one ASCII
    buffer, which one split turns back into strings.
    """
    lens = np.array([len(seq) for seq, _ in pending])
    reps = [u.shape[0] for _, u in pending]
    width = int(lens.max())
    inside = np.arange(width) < lens[:, None]
    strand_codes = np.zeros(inside.shape, np.uint8)
    strand_codes[inside] = jr.codes_from_seq("".join(seq for seq, _ in pending))
    codes = np.repeat(strand_codes, reps, axis=0)
    u = np.empty((codes.shape[0], 5, width))
    row = 0
    for (_, draws), n in zip(pending, lens):
        u[row : row + draws.shape[0], :, :n] = draws
        row += draws.shape[0]

    keep = np.repeat(inside, reps, axis=0) & (u[:, 0] >= profile.del_p)
    ins = keep & (u[:, 1] < profile.ins_p)
    sub = keep & ~ins & (u[:, 2] < profile.sub_p)
    codes[sub] = (codes[sub] + 1 + (3 * u[:, 3][sub]).astype(np.uint8)) % 4

    # output bytes per position (kept base, plus an inserted one), then "\n"
    step = np.ones((codes.shape[0], width + 1), np.intp)
    step[:, :width] = keep
    step[:, :width] += ins
    at = np.cumsum(step).reshape(step.shape) - step
    out = np.empty(int(at[-1, -1]) + 1, np.uint8)
    out[at[:, :width][keep]] = jr._CODE_ASCII[codes[keep]]
    out[at[:, :width][ins] + 1] = jr._CODE_ASCII[(4 * u[:, 4][ins]).astype(np.uint8)]
    out[at[:, width]] = ord("\n")
    return out.tobytes().decode("ascii").split("\n")[:-1]


def consensus(
    sequences: ReadPool | Iterable[str],
    layout: StrandLayout = DEFAULT_LAYOUT,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    primer_tolerance: int = 0,
) -> tuple[list[tuple[int, bytes]], dict]:
    """Collapse raw reads into one (index, payload) pair per observed index.

    ``sequences`` is a :class:`~pjdna.strand.ReadPool` or an iterable of
    strings.  Reads are parsed individually; accepted parses group by index
    and each payload block settles by plurality vote, ties to the smallest
    value.  Returns pairs sorted by index plus counters for every rejection
    reason.
    """
    if not isinstance(sequences, ReadPool):
        sequences = list(sequences)
    batch: ParseBatch = parse_many(sequences, layout, cfg, primer_tolerance)
    counts = dict(batch.counts)
    if batch.indices.size == 0:
        counts["indices_observed"] = 0
        return [], counts
    order = np.argsort(batch.indices, kind="stable")
    idx_sorted = batch.indices[order]
    blocks_sorted = batch.payload_blocks[order]
    starts = np.r_[True, idx_sorted[1:] != idx_sorted[:-1]]
    heads = np.flatnonzero(starts)
    group = np.cumsum(starts) - 1
    winners = blocks_sorted[heads]
    # only groups where some read differs from the group's first read vote
    differs = (blocks_sorted != winners[group]).any(axis=1)
    contested = np.unique(group[differs])
    if contested.size:
        winners[contested] = _column_modes(blocks_sorted, group, contested)
    packed = jr.pack_block_rows(winners, cfg.bits_per_block)
    pairs = [(int(idx_sorted[h]), packed[g].tobytes()) for g, h in enumerate(heads)]
    counts["indices_observed"] = len(pairs)
    return pairs, counts


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
