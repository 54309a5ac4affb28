"""Jump-rotating codec: fixed-size bit blocks <-> constrained nucleotide streams.

Two per-position rules are interleaved along a repeating radix pattern:

* direct rule (radix 4): a quaternary digit maps straight to one nucleotide
  through a fixed table (0=A, 1=C, 2=G, 3=T).
* rotating rule (radix 3): a ternary digit selects one of the three
  nucleotides that differ from the previously emitted one, walking the
  cyclic order A -> C -> G -> T -> A from the predecessor's successor.

A pattern whose longest run of direct positions (read cyclically, since the
pattern tiles the stream) is ``n`` can never emit more than ``n + 1``
identical nucleotides in a row, because any repetition must stop at the next
rotating position.  A pattern is the whole code: its jump length and its
bits per block are derived from it.  The shipped presets are:

====  ===============  ==============  =================
jump  group radices    bits per block  density (bits/nt)
====  ===============  ==============  =================
0     (3,)             1               1.0
1     (3, 4)           3               1.5
2     (4, 3, 4, 4, 3)  9               1.8
====  ===============  ==============  =================

Bit blocks are mapped to digit groups as most-significant-first mixed-radix
numbers.  A block is the widest whole number of bits a group holds: the
default group holds 4*3*4*4*3 = 576 patterns of which the encoder uses the
first 512 (9 bits); decoding a group to a value of 512..575 is proof of
corruption.  How many groups a strand's payload holds is the layout's to say
(:meth:`pjdna.strand.StrandLayout.payload_groups`), not the code's.

Each rule has one implementation: :func:`to_digits` and :func:`from_digits`
convert values and mixed-radix digits (blocks and their digits, and a
strand's index and its blocks), and :func:`encode_positions` and
:func:`decode_positions` apply both position rules a column at a time.

That position walk defines the codec's tables.  A group's nucleotides
depend only on its own digits and on the nucleotide before it, so
:attr:`JrConfig.decode_table` is the walk run once over every (previous
code, group codes) key, 4 * 4^5 = 4,096 entries at jump 2, and
:attr:`JrConfig.encode_table` is the walk run once over every (previous
code, run of blocks) key, a run being the groups of about ``_KEY_NT``
nucleotides.  Both are built on first use.  :func:`decode_code_rows`
decodes every group of a matrix with one gather, and
:func:`encode_block_rows` encodes one run of groups per gather, left to
right, since each run starts after the code the last one ended on.  A
pattern's group is at most ``_TABLE_NT`` nucleotides, so every code has
its tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, require_derived, require_int

__all__ = [
    "ALPHABET",
    "JrConfig",
    "max_homopolymer_run",
    "ascii_codes",
    "to_digits",
    "from_digits",
    "block_rows_to_bits",
    "pack_block_rows",
    "unpack_block_rows",
    "bit_rows_to_blocks",
]

ALPHABET = "ACGT"

# bytes.translate tables between nucleotide codes and ASCII: a code outside
# the alphabet comes out as N, and a byte other than A, C, G or T as 255.
_CODE_TRANSLATE = ALPHABET.encode("ascii") + b"N" * (256 - len(ALPHABET))
_ASCII_CODE = bytes(ALPHABET.find(chr(b)) % 256 for b in range(256))


def ascii_codes(data: np.ndarray) -> np.ndarray:
    """The nucleotide code of every byte of a uint8 array, A, C, G, T as
    0..3 and any other byte as 255, through one ``bytes.translate``; the
    result is read-only."""
    return np.frombuffer(data.tobytes().translate(_ASCII_CODE), np.uint8).reshape(data.shape)


def max_homopolymer_run(seq: str) -> int:
    """Length of the longest run of identical consecutive nucleotides."""
    if not seq:
        return 0
    best = cur = 1
    for a, b in zip(seq, seq[1:]):
        cur = cur + 1 if a == b else 1
        if cur > best:
            best = cur
    return best


# The radix pattern of each built-in jump length.
_PRESETS = {0: (3,), 1: (3, 4), 2: (4, 3, 4, 4, 3)}


def _cyclic_max_direct_run(radices: Sequence[int]) -> int:
    """Longest run of radix-4 entries in the infinite tiling of the pattern,
    capped at the pattern length."""
    doubled = list(radices) * 2
    best = cur = 0
    for r in doubled:
        cur = cur + 1 if r == 4 else 0
        if cur > best:
            best = cur
    return min(best, len(radices))


_CONFIG_KEYS = {"group_radices", "bits_per_block", "jump_length"}

# The widest group a pattern may have, so that every code has its tables: a
# decode table has 4^(g+1) entries, 16,384 at 6 nt.
_TABLE_NT = 6
# Nucleotides an encode key spans at most, in whole groups, at least one:
# five groups of one at jump 0, two of two at jump 1, one of five at jump 2.
_KEY_NT = 5
# Rows decoded per gather.  ``np.take`` copies its keys as intp, 8 bytes a
# group, so a bounded chunk keeps the keys and their copy in cache: 116,240
# rows of 100 nt at jump 0 took 98 ms in one gather and 42 ms in chunks of
# 8,192.
_DECODE_ROWS = 8192


@dataclass(frozen=True)
class JrConfig:
    """One jump-rotating code, which is its radix pattern.

    ``jump_length``, the longest direct run in the tiled pattern, and
    ``bits_per_block``, the widest block one group holds, are derived from
    ``group_radices``.  :meth:`to_dict` still writes them, and
    :meth:`from_dict` rejects a stored value that is not the derived one.
    """

    group_radices: tuple[int, ...] = (4, 3, 4, 4, 3)

    def __post_init__(self):
        if not self.group_radices:
            raise ConfigError("group_radices must not be empty")
        for r in self.group_radices:
            require_int("every radix", r)
        if any(r not in (3, 4) for r in self.group_radices):
            raise ConfigError("every radix must be 3 (rotating) or 4 (direct)")
        if all(r == 4 for r in self.group_radices):
            raise ConfigError("a pattern of only direct positions has no homopolymer bound")
        if len(self.group_radices) > _TABLE_NT:
            raise ConfigError(f"a group of {len(self.group_radices)} nt is wider than the "
                              f"{_TABLE_NT} nt a codec table holds")
        object.__setattr__(self, "group_radices", tuple(self.group_radices))

    @classmethod
    def for_jump(cls, jump: int) -> "JrConfig":
        """Built-in preset for a jump length of 0, 1 or 2."""
        try:
            return cls(_PRESETS[jump])
        except KeyError:
            raise ConfigError(f"no preset for jump length {jump!r}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "JrConfig":
        if set(d) != _CONFIG_KEYS:
            raise ConfigError(f"config dict must have exactly the keys {sorted(_CONFIG_KEYS)}")
        cfg = cls(d["group_radices"])
        require_derived("bits_per_block", d["bits_per_block"], cfg.bits_per_block)
        require_derived("jump_length", d["jump_length"], cfg.jump_length)
        return cfg

    def to_dict(self) -> dict:
        return {
            "group_radices": list(self.group_radices),
            "bits_per_block": self.bits_per_block,
            "jump_length": self.jump_length,
        }

    @property
    def jump_length(self) -> int:
        return _cyclic_max_direct_run(self.group_radices)

    @cached_property
    def bits_per_block(self) -> int:
        """The widest block one group holds: 2^bits_per_block <= capacity."""
        return self.block_capacity.bit_length() - 1

    @property
    def group_size(self) -> int:
        return len(self.group_radices)

    @cached_property
    def block_capacity(self) -> int:
        """Number of digit patterns one group can hold (product of radices)."""
        return math.prod(self.group_radices)

    @property
    def block_limit(self) -> int:
        """One past the largest value the encoder may emit (2^bits_per_block)."""
        return 1 << self.bits_per_block

    def rotating_mask(self, n_groups: int) -> np.ndarray:
        """Boolean per-position mask (True = rotating) for ``n_groups`` groups."""
        one = np.array([r == 3 for r in self.group_radices], np.bool_)
        return np.tile(one, n_groups)

    @cached_property
    def decode_table(self) -> np.ndarray:
        """Block of each key ``prev * 4^g + codes`` (previous code, then the
        group's g codes most significant first), or ``block_limit`` where
        the group has a rotating violation or an out-of-range block, in the
        narrowest unsigned type holding ``block_limit``.  Built by
        :func:`decode_positions` over every key."""
        g = self.group_size
        codes = to_digits(np.arange(4 ** (g + 1)), (4,) * (g + 1))
        digits, viol = decode_positions(codes[:, 1:], self.rotating_mask(1), codes[:, 0])
        blocks = from_digits(digits, self.group_radices)
        blocks[viol | (blocks >= self.block_limit)] = self.block_limit
        return blocks.astype(np.min_scalar_type(self.block_limit))

    @cached_property
    def encode_table(self) -> np.ndarray:
        """Codes of each key ``run * 4 + prev``, where ``run`` is m blocks in
        base ``block_limit``, most significant first, and ``prev`` the code
        before them: a (4 * block_limit^m, m * g) uint8 matrix, m groups the
        most that fit ``_KEY_NT`` nucleotides, at least one.  Built by
        :func:`encode_positions` over every key."""
        g, limit = self.group_size, self.block_limit
        m = max(1, _KEY_NT // g)
        keys = np.arange(4 * limit**m)
        blocks = to_digits(keys >> 2, (limit,) * m)
        digits = to_digits(blocks, self.group_radices).reshape(keys.size, m * g)
        return encode_positions(digits, self.rotating_mask(m), (keys & 3).astype(np.uint8))


DEFAULT_CONFIG = JrConfig()


# ---------------------------------------------------------------------------
# batch block/digit plumbing (shared with the strand and tile layers)
# ---------------------------------------------------------------------------

def to_digits(values: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Integer values -> their mixed-radix digits in ``radices``, most
    significant first, as a new last axis in the narrowest unsigned type
    holding the largest digit.  Values must lie in ``[0, prod(radices))``,
    and ``radices`` must not be empty."""
    rest = np.asarray(values, np.int64)
    digits = np.empty(rest.shape + (len(radices),), np.min_scalar_type(max(radices) - 1))
    for k in range(len(radices) - 1, 0, -1):
        rest, digits[..., k] = np.divmod(rest, radices[k])
    digits[..., 0] = rest
    return digits


def from_digits(digits: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`to_digits`: the int64 value of each run of digits
    along the last axis, most significant first.  A value past
    ``2**63 - 1`` wraps, so callers bound the digits first."""
    values = np.zeros(digits.shape[:-1], np.int64)
    for k, r in enumerate(radices):
        values *= r
        values += digits[..., k]
    return values


def block_rows_to_bits(blocks: np.ndarray, bits: int) -> np.ndarray:
    """(n, B) block values -> (n, B*bits) 0/1 uint8 matrix, MSB-first."""
    n, nblocks = blocks.shape
    bit_rows = np.empty((n, nblocks, bits), np.uint8)
    for k in range(bits):
        bit_rows[:, :, k] = (blocks >> (bits - 1 - k)) & 1
    return bit_rows.reshape(n, nblocks * bits)


def pack_block_rows(blocks: np.ndarray, bits: int) -> np.ndarray:
    """(n, B) block values -> (n, ceil(B*bits/8)) uint8 rows, MSB-first."""
    return np.packbits(block_rows_to_bits(blocks, bits), axis=1)


def bit_rows_to_blocks(bit_rows: np.ndarray, nblocks: int, bits: int) -> np.ndarray:
    """The leading ``nblocks * bits`` columns of a 0/1 matrix -> (n, nblocks)
    int64 block values, MSB-first."""
    n = bit_rows.shape[0]
    groups = bit_rows[:, : nblocks * bits].reshape(n, nblocks, bits)
    blocks = np.zeros((n, nblocks), np.int64)
    for k in range(bits):
        blocks <<= 1
        blocks |= groups[:, :, k]
    return blocks


def unpack_block_rows(data: np.ndarray, nblocks: int, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_block_rows` for rows of packed payload bytes."""
    return bit_rows_to_blocks(np.unpackbits(data, axis=1), nblocks, bits)


def encode_positions(digits: np.ndarray, rot: np.ndarray, prev0: np.ndarray) -> np.ndarray:
    """(n, width) digit matrix -> code matrix.  Column ``j`` is rotating where
    ``rot[j]``; ``prev0`` holds each row's code before its first column."""
    n, width = digits.shape
    out = np.empty((n, width), np.uint8)
    prev = prev0.astype(np.uint8, copy=True)
    for j in range(width):
        if rot[j]:
            out[:, j] = (prev + 1 + digits[:, j]) % 4
        else:
            out[:, j] = digits[:, j]
        prev = out[:, j]
    return out


def decode_positions(
    codes: np.ndarray, rot: np.ndarray, prev0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_positions`: the digit matrix, and per row
    whether a rotating position repeats the code before it."""
    # walk the rows of the transpose: a column of a row-major matrix is strided
    cols = np.ascontiguousarray(codes.T)
    digits = np.empty_like(cols)
    viol = np.zeros(codes.shape[0], bool)
    prev = prev0.astype(np.uint8, copy=False)
    for j, c in enumerate(cols):
        if rot[j]:
            viol |= c == prev
            digits[j] = (c + 3 - prev) % 4
        else:
            digits[j] = c
        prev = c
    return digits.T, viol


def encode_block_rows(blocks: np.ndarray, cfg: JrConfig, prev0: np.ndarray) -> np.ndarray:
    """Encode a (n, B) matrix of blocks in ``[0, block_limit)`` into a
    (n, B*group_size) code matrix.

    Each run of m blocks (``cfg.encode_table``) is one gather, keyed by the
    run and the code before it, the runs taken left to right; the last run
    is padded with zero blocks, whose codes are dropped."""
    table = cfg.encode_table
    n, nblocks = blocks.shape
    span = table.shape[1]
    m = span // cfg.group_size
    n_runs = -(-nblocks // m)
    # one row per (run, block of the run), one column per stream
    padded = np.zeros((n_runs * m, n), np.intp)
    padded[:nblocks] = blocks.T
    keys = padded[::m].copy()
    for k in range(1, m):
        keys *= cfg.block_limit
        keys += padded[k::m]
    keys <<= 2
    out = np.empty((n_runs, n, span), np.uint8)
    prev = prev0
    for j in range(n_runs):
        keys[j] += prev
        np.take(table, keys[j], axis=0, out=out[j])
        prev = out[j, :, -1]
    return out.transpose(1, 0, 2).reshape(n, n_runs * span)[:, : nblocks * cfg.group_size]


def decode_code_rows(codes: np.ndarray, cfg: JrConfig, prev0: np.ndarray) -> np.ndarray:
    """Decode a (n, width) code matrix into (n, width // group_size) blocks.

    A group with a rotating violation or an out-of-range block decodes to
    ``cfg.block_limit``, so a row is sound when every block is below it.
    Codes are taken modulo 4: a code of 255 (a byte outside ACGT) is the
    caller's to reject.  Every group of ``_DECODE_ROWS`` rows is one gather
    from ``cfg.decode_table``, keyed by the code before the group and the
    group's codes; the blocks come in the table's type.
    """
    n, width = codes.shape
    g = cfg.group_size
    n_groups = width // g
    table = cfg.decode_table
    out = np.empty((n, n_groups), table.dtype)
    # one row per position after the row's prev0, one column per stream
    cols = np.empty((n_groups * g + 1, min(n, _DECODE_ROWS)), np.uint8)
    for a in range(0, n, _DECODE_ROWS):
        part = cols[:, : min(n - a, _DECODE_ROWS)]
        part[0] = prev0[a : a + _DECODE_ROWS]
        np.bitwise_and(codes[a : a + _DECODE_ROWS, : n_groups * g].T, 3, out=part[1:])
        keys = part[: n_groups * g : g].astype(np.uint16)  # the code before each group
        for k in range(1, g + 1):
            keys <<= 2
            keys |= part[k : k + n_groups * g : g]
        out[a : a + _DECODE_ROWS] = np.take(table, keys).T
    return out
