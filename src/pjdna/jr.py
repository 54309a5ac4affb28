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
rotating position.  The shipped presets are:

====  ===============  ==============  =================
jump  group radices    bits per block  density (bits/nt)
====  ===============  ==============  =================
0     (3,)             1               1.0
1     (3, 4)           3               1.5
2     (4, 3, 4, 4, 3)  9               1.8
====  ===============  ==============  =================

Bit blocks are mapped to digit groups as most-significant-first mixed-radix
numbers.  The default group holds 4*3*4*4*3 = 576 patterns of which the
encoder uses the first 512 (9 bits); decoding a group to a value of 512..575
is proof of corruption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    FramingError,
    RangeError,
    StreamCorruption,
    require_derived,
    require_int,
)

__all__ = [
    "ALPHABET",
    "JrConfig",
    "block_to_digits",
    "digits_to_block",
    "rotate_encode",
    "rotate_decode",
    "direct_encode",
    "direct_decode",
    "jr_encode_stream",
    "jr_decode_stream",
    "max_homopolymer_run",
    "codes_from_seq",
    "seq_from_codes",
    "ascii_codes",
    "block_rows_to_bits",
    "pack_block_rows",
    "unpack_block_rows",
    "bit_rows_to_blocks",
]

ALPHABET = "ACGT"

_CODE_OF = {ch: i for i, ch in enumerate(ALPHABET)}

# ASCII -> nucleotide code lookup; 255 marks characters outside the alphabet.
_ASCII_CODE = np.full(256, 255, np.uint8)
for _i, _ch in enumerate(ALPHABET):
    _ASCII_CODE[ord(_ch)] = _i
_CODE_ASCII = np.frombuffer(ALPHABET.encode("ascii"), np.uint8).copy()
# bytes.translate table from nucleotide codes to ASCII; a code outside the
# alphabet comes out as N.
_CODE_TRANSLATE = bytes(_CODE_ASCII) + b"N" * (256 - _CODE_ASCII.size)
_ACGT_BYTES = tuple(ALPHABET.encode("ascii"))


def ascii_codes(data: np.ndarray) -> np.ndarray:
    """``_ASCII_CODE`` of every byte of a uint8 array, by arithmetic:
    ``((b >> 1) ^ (b >> 2)) & 3`` maps A, C, G, T to 0..3, and any byte
    other than those four becomes 255.  Indexing the table would turn every
    byte into an ``intp`` index first."""
    codes = data >> np.uint8(1)
    codes ^= data >> np.uint8(2)
    codes &= np.uint8(3)
    valid = data == _ACGT_BYTES[0]
    for b in _ACGT_BYTES[1:]:
        valid |= data == b
    if not valid.all():
        np.copyto(codes, 255, where=~valid)
    return codes


def codes_from_seq(seq: str) -> np.ndarray:
    """Map a nucleotide string to uint8 codes; invalid characters become 255."""
    raw = np.frombuffer(seq.encode("ascii"), np.uint8)
    return _ASCII_CODE[raw]


def seq_from_codes(codes: np.ndarray) -> str:
    return _CODE_ASCII[codes].tobytes().decode("ascii")


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


_CONFIG_KEYS = {"group_radices", "bits_per_block", "groups_per_payload", "jump_length"}


@dataclass(frozen=True)
class JrConfig:
    """One jump-rotating code: radix pattern, block width, payload grouping.

    ``jump_length``, the longest direct run in the tiled pattern, is derived
    from ``group_radices``.  :meth:`to_dict` still writes it, and
    :meth:`from_dict` rejects a stored value that is not the derived one.
    """

    group_radices: tuple[int, ...] = (4, 3, 4, 4, 3)
    bits_per_block: int = 9
    groups_per_payload: int = 18

    def __post_init__(self):
        if not self.group_radices:
            raise ConfigError("group_radices must not be empty")
        for r in self.group_radices:
            require_int("every radix", r)
        if any(r not in (3, 4) for r in self.group_radices):
            raise ConfigError("every radix must be 3 (rotating) or 4 (direct)")
        if all(r == 4 for r in self.group_radices):
            raise ConfigError("a pattern of only direct positions has no homopolymer bound")
        require_int("bits_per_block", self.bits_per_block, 1)
        require_int("groups_per_payload", self.groups_per_payload, 1)
        capacity = math.prod(self.group_radices)
        if (1 << self.bits_per_block) > capacity:
            raise ConfigError(
                f"2^{self.bits_per_block} block values exceed group capacity {capacity}"
            )
        object.__setattr__(self, "group_radices", tuple(self.group_radices))

    @classmethod
    def for_jump(cls, jump: int) -> "JrConfig":
        """Built-in preset for a jump length of 0, 1 or 2."""
        presets = {
            0: cls(group_radices=(3,), bits_per_block=1, groups_per_payload=90),
            1: cls(group_radices=(3, 4), bits_per_block=3, groups_per_payload=45),
            2: cls(),
        }
        try:
            return presets[jump]
        except KeyError:
            raise ConfigError(f"no preset for jump length {jump!r}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "JrConfig":
        if set(d) != _CONFIG_KEYS:
            raise ConfigError(f"config dict must have exactly the keys {sorted(_CONFIG_KEYS)}")
        cfg = cls(d["group_radices"], d["bits_per_block"], d["groups_per_payload"])
        require_derived("jump_length", d["jump_length"], cfg.jump_length)
        return cfg

    def to_dict(self) -> dict:
        return {
            "group_radices": list(self.group_radices),
            "bits_per_block": self.bits_per_block,
            "groups_per_payload": self.groups_per_payload,
            "jump_length": self.jump_length,
        }

    @property
    def jump_length(self) -> int:
        return _cyclic_max_direct_run(self.group_radices)

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

    @cached_property
    def place_weights(self) -> tuple[int, ...]:
        w = [1] * self.group_size
        for i in range(self.group_size - 2, -1, -1):
            w[i] = w[i + 1] * self.group_radices[i + 1]
        return tuple(w)

    @property
    def payload_bits(self) -> int:
        return self.bits_per_block * self.groups_per_payload

    def rotating_mask(self, n_groups: int) -> np.ndarray:
        """Boolean per-position mask (True = rotating) for ``n_groups`` groups."""
        one = np.array([r == 3 for r in self.group_radices], np.bool_)
        return np.tile(one, n_groups)

    def is_encodable(self, value: int) -> bool:
        return 0 <= value < self.block_limit


DEFAULT_CONFIG = JrConfig()


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------

def block_to_digits(value: int, cfg: JrConfig = DEFAULT_CONFIG) -> tuple[int, ...]:
    """Most-significant-first mixed-radix digits of ``value``."""
    if not cfg.is_encodable(value):
        raise RangeError(f"block value {value} outside [0, {cfg.block_limit})")
    digits = []
    for w in cfg.place_weights:
        digits.append(value // w)
        value %= w
    return tuple(digits)


def digits_to_block(digits: Sequence[int], cfg: JrConfig = DEFAULT_CONFIG) -> int:
    """Inverse of :func:`block_to_digits`.

    Values in ``[2^bits_per_block, block_capacity)`` are returned as-is; the
    caller decides whether that means corruption (``cfg.is_encodable``).
    Digits at or above their radix are malformed and raise.
    """
    if len(digits) != cfg.group_size:
        raise RangeError(f"expected {cfg.group_size} digits, got {len(digits)}")
    value = 0
    for d, r, w in zip(digits, cfg.group_radices, cfg.place_weights):
        if not 0 <= d < r:
            raise RangeError(f"digit {d} outside radix {r}")
        value += d * w
    return value


def rotate_encode(digit: int, prev: str) -> str:
    """Pick the ``digit``-th nucleotide differing from ``prev`` in cyclic order."""
    if digit not in (0, 1, 2):
        raise RangeError(f"rotating digit must be 0..2, got {digit}")
    return ALPHABET[(_CODE_OF[prev] + 1 + digit) % 4]


def rotate_decode(nt: str, prev: str) -> int:
    """Inverse of :func:`rotate_encode`; raises on a repeated nucleotide."""
    if nt == prev:
        raise StreamCorruption("rotating", 0)
    return (_CODE_OF[nt] - _CODE_OF[prev] - 1) % 4


def direct_encode(digit: int) -> str:
    if digit not in (0, 1, 2, 3):
        raise RangeError(f"direct digit must be 0..3, got {digit}")
    return ALPHABET[digit]


def direct_decode(nt: str) -> int:
    return _CODE_OF[nt]


# ---------------------------------------------------------------------------
# batch block/digit plumbing (shared with the strand and tile layers)
# ---------------------------------------------------------------------------

def blocks_to_digit_rows(blocks: np.ndarray, cfg: JrConfig) -> np.ndarray:
    """(n, B) block values -> (n, B*group_size) uint8 digit matrix."""
    n, nblocks = blocks.shape
    rem = blocks.astype(np.int64, copy=True)
    digits = np.empty((n, nblocks, cfg.group_size), np.uint8)
    for k, w in enumerate(cfg.place_weights):
        digits[:, :, k] = rem // w
        rem %= w
    return digits.reshape(n, nblocks * cfg.group_size)


def digit_rows_to_blocks(digits: np.ndarray, cfg: JrConfig) -> np.ndarray:
    """(n, B*group_size) digit matrix -> (n, B) int64 block values."""
    n, width = digits.shape
    nblocks = width // cfg.group_size
    groups = digits.reshape(n, nblocks, cfg.group_size)
    w = cfg.place_weights
    # an explicit int64 dtype, since promotion from a uint8 array times a
    # scalar differs across numpy versions; the sum keeps the digits' order
    blocks = np.multiply(groups[:, :, 0], w[0], dtype=np.int64)
    for k in range(1, cfg.group_size):
        blocks += np.multiply(groups[:, :, k], w[k], dtype=np.int64)
    return blocks


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
    """Inverse of :func:`encode_positions`: the digit matrix, and per row the
    column of the first rotating violation, or -1."""
    # walk the rows of the transpose: a column of a row-major matrix is strided
    cols = np.ascontiguousarray(codes.T)
    digits = np.empty_like(cols)
    viol = np.full(codes.shape[0], -1, np.int32)
    prev = prev0.astype(np.uint8, copy=False)
    for j, c in enumerate(cols):
        if rot[j]:
            hit = (c == prev) & (viol < 0)
            viol[hit] = j
            digits[j] = (c + 3 - prev) % 4
        else:
            digits[j] = c
        prev = c
    return digits.T, viol


def encode_block_rows(blocks: np.ndarray, cfg: JrConfig, prev0: np.ndarray) -> np.ndarray:
    """Encode a (n, B) block matrix into a (n, B*group_size) code matrix."""
    digits = blocks_to_digit_rows(blocks, cfg)
    rot = cfg.rotating_mask(blocks.shape[1])
    return encode_positions(digits, rot, prev0)


def decode_code_rows(
    codes: np.ndarray, cfg: JrConfig, prev0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (n, width) code matrix.

    Returns (blocks, viol) where viol[i] is the 0-based position of the first
    rotating violation in row i, or -1 when the row is clean.  Block range
    checks are left to the caller.
    """
    n_groups = codes.shape[1] // cfg.group_size
    rot = cfg.rotating_mask(n_groups)
    digits, viol = decode_positions(codes, rot, prev0)
    return digit_rows_to_blocks(digits, cfg), viol


# ---------------------------------------------------------------------------
# stream operations
# ---------------------------------------------------------------------------

def jr_encode_stream(
    blocks: Iterable[int], cfg: JrConfig = DEFAULT_CONFIG, prev_init: str = "A"
) -> str:
    """Encode block values into one continuous nucleotide stream.

    The rotating context threads through the whole stream: each rotating
    position looks at the immediately preceding emitted nucleotide, and the
    stream's very first position (when rotating) looks at ``prev_init``.
    """
    blocks = list(blocks)
    if not blocks:
        return ""
    for b in blocks:
        if not cfg.is_encodable(b):
            raise RangeError(f"block value {b} outside [0, {cfg.block_limit})")
    mat = np.asarray(blocks, np.int64).reshape(1, -1)
    prev0 = np.array([_CODE_OF[prev_init]], np.uint8)
    return seq_from_codes(encode_block_rows(mat, cfg, prev0)[0])


def jr_decode_stream(
    seq: str, cfg: JrConfig = DEFAULT_CONFIG, prev_init: str = "A"
) -> list[int]:
    """Exact inverse of :func:`jr_encode_stream` on clean streams.

    Raises :class:`FramingError` when the length is not a whole number of
    groups and :class:`StreamCorruption` at the first rotating violation
    (nucleotide position) or out-of-range group (block index).
    """
    if len(seq) % cfg.group_size:
        raise FramingError(
            f"stream length {len(seq)} is not a multiple of group size {cfg.group_size}"
        )
    if not seq:
        return []
    codes = codes_from_seq(seq).reshape(1, -1)
    prev0 = np.array([_CODE_OF[prev_init]], np.uint8)
    blocks, viol = decode_code_rows(codes, cfg, prev0)
    if viol[0] >= 0:
        raise StreamCorruption("rotating", int(viol[0]))
    bad = np.nonzero(blocks[0] >= cfg.block_limit)[0]
    if bad.size:
        raise StreamCorruption("range", int(bad[0]))
    return [int(b) for b in blocks[0]]
