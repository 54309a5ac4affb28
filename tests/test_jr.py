"""Codec-level tests: mixed-radix conversion, rotating/direct rules, streams.

Expected values for the non-trivial cases come from an independent oracle:
exhaustive enumeration of all digit tuples in mixed-radix order.
"""

import itertools

import numpy as np
import pytest

from pjdna import jr
from pjdna.errors import ConfigError, FramingError, RangeError, StreamCorruption

CFG = jr.JrConfig()


def enumerate_digit_tuples(radices):
    """Oracle: all digit tuples in ascending mixed-radix order."""
    return list(itertools.product(*[range(r) for r in radices]))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_default_config():
    assert CFG.group_radices == (4, 3, 4, 4, 3)
    assert CFG.bits_per_block == 9
    assert CFG.groups_per_payload == 18
    assert CFG.jump_length == 2
    assert CFG.block_capacity == 576
    assert CFG.block_limit == 512
    assert CFG.place_weights == (144, 48, 12, 3, 1)


def test_preset_configs_validate():
    for jump in (0, 1, 2):
        cfg = jr.JrConfig.for_jump(jump)
        assert cfg.jump_length == jump
        assert (1 << cfg.bits_per_block) <= cfg.block_capacity
        # every preset fills the same 90-nt payload region
        assert cfg.groups_per_payload * cfg.group_size == 90
    with pytest.raises(ConfigError):
        jr.JrConfig.for_jump(3)


@pytest.mark.parametrize(
    "radices,jump",
    [((3,), 1), ((3, 4), 4), ((4, 3, 4, 4, 3), 1), ((4, 3, 4, 4, 3), 2.0), ((3,), False)],
)
def test_config_rejects_wrong_jump_length(radices, jump):
    """jump_length is derived from the pattern; a stored one must be that
    integer, not another value, a float or a bool."""
    d = {"group_radices": list(radices), "bits_per_block": 1, "groups_per_payload": 1}
    cfg = jr.JrConfig(**d)
    assert jr.JrConfig.from_dict({**d, "jump_length": cfg.jump_length}) == cfg
    with pytest.raises(ConfigError):
        jr.JrConfig.from_dict({**d, "jump_length": jump})


def test_config_rejects_bad_patterns():
    for radices, bits, jump in (((4, 4), 2, 2), ((3, 5), 2, 0), ((3, 3), 4, 0)):
        d = {"group_radices": radices, "bits_per_block": bits, "groups_per_payload": 1}
        with pytest.raises(ConfigError):
            jr.JrConfig(**d)
        with pytest.raises(ConfigError):
            jr.JrConfig.from_dict({**d, "jump_length": jump})


def test_config_dict_round_trip():
    for jump in (0, 1, 2):
        cfg = jr.JrConfig.for_jump(jump)
        assert jr.JrConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        jr.JrConfig.from_dict({**CFG.to_dict(), "extra": 1})


# ---------------------------------------------------------------------------
# block <-> digits
# ---------------------------------------------------------------------------

def test_block_to_digits_examples():
    tuples = enumerate_digit_tuples(CFG.group_radices)
    assert jr.block_to_digits(0) == (0, 0, 0, 0, 0)
    assert jr.block_to_digits(511) == tuples[511] == (3, 1, 2, 2, 1)
    assert jr.digits_to_block((3, 2, 3, 3, 2)) == 575
    assert not CFG.is_encodable(575)
    assert jr.digits_to_block((0, 0, 0, 0, 0)) == 0
    assert jr.digits_to_block((3, 1, 2, 2, 1)) == 511


def test_block_digit_bijection_exhaustive():
    tuples = enumerate_digit_tuples(CFG.group_radices)
    for value in range(CFG.block_limit):
        digits = jr.block_to_digits(value)
        assert digits == tuples[value]
        assert jr.digits_to_block(digits) == value
    # values past the encoder limit still decode, flagged by is_encodable
    for value in range(CFG.block_limit, CFG.block_capacity):
        assert jr.digits_to_block(tuples[value]) == value
        assert not CFG.is_encodable(value)


def test_digit_rows_to_blocks_all_tuples_in_int64():
    """uint8 digit rows in either memory order sum to int64 block values,
    including those past the byte range (432 = 144 * 3 and up)."""
    tuples = enumerate_digit_tuples(CFG.group_radices)
    digits = np.array(tuples, np.uint8).reshape(-1, 4 * CFG.group_size)  # 4 blocks a row
    want = np.arange(CFG.block_capacity).reshape(-1, 4)
    for rows in (digits, np.asfortranarray(digits)):
        got = jr.digit_rows_to_blocks(rows, CFG)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_block_digit_errors():
    with pytest.raises(RangeError):
        jr.block_to_digits(512)
    with pytest.raises(RangeError):
        jr.block_to_digits(-1)
    with pytest.raises(RangeError):
        jr.digits_to_block((4, 0, 0, 0, 0))  # digit at its radix
    with pytest.raises(RangeError):
        jr.digits_to_block((0, 3, 0, 0, 0))  # ternary position
    with pytest.raises(RangeError):
        jr.digits_to_block((0, 0, 0, 0))  # wrong arity


# ---------------------------------------------------------------------------
# rotating / direct rules
# ---------------------------------------------------------------------------

def test_rotate_encode_examples():
    assert jr.rotate_encode(0, "A") == "C"
    assert jr.rotate_encode(2, "T") == "G"


def test_rotate_never_repeats_and_inverts():
    for prev in jr.ALPHABET:
        seen = set()
        for d in range(3):
            nt = jr.rotate_encode(d, prev)
            assert nt != prev
            assert jr.rotate_decode(nt, prev) == d
            seen.add(nt)
        assert len(seen) == 3  # bijection onto the three alternatives


def test_rotate_decode_violation():
    with pytest.raises(StreamCorruption):
        jr.rotate_decode("A", "A")
    assert jr.rotate_decode("C", "A") == 0
    assert jr.rotate_decode("G", "T") == 2


def test_direct_bijection():
    assert jr.direct_encode(0) == "A"
    assert jr.direct_encode(3) == "T"
    for d in range(4):
        assert jr.direct_decode(jr.direct_encode(d)) == d
    with pytest.raises(RangeError):
        jr.direct_encode(4)
    with pytest.raises(RangeError):
        jr.rotate_encode(3, "A")


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_encode_stream_examples():
    assert jr.jr_encode_stream([511], prev_init="A") == "TCGGA"
    assert jr.jr_encode_stream([0], prev_init="A") == "ACAAC"
    assert jr.jr_encode_stream([]) == ""


def test_decode_stream_examples():
    assert jr.jr_decode_stream("TCGGA") == [511]
    with pytest.raises(StreamCorruption) as exc:
        jr.jr_decode_stream("TTGGA")
    assert exc.value.kind == "rotating"
    assert exc.value.position == 1  # 0-based: the second nucleotide repeats T
    with pytest.raises(FramingError):
        jr.jr_decode_stream("ACGT")


def test_decode_detects_out_of_range_group():
    # digit bump at the first rotating position lifts the value to 559 >= 512
    assert jr.jr_encode_stream([511]) == "TCGGA"
    with pytest.raises(StreamCorruption) as exc:
        jr.jr_decode_stream("TGGGA")
    assert exc.value.kind == "range"
    assert exc.value.position == 0  # block index


def test_stream_round_trip_fuzz():
    rng = np.random.default_rng(99)
    for jump in (0, 1, 2):
        cfg = jr.JrConfig.for_jump(jump)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            blocks = [int(b) for b in rng.integers(0, cfg.block_limit, n)]
            prev = jr.ALPHABET[int(rng.integers(0, 4))]
            seq = jr.jr_encode_stream(blocks, cfg, prev)
            assert len(seq) == n * cfg.group_size
            assert jr.jr_decode_stream(seq, cfg, prev) == blocks


def test_stream_range_error():
    with pytest.raises(RangeError):
        jr.jr_encode_stream([512])


def test_rotating_context_crosses_group_boundary():
    # last nucleotide of the first group feeds the second group's first
    # rotating position; re-encoding group 2 alone with the right context
    # must reproduce the tail of the joint stream
    joint = jr.jr_encode_stream([511, 37], prev_init="A")
    head = jr.jr_encode_stream([511], prev_init="A")
    tail = jr.jr_encode_stream([37], prev_init=head[-1])
    assert joint == head + tail


# ---------------------------------------------------------------------------
# homopolymer bound
# ---------------------------------------------------------------------------

def test_homopolymer_bound_exhaustive_all_576_groups():
    """Every digit tuple the group can hold, including the 512..575 range
    the encoder never emits, stays within the bound for every context."""
    from conftest import batch_max_runs

    tuples = enumerate_digit_tuples(CFG.group_radices)
    digits = np.array(tuples, np.uint8)  # (576, 5)
    rot = CFG.rotating_mask(1)
    for prev in range(4):
        prev0 = np.full(576, prev, np.uint8)
        codes = jr.encode_positions(digits, rot, prev0)
        assert int(batch_max_runs(codes).max()) <= CFG.jump_length + 1


@pytest.mark.parametrize("jump", [0, 1, 2])
def test_homopolymer_bound_stream_fuzz(jump):
    """10^4 random 30-group streams per jump, checked in one batch."""
    from conftest import batch_max_runs

    cfg = jr.JrConfig.for_jump(jump)
    rng = np.random.default_rng(7 + jump)
    bound = jump + 1
    blocks = rng.integers(0, cfg.block_limit, (10_000, 30), dtype=np.int64)
    prev0 = rng.integers(0, 4, 10_000).astype(np.uint8)
    codes = jr.encode_block_rows(blocks, cfg, prev0)
    assert int(batch_max_runs(codes).max()) <= bound
    # the string-level API agrees with the batch path
    for i in (0, 999, 9_999):
        seq = jr.jr_encode_stream(
            [int(b) for b in blocks[i]], cfg, jr.ALPHABET[int(prev0[i])]
        )
        assert seq == jr.seq_from_codes(codes[i])


def test_round_trip_bulk_block_lists():
    """10^4 random block lists survive encode/decode exactly."""
    rng = np.random.default_rng(21)
    blocks = rng.integers(0, CFG.block_limit, (10_000, 20), dtype=np.int64)
    prev0 = rng.integers(0, 4, 10_000).astype(np.uint8)
    codes = jr.encode_block_rows(blocks, CFG, prev0)
    back, viol = jr.decode_code_rows(codes, CFG, prev0)
    assert (viol == -1).all()
    assert np.array_equal(back, blocks)


def test_out_of_range_group_always_detected():
    """Any group decoding to a value past the encoder limit is corruption."""
    rng = np.random.default_rng(31)
    tuples = enumerate_digit_tuples(CFG.group_radices)
    rot = CFG.rotating_mask(1)
    for value in range(CFG.block_limit, CFG.block_capacity):
        digits = np.array([tuples[value]], np.uint8)
        prev = int(rng.integers(0, 4))
        codes = jr.encode_positions(digits, rot, np.array([prev], np.uint8))
        with pytest.raises(StreamCorruption) as exc:
            jr.jr_decode_stream(jr.seq_from_codes(codes[0]), CFG, jr.ALPHABET[prev])
        assert exc.value.kind == "range"


def test_rotating_substitution_to_predecessor_always_detected():
    rng = np.random.default_rng(3)
    cfg = CFG
    rot_positions = [i for i, r in enumerate(cfg.group_radices) if r == 3]
    for _ in range(100):
        blocks = [int(b) for b in rng.integers(0, cfg.block_limit, 6)]
        seq = jr.jr_encode_stream(blocks, cfg)
        g = int(rng.integers(0, 6))
        p = g * cfg.group_size + rot_positions[int(rng.integers(0, len(rot_positions)))]
        corrupted = seq[:p] + seq[p - 1] + seq[p + 1 :]
        if corrupted == seq:
            continue  # substitution must change the nucleotide to count
        with pytest.raises(StreamCorruption):
            jr.jr_decode_stream(corrupted, cfg)


# ---------------------------------------------------------------------------
# position kernels
# ---------------------------------------------------------------------------

def test_position_kernels_round_trip():
    rng = np.random.default_rng(17)
    rot = CFG.rotating_mask(20)
    digits = np.empty((64, 100), np.uint8)
    radii = np.tile(np.array(CFG.group_radices, np.uint8), 20)
    for j in range(100):
        digits[:, j] = rng.integers(0, radii[j], 64)
    prev0 = rng.integers(0, 4, 64).astype(np.uint8)
    codes = jr.encode_positions(digits, rot, prev0)
    back, viol = jr.decode_positions(codes, rot, prev0)
    assert np.array_equal(back, digits)
    assert (viol == -1).all()
