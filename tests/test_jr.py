"""Codec-level tests: mixed-radix conversion, rotating/direct rules, streams.

Each rule is checked through the row kernels every command runs; a stream is
one row of :func:`jr.encode_block_rows` and of the position walk
(:func:`jr.decode_positions`) that builds the table of
:func:`jr.decode_code_rows`, and the table is checked against the walk.

Expected values for the non-trivial cases come from an independent oracle:
exhaustive enumeration of all digit tuples in mixed-radix order.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjdna import jr
from pjdna.errors import ConfigError, RangeError
from pjdna.strand import DEFAULT_LAYOUT, assemble_many

CFG = jr.JrConfig()


def enumerate_digit_tuples(radices):
    """Oracle: all digit tuples in ascending mixed-radix order."""
    return list(itertools.product(*[range(r) for r in radices]))


def codes_of(seq):
    """The nucleotide codes of an ASCII string, 255 outside ACGT."""
    return jr.ascii_codes(np.frombuffer(seq.encode("ascii"), np.uint8))


def text_of(codes):
    """The letters of nucleotide codes, N for a code outside 0..3."""
    return np.asarray(codes, np.uint8).tobytes().translate(jr._CODE_TRANSLATE).decode("ascii")


def blocks_of(digits, cfg=CFG):
    """The block of each group of a (n, groups * g) digit matrix."""
    n, width = digits.shape
    return jr.from_digits(digits.reshape(n, width // cfg.group_size, cfg.group_size),
                          cfg.group_radices)


def encode_row(blocks, cfg=CFG, prev="A"):
    """One stream of ``blocks`` after the nucleotide ``prev``, as letters."""
    mat = np.array(blocks, np.int64).reshape(1, -1)
    return text_of(jr.encode_block_rows(mat, cfg, codes_of(prev))[0])


def decode_row(seq, cfg=CFG, prev="A"):
    """The blocks of one stream after ``prev`` by the position walk, and
    whether it has a rotating violation."""
    codes = codes_of(seq).reshape(1, -1)
    rot = cfg.rotating_mask(codes.shape[1] // cfg.group_size)
    digits, viol = jr.decode_positions(codes, rot, codes_of(prev))
    return blocks_of(digits, cfg)[0].tolist(), bool(viol[0])


def table_row(seq, cfg=CFG, prev="A"):
    """The blocks of one stream after ``prev`` by the decode table."""
    return jr.decode_code_rows(codes_of(seq).reshape(1, -1), cfg, codes_of(prev))[0].tolist()


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_default_config():
    assert CFG.group_radices == (4, 3, 4, 4, 3)
    assert CFG.bits_per_block == 9
    assert DEFAULT_LAYOUT.payload_groups(CFG) == 18
    assert CFG.jump_length == 2
    assert CFG.block_capacity == 576
    assert CFG.block_limit == 512
    # the place value of each digit of a group
    assert jr.from_digits(np.eye(5, dtype=np.uint8), CFG.group_radices).tolist() == [
        144, 48, 12, 3, 1]


def test_preset_configs_validate():
    for jump, bits in ((0, 1), (1, 3), (2, 9)):
        cfg = jr.JrConfig.for_jump(jump)
        assert cfg.jump_length == jump
        assert cfg.bits_per_block == bits
        assert (1 << cfg.bits_per_block) <= cfg.block_capacity
        # every preset fills the same 90-nt payload region
        assert DEFAULT_LAYOUT.payload_groups(cfg) * cfg.group_size == 90
    with pytest.raises(ConfigError):
        jr.JrConfig.for_jump(3)


@pytest.mark.parametrize(
    "radices,jump",
    [((3,), 1), ((3, 4), 4), ((4, 3, 4, 4, 3), 1), ((4, 3, 4, 4, 3), 2.0), ((3,), False)],
)
def test_config_rejects_wrong_jump_length(radices, jump):
    """jump_length is derived from the pattern; a stored one must be that
    integer, not another value, a float or a bool."""
    cfg = jr.JrConfig(list(radices))
    assert jr.JrConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        jr.JrConfig.from_dict({**cfg.to_dict(), "jump_length": jump})


def test_config_rejects_bad_patterns():
    for radices, jump in (((4, 4), 2), ((3, 5), 0)):
        with pytest.raises(ConfigError):
            jr.JrConfig(radices)
        with pytest.raises(ConfigError):
            jr.JrConfig.from_dict({"group_radices": radices, "bits_per_block": 2,
                                   "jump_length": jump})
    # (3, 3) holds 9 patterns, so 3 bits: a stored width of 4 exceeds the
    # capacity and one of 2 is not the derived width
    cfg = jr.JrConfig((3, 3))
    assert cfg.bits_per_block == 3
    for bits in (2, 4, 3.0, True):
        with pytest.raises(ConfigError):
            jr.JrConfig.from_dict({**cfg.to_dict(), "bits_per_block": bits})


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
    digits = jr.to_digits(np.array([[0, 511]]), CFG.group_radices)
    assert digits.dtype == np.uint8
    assert digits.tolist() == [[[0, 0, 0, 0, 0], [3, 1, 2, 2, 1]]]
    assert tuple(digits[0, 1]) == tuples[511]
    blocks = jr.from_digits(np.array([[[3, 2, 3, 3, 2], [0, 0, 0, 0, 0], [3, 1, 2, 2, 1]]]),
                            CFG.group_radices)
    assert blocks.tolist() == [[575, 0, 511]]
    assert blocks[0, 0] >= CFG.block_limit


def test_block_digit_bijection_exhaustive():
    tuples = enumerate_digit_tuples(CFG.group_radices)
    values = np.arange(CFG.block_limit).reshape(1, -1)
    digits = jr.to_digits(values, CFG.group_radices)
    assert digits.reshape(-1, CFG.group_size).tolist() == [list(t) for t in tuples[:512]]
    assert np.array_equal(jr.from_digits(digits, CFG.group_radices), values)
    # values past the encoder limit still decode, and fail the range check
    past = np.array(tuples[CFG.block_limit :], np.uint8)
    back = jr.from_digits(past, CFG.group_radices)
    assert back.tolist() == list(range(CFG.block_limit, CFG.block_capacity))
    assert (back >= CFG.block_limit).all()


def test_from_digits_all_tuples_in_int64():
    """uint8 digits in either memory order sum to int64 block values,
    including those past the byte range (432 = 144 * 3 and up)."""
    tuples = enumerate_digit_tuples(CFG.group_radices)
    digits = np.array(tuples, np.uint8).reshape(-1, 4, CFG.group_size)  # 4 blocks a row
    want = np.arange(CFG.block_capacity).reshape(-1, 4)
    for rows in (digits, np.asfortranarray(digits)):
        got = jr.from_digits(rows, CFG.group_radices)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def python_digits(value, radices):
    """Oracle: the mixed-radix digits of a Python int, most significant first."""
    out = []
    for r in reversed(radices):
        value, d = divmod(value, r)
        out.append(d)
    return out[::-1]


@st.composite
def radices_and_values(draw):
    radices = draw(st.lists(st.integers(2, 1024), min_size=1, max_size=6))
    top = math.prod(radices) - 1
    values = draw(st.lists(st.integers(0, top), min_size=1, max_size=20)
                  | st.just([0, top]))
    return tuple(radices), values


@settings(max_examples=80, deadline=None)
@given(case=radices_and_values())
def test_digit_converters_match_python_ints(case):
    """Over 1 to 6 radices of 2 to 1,024 and values anywhere in their range,
    ``to_digits`` gives the digits Python ints give, in a type holding the
    largest digit, and ``from_digits`` inverts it, also from uint16 digits
    as the parser passes them."""
    radices, values = case
    digits = jr.to_digits(np.array(values, np.int64), radices)
    assert digits.shape == (len(values), len(radices))
    assert np.iinfo(digits.dtype).max >= max(radices) - 1
    assert digits.tolist() == [python_digits(v, radices) for v in values]
    for given_digits in (digits, digits.astype(np.uint16)):
        back = jr.from_digits(given_digits, radices)
        assert back.dtype == np.int64 and back.tolist() == values


# ---------------------------------------------------------------------------
# rotating / direct rules
# ---------------------------------------------------------------------------

def one_position(codes_or_digits, prev, rotating, decode=False):
    """One position per row under one rule, each row after its own ``prev``."""
    mat = np.array(codes_or_digits, np.uint8).reshape(-1, 1)
    prev0 = np.array(prev, np.uint8)
    rot = np.array([rotating])
    if decode:
        return jr.decode_positions(mat, rot, prev0)
    return jr.encode_positions(mat, rot, prev0)[:, 0]


def test_rotate_encode_examples():
    a, t = codes_of("AT")
    assert text_of(one_position([0, 2], [a, t], True)) == "CG"


def test_rotate_never_repeats_and_inverts():
    prev, digit = np.divmod(np.arange(12), 3)  # every context with every digit
    codes = one_position(digit, prev, True)
    assert (codes != prev).all()
    # a bijection onto the three alternatives of each context
    assert all(len(set(codes[prev == p].tolist())) == 3 for p in range(4))
    back, viol = one_position(codes, prev, True, decode=True)
    assert back[:, 0].tolist() == digit.tolist() and not viol.any()


def test_rotate_decode_violation():
    codes, prev = codes_of("ACG"), codes_of("AAT")
    digits, viol = one_position(codes, prev, True, decode=True)
    assert viol.tolist() == [True, False, False]  # a repeated nucleotide is a violation
    assert digits[1:, 0].tolist() == [0, 2]


def test_direct_bijection():
    digits = np.arange(4)
    for prev in range(4):  # a direct position ignores its context
        codes = one_position(digits, [prev] * 4, False)
        assert text_of(codes) == "ACGT"
        back, viol = one_position(codes, [prev] * 4, False, decode=True)
        assert back[:, 0].tolist() == digits.tolist() and not viol.any()


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_encode_stream_examples():
    assert encode_row([511]) == "TCGGA"
    assert encode_row([0]) == "ACAAC"
    assert encode_row([]) == ""


def test_decode_stream_examples():
    assert decode_row("TCGGA") == ([511], False)
    assert decode_row("TTGGA")[1]  # the second nucleotide, which rotates, repeats T
    assert not decode_row("TCGGA", prev="T")[1]  # the first position is direct
    assert table_row("TCGGA") == [511]
    assert table_row("TTGGA") == [CFG.block_limit]


def test_decode_detects_out_of_range_group():
    # digit bump at the first rotating position lifts the value to 559 >= 512
    assert encode_row([511]) == "TCGGA"
    assert decode_row("TGGGA") == ([559], False)
    assert table_row("TGGGA") == [CFG.block_limit]


def test_stream_round_trip_fuzz():
    rng = np.random.default_rng(99)
    for jump in (0, 1, 2):
        cfg = jr.JrConfig.for_jump(jump)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            blocks = [int(b) for b in rng.integers(0, cfg.block_limit, n)]
            prev = jr.ALPHABET[int(rng.integers(0, 4))]
            seq = encode_row(blocks, cfg, prev)
            assert len(seq) == n * cfg.group_size
            assert decode_row(seq, cfg, prev) == (blocks, False)
            assert table_row(seq, cfg, prev) == blocks


def test_stream_range_error():
    """A payload block outside [0, block_limit) is refused before encoding."""
    for bad in (512, -1, 575):
        blocks = np.zeros((2, DEFAULT_LAYOUT.payload_groups(CFG)), np.int64)
        blocks[1, -1] = bad
        with pytest.raises(RangeError):
            assemble_many(np.array([0, 1]), blocks)


def test_code_string_maps():
    """Bytes outside ACGT give code 255; codes outside 0..3 give N."""
    assert codes_of("ACGTNa-").tolist() == [0, 1, 2, 3, 255, 255, 255]
    assert bytes([3, 2, 1, 0, 4, 255]).translate(jr._CODE_TRANSLATE) == b"TGCANN"


def test_rotating_context_crosses_group_boundary():
    # last nucleotide of the first group feeds the second group's first
    # rotating position; re-encoding group 2 alone with the right context
    # must reproduce the tail of the joint stream
    joint = encode_row([511, 37])
    head = encode_row([511])
    tail = encode_row([37], prev=head[-1])
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
    # a row encoded on its own agrees with the batch
    for i in (0, 999, 9_999):
        alone = jr.encode_block_rows(blocks[i : i + 1], cfg, prev0[i : i + 1])
        assert np.array_equal(alone[0], codes[i])


def test_round_trip_bulk_block_lists():
    """10^4 random block lists survive encode/decode exactly."""
    rng = np.random.default_rng(21)
    blocks = rng.integers(0, CFG.block_limit, (10_000, 20), dtype=np.int64)
    prev0 = rng.integers(0, 4, 10_000).astype(np.uint8)
    codes = jr.encode_block_rows(blocks, CFG, prev0)
    assert np.array_equal(jr.decode_code_rows(codes, CFG, prev0), blocks)


def test_out_of_range_group_always_detected():
    """Any group decoding to a value past the encoder limit is corruption:
    the walk decodes it to that value, and the table to the limit."""
    rng = np.random.default_rng(31)
    tuples = enumerate_digit_tuples(CFG.group_radices)
    values = np.arange(CFG.block_limit, CFG.block_capacity)
    digits = np.array(tuples, np.uint8)[values]
    prev0 = rng.integers(0, 4, values.size).astype(np.uint8)
    codes = jr.encode_positions(digits, CFG.rotating_mask(1), prev0)
    digits, viol = jr.decode_positions(codes, CFG.rotating_mask(1), prev0)
    assert not viol.any()
    assert blocks_of(digits)[:, 0].tolist() == values.tolist()
    assert (jr.decode_code_rows(codes, CFG, prev0) == CFG.block_limit).all()


def test_rotating_substitution_to_predecessor_always_detected():
    rng = np.random.default_rng(3)
    cfg = CFG
    rot_positions = [i for i, r in enumerate(cfg.group_radices) if r == 3]
    for _ in range(100):
        blocks = [int(b) for b in rng.integers(0, cfg.block_limit, 6)]
        seq = encode_row(blocks, cfg)
        g = int(rng.integers(0, 6))
        p = g * cfg.group_size + rot_positions[int(rng.integers(0, len(rot_positions)))]
        corrupted = seq[:p] + seq[p - 1] + seq[p + 1 :]
        if corrupted == seq:
            continue  # substitution must change the nucleotide to count
        assert decode_row(corrupted, cfg)[1]
        # the walk is clean up to the corrupted group, and the table rejects that group
        assert not decode_row(corrupted[: g * cfg.group_size], cfg)[1]
        got = table_row(corrupted, cfg)
        assert got[:g] == blocks[:g] and got[g] == CFG.block_limit


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
    assert not viol.any()


# ---------------------------------------------------------------------------
# codec tables against the position walk
# ---------------------------------------------------------------------------

radix_patterns = st.lists(st.sampled_from([3, 4]), min_size=1, max_size=6).filter(
    lambda p: 3 in p)


def walk_decode(codes, cfg, prev0):
    """The rows the parser accepts by the position walk, and their blocks:
    no code of 255, no rotating violation and every block below the limit."""
    n_groups = codes.shape[1] // cfg.group_size
    digits, viol = jr.decode_positions(codes, cfg.rotating_mask(n_groups), prev0)
    blocks = blocks_of(digits, cfg)
    ok = (codes != 255).all(axis=1) & ~viol & (blocks < cfg.block_limit).all(axis=1)
    return ok, blocks[ok]


@settings(max_examples=60, deadline=None)
@given(radices=radix_patterns, n_groups=st.integers(0, 7), n=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_decode_table_accepts_the_rows_the_walk_accepts(radices, n_groups, n, seed):
    """Random code rows, some encoded from every digit tuple a group holds
    (so blocks past the limit appear), some with a position set to the code
    before it (a violation where that position rotates) or to 255, some
    random: the table decode accepts the same rows as the walk, with the
    same blocks."""
    cfg = jr.JrConfig(tuple(radices))
    rng = np.random.default_rng(seed)
    width = n_groups * cfg.group_size
    radii = np.tile(np.array(cfg.group_radices), n_groups)
    digits = (rng.random((n, width)) * radii).astype(np.uint8)
    prev0 = rng.integers(0, 4, n).astype(np.uint8)
    codes = jr.encode_positions(digits, cfg.rotating_mask(n_groups), prev0)
    if width:
        hit = np.flatnonzero(rng.random(n) < 0.4)
        col = rng.integers(0, width, hit.size)
        before = np.where(col > 0, codes[hit, col - 1], prev0[hit])
        kind = rng.integers(0, 3, hit.size)
        codes[hit, col] = np.select([kind == 0, kind == 1], [before, 255], rng.integers(0, 4, hit.size))
        codes[rng.random(n) < 0.1] = rng.integers(0, 4, width)
    ok, blocks = walk_decode(codes, cfg, prev0)
    got = jr.decode_code_rows(codes, cfg, prev0)
    assert got.shape == (n, n_groups)
    got_ok = (codes != 255).all(axis=1) & (got < cfg.block_limit).all(axis=1)
    assert np.array_equal(got_ok, ok)
    assert np.array_equal(got[got_ok], blocks)


@settings(max_examples=60, deadline=None)
@given(radices=radix_patterns, n_groups=st.integers(0, 13), n=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_encode_table_matches_the_walk(radices, n_groups, n, seed):
    """Random blocks below the limit, in any count of groups (so the last
    run of an encode key is padded): the table encode gives the walk's
    codes."""
    cfg = jr.JrConfig(tuple(radices))
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, cfg.block_limit, (n, n_groups))
    prev0 = rng.integers(0, 4, n).astype(np.uint8)
    digits = jr.to_digits(blocks, cfg.group_radices).reshape(n, n_groups * cfg.group_size)
    want = jr.encode_positions(digits, cfg.rotating_mask(n_groups), prev0)
    assert np.array_equal(jr.encode_block_rows(blocks, cfg, prev0), want)


@pytest.mark.parametrize("jump", [0, 1, 2])
def test_preset_tables_are_built_from_the_walk(jump):
    """Each preset's decode table has 4 * 4^g entries, every key through
    the walk, and its encode table keys runs of about 5 nt."""
    cfg = jr.JrConfig.for_jump(jump)
    g = cfg.group_size
    keys = np.arange(4 ** (g + 1))
    codes = ((keys[:, None] >> np.arange(2 * g, -1, -2)) & 3).astype(np.uint8)
    ok, blocks = walk_decode(codes[:, 1:], cfg, codes[:, 0])
    table = cfg.decode_table
    assert table.shape == (4 * 4**g,)
    assert np.array_equal(table[ok], blocks[:, 0])
    assert (table[~ok] == cfg.block_limit).all()
    m = {0: 5, 1: 2, 2: 1}[jump]
    assert cfg.encode_table.shape == (4 * cfg.block_limit**m, m * g)


def test_groups_too_wide_to_tabulate_are_refused():
    """Every code has its tables: a pattern whose group is wider than a
    table holds (7 nt) is not a code."""
    with pytest.raises(ConfigError):
        jr.JrConfig((4, 3, 4, 4, 3, 4, 3))
    with pytest.raises(ConfigError):
        jr.JrConfig.from_dict({"group_radices": [4, 3, 4, 4, 3, 4, 3], "bits_per_block": 12,
                               "jump_length": 2})
    assert jr.JrConfig((4, 4, 4, 4, 4, 3)).bits_per_block == 11  # the widest that is
