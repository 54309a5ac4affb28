"""Tile mapping, manifests, raw mode, and PGM/PBM files."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjdna import jr
from pjdna.channel import vote
from pjdna.errors import CapacityError, ConfigError, FormatError
from pjdna.images import _read_header_tokens, read_pbm, read_pgm, write_pbm, write_pgm
from pjdna.partition import (
    TileManifest,
    decode_image,
    decode_raw,
    encode_image,
    encode_raw,
)
from pjdna.strand import DEFAULT_LAYOUT, ParseBatch, StrandLayout

CFG = jr.JrConfig()


def pairs_of(strands):
    return [(s.index_value, s.payload) for s in strands]


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_image_manifest_arithmetic():
    m = TileManifest.for_image(400, 533, CFG, DEFAULT_LAYOUT)
    assert m.tile_pixels == 20
    assert m.strand_count == 10660
    assert m.pad_bits_per_tile == 2
    m = TileManifest.for_image(285, 409, CFG, DEFAULT_LAYOUT)
    assert m.strand_count == 5829


def test_raw_manifest_arithmetic():
    m = TileManifest.for_raw(819200, CFG, DEFAULT_LAYOUT)
    assert m.strand_count == 5057
    assert TileManifest.for_raw(0, CFG, DEFAULT_LAYOUT).strand_count == 0


def test_manifest_json_round_trip(tmp_path):
    m = TileManifest.for_image(64, 48, CFG, DEFAULT_LAYOUT)
    path = tmp_path / "m.json"
    m.save(path)
    assert TileManifest.load(path) == m


def test_manifest_rejects_unknown_and_missing_keys(tmp_path):
    m = TileManifest.for_image(64, 48, CFG, DEFAULT_LAYOUT)
    d = m.to_dict()
    with pytest.raises(FormatError):
        TileManifest.from_dict({**d, "surprise": 1})
    d2 = dict(d)
    del d2["strand_count"]
    with pytest.raises(FormatError):
        TileManifest.from_dict(d2)
    d3 = dict(d)
    d3["strand_count"] = 99  # inconsistent with geometry
    with pytest.raises(FormatError):
        TileManifest.from_dict(d3)
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        TileManifest.load(path)


@pytest.mark.parametrize("key, value", [("bits_per_block", 8), ("bits_per_block", 10),
                                        ("groups_per_payload", 17), ("groups_per_payload", None)])
def test_manifest_rejects_a_stored_codec_value_that_is_not_derived(key, value):
    """Bits per block derive from the pattern and payload groups from the
    layout; a stored value must be the derived one, and the key is needed."""
    d = TileManifest.for_raw(8 * 300, CFG, DEFAULT_LAYOUT).to_dict()
    assert (d["cfg"]["bits_per_block"], d["cfg"]["groups_per_payload"]) == (9, 18)
    cfg = {**d["cfg"], key: value}
    if value is None:
        del cfg[key]
    with pytest.raises(FormatError, match=key):
        TileManifest.from_dict({**d, "cfg": cfg})


# patterns of 1 to 6 radices from {3, 4} that hold at least one rotating 3
radix_patterns = st.lists(st.sampled_from([3, 4]), min_size=1, max_size=6).filter(
    lambda p: 3 in p)


@settings(max_examples=60, deadline=None)
@given(pattern=radix_patterns, payload_groups=st.integers(1, 30),
       stray_nt=st.integers(0, 5), data=st.binary(max_size=120))
def test_any_pattern_is_a_whole_codec(pattern, payload_groups, stray_nt, data):
    """A radix pattern is the whole config: it survives its dict, its block
    is the widest its capacity holds, and over any payload of whole groups
    its raw manifest survives its dict and its strands decode to the data."""
    cfg = jr.JrConfig(pattern)
    assert jr.JrConfig.from_dict(cfg.to_dict()) == cfg
    assert 2 ** cfg.bits_per_block <= cfg.block_capacity < 2 ** (cfg.bits_per_block + 1)
    g = cfg.group_size
    layout = StrandLayout(index_nt=10 * g, payload_nt=payload_groups * g)
    strands, manifest = encode_raw(data, cfg, layout)
    d = manifest.to_dict()
    assert d["cfg"]["groups_per_payload"] == payload_groups
    assert TileManifest.from_dict(d) == manifest
    assert decode_raw(vote(strands.pool, layout, cfg), manifest)[0] == data
    if stray_nt % g:
        ragged = StrandLayout(index_nt=10 * g, payload_nt=layout.payload_nt + stray_nt % g)
        with pytest.raises(ConfigError):
            ragged.validate(cfg)


def test_manifest_capacity_checks():
    with pytest.raises(ConfigError, match="tile_pixels 21 needs 168 bits, payload holds 162"):
        TileManifest.for_image(64, 48, CFG, DEFAULT_LAYOUT, tile_pixels=21)
    with pytest.raises(CapacityError):
        # 2^18 tiles of 20 px need more index space than 18 bits give
        TileManifest.for_image(4096, 2048, CFG, DEFAULT_LAYOUT, tile_pixels=20)


# ---------------------------------------------------------------------------
# image mode
# ---------------------------------------------------------------------------

def test_lossless_round_trip(rng):
    img = rng.integers(0, 256, (97, 53), dtype=np.uint8)
    strands, manifest = encode_image(img)
    rec = decode_image(pairs_of(strands), manifest)
    assert np.array_equal(rec.image, img)
    assert not rec.missing_mask.any()
    assert rec.stats["strands_recovered"] == manifest.strand_count


def test_one_by_one_image():
    img = np.array([[123]], np.uint8)
    strands, manifest = encode_image(img)
    assert manifest.strand_count == 1
    assert manifest.pad_bits_per_tile == 2
    rec = decode_image(pairs_of(strands), manifest)
    assert rec.image[0, 0] == 123


def test_total_loss_still_decodes():
    img = np.full((40, 40), 200, np.uint8)
    _, manifest = encode_image(img)
    rec = decode_image([], manifest)
    assert (rec.image == 0).all()
    assert rec.missing_mask.all()
    assert rec.masked_fraction == 1.0


def test_partition_independence(rng):
    """Removing a strand subset changes only the pixels of its tiles."""
    img = rng.integers(0, 256, (60, 50), dtype=np.uint8)
    strands, manifest = encode_image(img)
    full = decode_image(pairs_of(strands), manifest)
    lost = set(rng.choice(manifest.strand_count, 37, replace=False).tolist())
    kept = [s for s in strands if s.index_value not in lost]
    partial = decode_image(pairs_of(kept), manifest)
    tp = manifest.tile_pixels
    flat_changed = (partial.image != full.image).reshape(-1)
    flat_mask = partial.missing_mask.reshape(-1)
    for pix in np.nonzero(flat_changed)[0]:
        assert pix // tp in lost
    # the mask covers exactly the lost tiles' pixels
    for pix in range(img.size):
        assert flat_mask[pix] == (pix // tp in lost)


def test_masked_fraction_matches_lost_tiles(rng):
    img = rng.integers(0, 256, (80, 80), dtype=np.uint8)  # 6400 px = 320 tiles
    strands, manifest = encode_image(img)
    kept = [s for s in strands if s.index_value % 4]  # drop every 4th tile
    rec = decode_image(pairs_of(kept), manifest)
    assert rec.masked_fraction == pytest.approx(0.25)


def test_stray_and_duplicate_indices(rng):
    img = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    strands, manifest = encode_image(img)
    pairs = pairs_of(strands)
    bogus = (manifest.strand_count + 5, strands[0].payload)
    stale = (strands[3].index_value, strands[4].payload)
    # last write wins: the true payload appears after the stale duplicate
    rec = decode_image([bogus, stale] + pairs, manifest)
    assert np.array_equal(rec.image, img)
    assert rec.stats["stray_indices"] == 1


def test_image_too_large_for_index_space():
    img = np.zeros((4096, 2048), np.uint8)
    with pytest.raises(CapacityError):
        encode_image(img)


def test_encode_rejects_non_uint8():
    with pytest.raises(ConfigError):
        encode_image(np.zeros((4, 4), np.float64))


# ---------------------------------------------------------------------------
# raw mode
# ---------------------------------------------------------------------------

def test_raw_round_trip(rng):
    data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    strands, manifest = encode_raw(data)
    out, mask, stats = decode_raw(pairs_of(strands), manifest)
    assert out == data
    assert not mask.any()
    assert stats["strands_recovered"] == manifest.strand_count


@pytest.mark.parametrize("jump", [0, 1, 2])
def test_every_preset_fills_a_60_nt_payload(rng, jump):
    """Payload groups come from the layout, so every preset works with any
    payload of whole groups, here 60 nt instead of the default 90."""
    cfg, layout = jr.JrConfig.for_jump(jump), StrandLayout(payload_nt=60)
    data = rng.integers(0, 256, 200, dtype=np.uint8).tobytes()
    strands, manifest = encode_raw(data, cfg, layout)
    assert manifest.payload_capacity == 60 // cfg.group_size * cfg.bits_per_block
    out, mask, stats = decode_raw(vote(strands.pool, layout, cfg), manifest)
    assert out == data
    assert not mask.any()
    assert stats["strands_recovered"] == manifest.strand_count


def test_raw_empty_input():
    strands, manifest = encode_raw(b"")
    assert len(strands) == 0
    out, mask, _ = decode_raw([], manifest)
    assert out == b""
    assert mask.size == 0


def test_raw_single_missing_strand_gap(rng):
    data = rng.integers(0, 256, 1000, dtype=np.uint8).tobytes()
    strands, manifest = encode_raw(data)
    missing = 7
    kept = [s for s in strands if s.index_value != missing]
    out, mask, _ = decode_raw(pairs_of(kept), manifest)
    cap = manifest.payload_capacity
    lo, hi = missing * cap, min((missing + 1) * cap, 8000)
    bits_out = np.unpackbits(np.frombuffer(out, np.uint8))
    bits_in = np.unpackbits(np.frombuffer(data, np.uint8))
    assert mask[lo:hi].all()
    assert not mask[:lo].any() and not mask[hi:].any()
    assert (bits_out[lo:hi] == 0).all()
    assert np.array_equal(bits_out[:lo], bits_in[:lo])
    assert np.array_equal(bits_out[hi:], bits_in[hi:])


# ---------------------------------------------------------------------------
# the tile scatter against the pair-list decoder it replaced
# ---------------------------------------------------------------------------

def reference_tiles(pairs, manifest):
    """The pair-list decoders' shared steps, as they were: stray count,
    last-entry-wins dedupe after a stable sort, payload rows."""
    n = manifest.strand_count
    stray = 0
    if pairs:
        idx = np.fromiter((p[0] for p in pairs), np.int64, len(pairs))
        valid = (idx >= 0) & (idx < n)
        stray = int((~valid).sum())
        pairs = [p for p, v in zip(pairs, valid) if v]
    idx = np.fromiter((p[0] for p in pairs), np.int64, len(pairs))
    order = np.argsort(idx, kind="stable")
    last = np.nonzero(np.append(idx[order][1:] != idx[order][:-1], True))[0]
    keep = order[last] if pairs else np.empty(0, np.int64)
    nbytes = manifest.layout.payload_bytes_len(manifest.cfg)
    rows = np.frombuffer(b"".join(pairs[i][1] for i in keep), np.uint8).reshape(-1, nbytes)
    stats = {"strands_expected": n, "strands_recovered": len(keep),
             "tiles_missing": n - len(keep), "stray_indices": stray}
    return idx[keep], rows, stats


def reference_decode_image(pairs, manifest):
    n, tp = manifest.strand_count, manifest.tile_pixels
    idx, rows, stats = reference_tiles(pairs, manifest)
    tiles = np.zeros((n, tp), np.uint8)
    seen = np.zeros(n, bool)
    tiles[idx] = rows[:, :tp]
    seen[idx] = True
    hw, shape = manifest.width * manifest.height, (manifest.height, manifest.width)
    missing = np.repeat(~seen, tp)[:hw].reshape(shape)
    return tiles.reshape(-1)[:hw].reshape(shape), missing, stats


def reference_decode_raw(pairs, manifest):
    n, capacity = manifest.strand_count, manifest.payload_capacity
    idx, rows, stats = reference_tiles(pairs, manifest)
    bits = np.zeros(n * capacity, np.uint8)
    seen = np.zeros(n, bool)
    pos = (idx[:, None] * capacity + np.arange(capacity)).reshape(-1)
    bits[pos] = np.unpackbits(rows, axis=1)[:, :capacity].reshape(-1)
    seen[idx] = True
    total = manifest.total_bits
    return np.packbits(bits[:total]).tobytes(), np.repeat(~seen, capacity)[:total], stats


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decoders_match_pair_list_reference(data):
    nbytes = DEFAULT_LAYOUT.payload_bytes_len(CFG)
    if data.draw(st.booleans(), "image"):
        manifest = TileManifest.for_image(
            data.draw(st.integers(1, 12), "width"), data.draw(st.integers(1, 6), "height"),
            CFG, DEFAULT_LAYOUT, data.draw(st.integers(1, 20), "tile_pixels"))
    else:
        manifest = TileManifest.for_raw(8 * data.draw(st.integers(0, 80), "bytes"),
                                        CFG, DEFAULT_LAYOUT)
    n = manifest.strand_count
    # a narrow index range makes duplicates common; strays fall on both sides
    indices = data.draw(st.lists(st.integers(-3, n + 2), max_size=24), "indices")
    payloads = [data.draw(st.binary(min_size=nbytes, max_size=nbytes)) for _ in indices]
    form = data.draw(st.sampled_from(["list", "generator", "batch"]), "form")
    pairs = list(zip(indices, payloads))
    accepted = pairs if form == "list" else iter(pairs)
    if form == "batch":
        rows = np.frombuffer(b"".join(payloads), np.uint8).reshape(-1, nbytes)
        blocks = jr.unpack_block_rows(rows, DEFAULT_LAYOUT.payload_groups(CFG), CFG.bits_per_block)
        accepted = ParseBatch(np.array(indices, np.int64), blocks, {"accepted": len(indices)})
        pairs = list(zip(indices, accepted.payload_bytes(CFG)))
    parse_stats = data.draw(st.sampled_from([None, {"accepted": len(indices)}]), "stats")
    if manifest.mode == "image":
        image, missing, stats = reference_decode_image(pairs, manifest)
        rec = decode_image(accepted, manifest, parse_stats=parse_stats)
        assert np.array_equal(rec.image, image)
        assert np.array_equal(rec.missing_mask, missing)
        got = rec.stats
    else:
        out, mask, stats = reference_decode_raw(pairs, manifest)
        got_out, got_mask, got = decode_raw(accepted, manifest, parse_stats=parse_stats)
        assert got_out == out
        assert np.array_equal(got_mask, mask)
    assert got == {**stats, **(parse_stats or {})}


# ---------------------------------------------------------------------------
# PGM / PBM
# ---------------------------------------------------------------------------

def test_pgm_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, (33, 77), dtype=np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_rejects_ascii_and_truncation(tmp_path):
    p2 = tmp_path / "a.pgm"
    p2.write_text("P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(FormatError):
        read_pgm(p2)
    empty = tmp_path / "e.pgm"
    empty.write_bytes(b"")
    with pytest.raises(FormatError):
        read_pgm(empty)
    short = tmp_path / "s.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(short)
    wrong_max = tmp_path / "m.pgm"
    wrong_max.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(wrong_max)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x08")
    assert np.array_equal(read_pgm(path), np.array([[7, 8]], np.uint8))


def reference_header_tokens(data: bytes, count: int, path) -> tuple[list[int], int]:
    """The byte-at-a-time header walk the two regexes replaced."""
    tokens: list[int] = []
    i = 2
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError(f"{path}: truncated header")
        ch = data[i : i + 1]
        if ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tok = data[i:j]
            if not tok.isdigit():
                raise FormatError(f"{path}: bad header token {tok!r}")
            if len(tok) > 19:
                raise FormatError(f"{path}: header number of {len(tok)} digits")
            tokens.append(int(tok))
            i = j
    if i >= len(data) or not data[i : i + 1].isspace():
        raise FormatError(f"{path}: header not terminated")
    return tokens, i + 1


def _header_outcome(read, data, count):
    try:
        return read(data, count, "h")
    except FormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(body=st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#",
                                      b"# c\n", b"0", b"7", b"12", b"9" * 20, b"x", b"\xa0"]),
                     max_size=16),
       count=st.integers(1, 3))
def test_header_tokens_match_byte_walk(body, count):
    data = b"P5" + b"".join(body)
    assert (_header_outcome(_read_header_tokens, data, count)
            == _header_outcome(reference_header_tokens, data, count))


@pytest.mark.parametrize("filler", [b"#" + b"c" * (2 << 20) + b"\n", b" " * (2 << 20)])
def test_pgm_header_behind_2mb_filler_reads_fast(tmp_path, filler):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5" + filler + b"4 4\n255\n" + bytes(range(16)))
    start = time.perf_counter()
    img = read_pgm(path)
    assert time.perf_counter() - start < 0.1
    assert np.array_equal(img, np.arange(16, dtype=np.uint8).reshape(4, 4))


def test_pbm_round_trip(tmp_path, rng):
    mask = rng.random((19, 31)) < 0.4
    path = tmp_path / "m.pbm"
    write_pbm(path, mask)
    assert np.array_equal(read_pbm(path), mask)
