"""Tile mapping, manifests, raw mode, and PGM/PBM files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjdna import jr
from pjdna.errors import CapacityError, ConfigError, FormatError
from pjdna.images import read_pbm, read_pgm, write_pbm, write_pgm
from pjdna.partition import (
    TileManifest,
    decode_image,
    decode_raw,
    encode_image,
    encode_raw,
)
from pjdna.strand import DEFAULT_LAYOUT, ParseBatch

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


def test_manifest_capacity_checks():
    with pytest.raises(ConfigError):
        TileManifest.for_image(64, 48, CFG, DEFAULT_LAYOUT, tile_pixels=21)  # 168 > 162
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
        blocks = jr.unpack_block_rows(rows, CFG.groups_per_payload, CFG.bits_per_block)
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


def test_pbm_round_trip(tmp_path, rng):
    mask = rng.random((19, 31)) < 0.4
    path = tmp_path / "m.pbm"
    write_pbm(path, mask)
    assert np.array_equal(read_pbm(path), mask)
