"""Loss sweeps and IDX dataset machinery."""

import os

import numpy as np
import pytest

from pjdna import idx
from pjdna.channel import ChannelProfile, drop_strands, preset, vote
from pjdna.errors import ConfigError, FormatError
from pjdna.idx import (
    degrade_dataset,
    read_idx_images,
    read_idx_labels,
    read_labels,
    write_idx_images,
    write_idx_labels,
)
from pjdna.jr import DEFAULT_CONFIG, JrConfig
from pjdna.metrics import em_ssim, ssim
from pjdna.partition import decode_image, encode_image
from pjdna.sweep import CSV_HEADER, loss_sweep


@pytest.fixture()
def gradient():
    return np.tile(np.linspace(0, 255, 80, dtype=np.uint8), (80, 1))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_rate_zero_rows(gradient):
    res = loss_sweep(gradient, [0.0], [0, 1])
    for row in res.rows:
        assert row.ssim_raw == 1.0
        assert row.masked_fraction == 0.0


def test_sweep_structure_and_order(gradient):
    res = loss_sweep(gradient, [0.5, 0.0, 0.1], [1, 0])
    # rates ascend; within a rate, seeds keep their given order; EM before PM
    key = [(r.loss_rate, r.seed, r.scheme) for r in res.rows]
    assert key == [
        (rate, seed, scheme)
        for rate in (0.0, 0.1, 0.5)
        for seed in (1, 0)
        for scheme in ("EM", "PM")
    ]
    assert len({k for k in key}) == len(key)


def test_sweep_pm_dominates_em(gradient):
    res = loss_sweep(gradient, [0.05, 0.25, 0.75], [0, 1, 2])
    for rate in (0.05, 0.25, 0.75):
        for seed in (0, 1, 2):
            pm = next(
                r for r in res.rows
                if r.scheme == "PM" and r.loss_rate == rate and r.seed == seed
            )
            em = next(
                r for r in res.rows
                if r.scheme == "EM" and r.loss_rate == rate and r.seed == seed
            )
            assert em.ssim_raw == 0.0
            assert pm.ssim_raw > em.ssim_raw


def test_sweep_median_monotone(gradient):
    res = loss_sweep(gradient, [0.0, 0.1, 0.5, 0.9], [0, 1, 2, 3])
    assert res.pm_medians_non_increasing()


def test_sweep_csv_format(gradient):
    res = loss_sweep(gradient, [0.0], [0], run_inpaint=True)
    text = res.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,0,EM,1.000000,1.000000,0.000000"
    assert lines[2] == "0,0,PM,1.000000,1.000000,0.000000"
    # without inpainting the column stays empty
    res2 = loss_sweep(gradient, [0.0], [0])
    assert ",1.000000,,0.000000" in res2.to_csv()


def test_sweep_threads_match_serial(gradient):
    serial = loss_sweep(gradient, [0.1, 0.5], [0, 1], threads=1)
    threaded = loss_sweep(gradient, [0.1, 0.5], [0, 1], threads=4)
    assert serial.rows == threaded.rows


def test_sweep_inpaint_only_fills_requested(gradient):
    res = loss_sweep(gradient, [0.1], [0])
    pm = res.scheme_rows("PM")[0]
    assert pm.ssim_inpainted is None
    res = loss_sweep(gradient, [0.1], [0], run_inpaint=True)
    pm = res.scheme_rows("PM")[0]
    assert pm.ssim_inpainted is not None
    assert pm.ssim_inpainted > pm.ssim_raw


def test_sweep_inpaint_uplift_on_gradient_up_to_half_loss(gradient):
    res = loss_sweep(gradient, [0.25, 0.5], [0, 1, 2], run_inpaint=True)
    for row in res.scheme_rows("PM"):
        assert row.ssim_inpainted >= row.ssim_raw


def test_noiseless_sweep_matches_dropping_strands(gradient):
    """Noiseless cells zero the lost tiles without building a strand; the
    rows are those of dropping the assembled ASCII strands, voting on the
    survivors and decoding the vote."""
    rates, seeds = [0.0, 0.3, 0.9, 1.0], [0, 4]
    res = loss_sweep(gradient, rates, seeds)
    strands, manifest = encode_image(gradient)
    expect = []
    for rate in rates:
        for seed in seeds:
            survivors = drop_strands(strands, rate, seed)
            rec = decode_image(vote(survivors.pool), manifest)
            expect.append((em_ssim(len(survivors), len(strands)), ssim(gradient, rec.image),
                           rec.masked_fraction))
    got = [(em.ssim_raw, pm.ssim_raw, pm.masked_fraction)
           for em, pm in zip(res.rows[0::2], res.rows[1::2])]
    assert got == expect


def test_sweep_noisy_profile_path(gradient):
    prof = ChannelProfile(sub_p=0.005, coverage_mean=5, seed=0)
    res = loss_sweep(gradient, [0.1], [0, 1], base_profile=prof)
    for row in res.scheme_rows("PM"):
        assert 0.0 < row.ssim_raw <= 1.0


# (masked fraction, raw SSIM) of the PM row of each (rate, seed) cell, rates
# 0.1 and 0.5 by seeds 0 and 1, as the sweep gave them when it built each
# cell's profile field by field, re-recorded for channel stream 3
NOISY_SWEEP_PM = {
    "aging95C": [0.096875, 0.429639, 0.1, 0.514865, 0.41875, 0.073836, 0.475, 0.06605],
    "xray": [0.165625, 0.153023, 0.165625, 0.179392, 0.465625, 0.048932, 0.525, 0.04489],
}


@pytest.mark.parametrize("name", sorted(NOISY_SWEEP_PM))
def test_sweep_noisy_presets_pin_rows(gradient, name):
    res = loss_sweep(gradient, [0.1, 0.5], [0, 1], base_profile=preset(name, 9))
    got = [x for r in res.scheme_rows("PM") for x in (r.masked_fraction, r.ssim_raw)]
    assert got == pytest.approx(NOISY_SWEEP_PM[name], abs=2e-6)


def test_sweep_rejects_bad_rate(gradient):
    with pytest.raises(ConfigError):
        loss_sweep(gradient, [1.5], [0])


@pytest.mark.parametrize("profile", [None, ChannelProfile(sub_p=0.01, coverage_mean=2)])
def test_sweep_refuses_what_encoding_refuses(gradient, profile):
    """A noiseless sweep builds only the manifest, and still refuses an image
    or a tile that encoding the image would."""
    for bad in (np.stack([gradient] * 3, axis=-1), gradient.astype(float)):
        with pytest.raises(ConfigError, match="image must be a 2-D uint8 array"):
            loss_sweep(bad, [0.5], [0], base_profile=profile)
    with pytest.raises(ConfigError, match="tile_pixels 21 needs 168 bits, payload holds 162"):
        loss_sweep(gradient, [0.5], [0], base_profile=profile, tile_pixels=21)


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------

def test_idx_image_round_trip(tmp_path, rng):
    imgs = rng.integers(0, 256, (7, 28, 28), dtype=np.uint8)
    path = tmp_path / "im.idx"
    write_idx_images(path, imgs)
    assert np.array_equal(read_idx_images(path), imgs)


def test_idx_label_round_trip(tmp_path):
    path = tmp_path / "lab.idx"
    write_idx_labels(path, [1, 2, 9, 0])
    assert read_idx_labels(path).tolist() == [1, 2, 9, 0]
    assert read_labels(path).tolist() == [1, 2, 9, 0]


def test_labels_from_text(tmp_path):
    path = tmp_path / "lab.txt"
    path.write_text("3\n1\n\n4\n")
    assert read_labels(path).tolist() == [3, 1, 4]
    bad = tmp_path / "bad.txt"
    bad.write_text("3\nx\n")
    with pytest.raises(FormatError):
        read_labels(bad)


def test_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x00\x00\x08\x05" + b"\x00" * 12)
    with pytest.raises(FormatError):
        read_idx_images(path)
    with pytest.raises(FormatError):
        read_idx_labels(path)
    short = tmp_path / "short.idx"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(FormatError):
        read_idx_images(short)


def test_idx_rejects_header_promising_more_than_the_file(tmp_path):
    huge = tmp_path / "huge.idx"
    huge.write_bytes(bytes.fromhex("00000803") + b"\xff" * 12 + b"\x00" * 64)
    with pytest.raises(FormatError, match="shorter than its header promises"):
        read_idx_images(huge)
    labels = tmp_path / "labels.idx"
    labels.write_bytes(bytes.fromhex("00000801") + b"\xff" * 4 + b"\x07" * 9)
    with pytest.raises(FormatError, match="shorter than its header promises"):
        read_idx_labels(labels)


def _pipe(data: bytes) -> int:
    """The read end of a pipe already holding ``data``."""
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    return r


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_idx_reads_from_a_pipe(tmp_path, rng):
    imgs = rng.integers(0, 256, (3, 4, 5), dtype=np.uint8)
    write_idx_images(tmp_path / "im.idx", imgs)
    data = (tmp_path / "im.idx").read_bytes()
    cases = [(data + b"\x00" * 3, None),  # trailing bytes are ignored, as in a file
             (data[:-1], FormatError),
             (bytes.fromhex("00000803") + b"\xff" * 12, FormatError)]
    for content, error in cases:
        fd = _pipe(content)
        try:
            if error is None:
                assert np.array_equal(read_idx_images(f"/dev/fd/{fd}"), imgs)
            else:
                with pytest.raises(error, match="shorter than its header promises"):
                    read_idx_images(f"/dev/fd/{fd}")
        finally:
            os.close(fd)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_labels_read_from_a_pipe(tmp_path):
    """A label file is read once: sniffing its magic from a pipe must not
    swallow the bytes that the labels are then parsed from."""
    write_idx_labels(tmp_path / "lab.idx", [1, 2, 9, 0])
    for content in ((tmp_path / "lab.idx").read_bytes(), b"1\n2\n\n9\n0\n"):
        fd = _pipe(content)
        try:
            assert read_labels(f"/dev/fd/{fd}").tolist() == [1, 2, 9, 0]
        finally:
            os.close(fd)


# ---------------------------------------------------------------------------
# dataset degradation
# ---------------------------------------------------------------------------

def test_degrade_rate_zero_is_identity(tmp_path, rng):
    imgs = rng.integers(0, 256, (5, 28, 28), dtype=np.uint8)
    src = tmp_path / "in.idx"
    dst = tmp_path / "out.idx"
    write_idx_images(src, imgs)
    summary = degrade_dataset(src, 0.0, 1, dst)
    assert src.read_bytes() == dst.read_bytes()
    assert summary["masked_fraction_mean"] == 0.0
    assert summary["strands_per_image"] == 40  # ceil(784 / 20)


def test_degrade_writes_masks_and_stats(tmp_path, rng):
    imgs = rng.integers(0, 256, (30, 28, 28), dtype=np.uint8)
    src = tmp_path / "in.idx"
    dst = tmp_path / "out.idx"
    masks = tmp_path / "masks.idx"
    summary = None
    write_idx_images(src, imgs)
    summary = degrade_dataset(src, 0.10, 3, dst, masks)
    out = read_idx_images(dst)
    m = read_idx_images(masks)
    assert out.shape == imgs.shape and m.shape == imgs.shape
    assert set(np.unique(m)) <= {0, 1}
    # degraded pixels are zero exactly where masked
    assert ((out == imgs) | (m == 1)).all()
    assert (out[m == 1] == 0).all()
    assert 0.0 < summary["masked_fraction_mean"] < 0.3


def test_degrade_deterministic(tmp_path, rng):
    imgs = rng.integers(0, 256, (10, 28, 28), dtype=np.uint8)
    src = tmp_path / "in.idx"
    write_idx_images(src, imgs)
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    degrade_dataset(src, 0.15, 9, a)
    degrade_dataset(src, 0.15, 9, b)
    assert a.read_bytes() == b.read_bytes()


def _degrade_one_at_a_time(images, rate, seed, tile_pixels, cfg):
    """Reference: every image on its own through encode -> drop -> vote on
    the surviving ASCII strands -> decode, the path reads take."""
    out = np.zeros_like(images)
    masks = np.zeros_like(images)
    fractions = np.zeros(len(images))
    strands_per_image = 0
    for i, img in enumerate(images):
        strands, manifest = encode_image(img, cfg, tile_pixels=tile_pixels)
        strands_per_image = manifest.strand_count
        survivors = drop_strands(strands, rate, (seed, i))
        rec = decode_image(vote(survivors.pool, cfg=cfg), manifest)
        out[i] = rec.image
        masks[i] = rec.missing_mask
        fractions[i] = rec.masked_fraction
    n = len(images)
    summary = {
        "images": n,
        "shape": list(images.shape[1:]),
        "rate": rate,
        "seed": seed,
        "strands_per_image": strands_per_image,
        "masked_fraction_mean": float(fractions.mean()) if n else 0.0,
        "masked_fraction_std": float(fractions.std()) if n else 0.0,
        "masked_fraction_min": float(fractions.min()) if n else 0.0,
        "masked_fraction_max": float(fractions.max()) if n else 0.0,
    }
    return out, masks, summary


def _check_degrade_matches_one_image_at_a_time(tmp_path, images, rate, tile_pixels, cfg):
    write_idx_images(tmp_path / "in.idx", images)
    summary = degrade_dataset(
        tmp_path / "in.idx", rate, 11, tmp_path / "out.idx", tmp_path / "masks.idx",
        cfg=cfg, tile_pixels=tile_pixels,
    )
    out, masks, expect = _degrade_one_at_a_time(images, rate, 11, tile_pixels, cfg)
    write_idx_images(tmp_path / "ref_out.idx", out)
    write_idx_images(tmp_path / "ref_masks.idx", masks)
    assert (tmp_path / "out.idx").read_bytes() == (tmp_path / "ref_out.idx").read_bytes()
    assert (tmp_path / "masks.idx").read_bytes() == (tmp_path / "ref_masks.idx").read_bytes()
    assert summary == expect


@pytest.mark.parametrize("chunk", [None, 100, 1])
@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
@pytest.mark.parametrize(
    "count, shape, tile_pixels",
    [(7, (28, 28), None), (9, (5, 7), None), (9, (5, 7), 3), (0, (28, 28), None)],
)
def test_degrade_matches_one_image_at_a_time(
    tmp_path, rng, monkeypatch, chunk, rate, count, shape, tile_pixels
):
    """The chunked stack pass writes the bytes the per-image calls would,
    whatever the chunk size (100 strands split 7 images of 40 as 2+2+2+1
    and 9 images of 12 as 8+1; 1 strand gives one image per chunk)."""
    if chunk is not None:
        monkeypatch.setattr(idx, "_DEGRADE_CHUNK", chunk)
    images = rng.integers(0, 256, (count, *shape), dtype=np.uint8)
    _check_degrade_matches_one_image_at_a_time(tmp_path, images, rate, tile_pixels,
                                               DEFAULT_CONFIG)


@pytest.mark.parametrize("jump", [0, 1])
@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("shape, tile_pixels", [((28, 28), None), ((5, 7), 3)])
def test_degrade_matches_one_image_at_a_time_jumps_0_and_1(
    tmp_path, rng, monkeypatch, jump, rate, shape, tile_pixels
):
    """The same bytes under the other codec presets, with chunks of 100
    strands, so each stack spans several chunks."""
    monkeypatch.setattr(idx, "_DEGRADE_CHUNK", 100)
    images = rng.integers(0, 256, (9, *shape), dtype=np.uint8)
    _check_degrade_matches_one_image_at_a_time(tmp_path, images, rate, tile_pixels,
                                               JrConfig.for_jump(jump))
