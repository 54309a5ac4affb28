"""Acceptance gate: one test per criterion, each recording a PASS/FAIL line.

Statistical criteria run on frozen seeds, so every assertion is
deterministic; timed criteria measure the operative section only.
"""

import time

import numpy as np
import pytest

from conftest import batch_max_runs, record_criterion
from pjdna import jr
from pjdna.channel import consensus, corrupt_reads, drop_strands, preset
from pjdna.idx import degrade_dataset, write_idx_images
from pjdna.images import write_pgm
from pjdna.metrics import ssim, tally_outcomes
from pjdna.partition import decode_image, encode_image
from pjdna.strand import DEFAULT_LAYOUT, assemble_many, assemble_strand, parse_many
from pjdna.sweep import loss_sweep

CFG = jr.JrConfig()

# measured once with the pinned payload below and frozen as a regression
# constant: 211 of the 423 single substitutions of that strand are rejected
SINGLE_SUB_REJECTED = 211
SINGLE_SUB_TOTAL = 423

# the consensus recovery at coverage 10 and 1% substitutions is pinned, as
# measured under channel stream 3, in
# tests/test_channel.py::test_consensus_monte_carlo_recovery


def _record(num, description, passed, detail=""):
    record_criterion(num, description, passed, detail)
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num} {status} - {description} {detail}")
    assert passed, f"criterion {num}: {description} ({detail})"


@pytest.fixture(scope="module")
def shannon_scale():
    """400x533 random image and its encoded strand library (10,660 tiles)."""
    img = np.random.default_rng(11).integers(0, 256, (533, 400), dtype=np.uint8)
    strands, manifest = encode_image(img)
    return img, strands, manifest


def test_criterion_1_density():
    bits = DEFAULT_LAYOUT.payload_bits(CFG)
    nt = DEFAULT_LAYOUT.payload_nt
    ok = (
        bits == 162
        and nt == 90
        and CFG.bits_per_block == 9
        and CFG.group_size == 5
        and bits / nt == 1.8
        and CFG.bits_per_block / CFG.group_size == 1.8
    )
    _record(1, "162 payload bits in 90 nt = 1.8 bits/nt", ok, f"{bits} bits / {nt} nt")


def test_criterion_2_homopolymer_bound():
    n_strands = 10_000
    start = time.perf_counter()
    worst = {}
    for jump in (0, 1, 2):
        cfg = jr.JrConfig.for_jump(jump)
        rng = np.random.default_rng(1000 + jump)
        cap = DEFAULT_LAYOUT.index_capacity(cfg)
        indices = np.arange(n_strands, dtype=np.int64) % cap
        payloads = rng.integers(
            0, cfg.block_limit, (n_strands, DEFAULT_LAYOUT.payload_groups(cfg)), dtype=np.int64
        )
        strands = assemble_many(indices, payloads, DEFAULT_LAYOUT, cfg)
        n5, n3 = len(DEFAULT_LAYOUT.primer5), len(DEFAULT_LAYOUT.primer3)
        data = [s.sequence[n5 : len(s.sequence) - n3] for s in strands]
        codes = np.frombuffer("".join(data).encode(), np.uint8).reshape(n_strands, -1)
        worst[jump] = int(batch_max_runs(codes).max())
        if jump == CFG.jump_length:
            # with the built-in primers the whole default strand stays bounded
            full = np.frombuffer(
                "".join(s.sequence for s in strands).encode(), np.uint8
            ).reshape(n_strands, -1)
            worst["full"] = int(batch_max_runs(full).max())
    elapsed = time.perf_counter() - start
    ok = all(worst[j] <= j + 1 for j in (0, 1, 2)) and worst["full"] <= 3 and elapsed < 10
    _record(
        2,
        "no homopolymer run exceeds jump+1 over 10^4 random strands per jump",
        ok,
        f"max runs {worst}, {elapsed:.1f}s",
    )


def test_criterion_3_lossless_round_trip():
    img = np.random.default_rng(33).integers(0, 256, (409, 285), dtype=np.uint8)
    start = time.perf_counter()
    strands, manifest = encode_image(img)
    prof = preset("clean")
    survivors = drop_strands(strands, prof.dropout_p, prof.seed)
    reads = corrupt_reads(survivors, prof)
    pairs, _ = consensus(reads.sequences)
    rec = decode_image(pairs, manifest)
    score = ssim(img, rec.image)
    elapsed = time.perf_counter() - start
    ok = (
        manifest.strand_count == 5829
        and np.array_equal(rec.image, img)
        and not rec.missing_mask.any()
        and score == 1.0
        and elapsed < 5
    )
    _record(
        3,
        "285x409 image -> 5,829 strands, clean-channel bit-exact, SSIM 1.0",
        ok,
        f"{manifest.strand_count} strands, ssim {score}, {elapsed:.1f}s",
    )


def _run_c4(img, strands, manifest):
    outputs = []
    fractions = []
    scores = []
    for seed in range(10):
        survivors = drop_strands(strands, 0.75, seed)
        rec = decode_image([(s.index_value, s.payload) for s in survivors], manifest)
        fractions.append(rec.masked_fraction)
        scores.append(ssim(img, rec.image))
        outputs.append(rec.image.tobytes())
    return fractions, scores, b"".join(outputs)


def test_criterion_4_75_percent_loss(shannon_scale):
    img, strands, manifest = shannon_scale
    start = time.perf_counter()
    fractions, scores, _ = _run_c4(img, strands, manifest)
    elapsed = time.perf_counter() - start
    ok = (
        manifest.strand_count == 10660
        and all(abs(f - 0.75) <= 0.02 for f in fractions)
        and all(s > 0 for s in scores)
        and elapsed < 60
    )
    _record(
        4,
        "75% dropout on 400x533: decode completes, fraction 0.75+-0.02, SSIM > 0",
        ok,
        f"fractions {min(fractions):.3f}..{max(fractions):.3f}, "
        f"ssim {min(scores):.3f}..{max(scores):.3f}, {elapsed:.1f}s",
    )


RATES = [0.0, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9]


def _run_c5(img):
    return loss_sweep(img, RATES, list(range(10)))


def test_criterion_5_pm_vs_em_curve(shannon_scale):
    img, strands, manifest = shannon_scale
    result = _run_c5(img)
    em_zero = all(
        row.ssim_raw == 0.0
        for row in result.scheme_rows("EM")
        if row.loss_rate >= 0.001
    )
    pm_positive = all(
        row.ssim_raw > 0.0 for row in result.scheme_rows("PM") if row.loss_rate < 1.0
    )
    monotone = result.pm_medians_non_increasing()
    ok = manifest.strand_count >= 1000 and em_zero and pm_positive and monotone
    _record(
        5,
        "sweep: EM zero from 0.001 up, PM positive with non-increasing medians",
        ok,
        f"{len(result.rows)} rows over {len(RATES)} rates x 10 seeds",
    )


def test_criterion_6_ssim_oracle_equivalence():
    from test_metrics import ssim_oracle

    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        a = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        b = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        worst = max(worst, abs(ssim(a, b) - ssim_oracle(a, b)))
    ok = worst < 1e-9
    _record(6, "windowed SSIM matches brute-force oracle on 100 pairs", ok,
            f"worst |diff| {worst:.2e}")


def _run_c7():
    img = np.tile(np.linspace(0, 255, 64, dtype=np.uint8), (64, 1))
    return img, loss_sweep(img, [0.10], list(range(20)), run_inpaint=True)


def test_criterion_7_inpainting_uplift():
    _, result = _run_c7()
    pm = result.scheme_rows("PM")
    wins = sum(1 for row in pm if row.ssim_inpainted > row.ssim_raw)
    ok = len(pm) == 20 and wins == 20
    _record(7, "inpainting raises SSIM at 10% loss for all 20 seeds", ok,
            f"{wins}/20 seeds improved")


def test_criterion_8_single_substitution_detection():
    rng = np.random.default_rng(2024)
    payload = np.packbits(rng.integers(0, 2, 162, dtype=np.uint8)).tobytes()
    strand = assemble_strand(123, payload)
    mutants = []
    for pos in range(len(strand.sequence)):
        for alt in jr.ALPHABET:
            if alt != strand.sequence[pos]:
                mutants.append(strand.sequence[:pos] + alt + strand.sequence[pos + 1 :])
    batch = parse_many(mutants)
    rejected = len(mutants) - batch.counts["accepted"]
    ok = (
        len(mutants) == SINGLE_SUB_TOTAL
        and rejected == SINGLE_SUB_REJECTED
        and batch.counts["reject_length"] == 0
    )
    _record(
        8,
        "single-substitution rejection fraction matches the pinned constant",
        ok,
        f"{rejected}/{len(mutants)} rejected = {rejected / len(mutants):.4f}",
    )


def _run_c9(tmp_path):
    imgs = np.random.default_rng(5).integers(0, 256, (1000, 28, 28), dtype=np.uint8)
    degraded, masks, summary = degrade_dataset(imgs, 0.10, 42)
    dst = tmp_path / "c9_out.idx"
    masks_path = tmp_path / "c9_masks.idx"
    write_idx_images(dst, degraded)
    write_idx_images(masks_path, masks)
    return summary, dst.read_bytes(), masks_path.read_bytes()


def test_criterion_9_degraded_dataset_statistics(tmp_path):
    summary, _, _ = _run_c9(tmp_path)
    mean_ok = abs(summary["masked_fraction_mean"] - 0.10) <= 0.01
    strands_ok = summary["strands_per_image"] == 40

    # hand-counted 10-case fixture: 8 originals correct, 6 of them survive
    truth = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    orig = [0, 1, 2, 3, 4, 9, 6, 7, 1, 9]
    degr = [0, 1, 5, 3, 4, 5, 6, 2, 8, 9]
    tally = tally_outcomes(truth, orig, degr)
    tally_ok = (
        tally.both_correct == 6
        and tally.orig_only_correct == 2
        and tally.degraded_only_correct == 2
        and tally.both_wrong_same == 0
        and tally.both_wrong_diff == 0
        and tally.prediction_accuracy == 0.75
    )
    ok = mean_ok and strands_ok and tally_ok
    _record(
        9,
        "1,000-image degradation at 10% and hand-counted accuracy fixture",
        ok,
        f"mean fraction {summary['masked_fraction_mean']:.4f}, "
        f"accuracy {tally.prediction_accuracy}",
    )


def test_criterion_10_determinism(shannon_scale, tmp_path):
    img, strands, manifest = shannon_scale

    f1, s1, img_bytes_1 = _run_c4(img, strands, manifest)
    f2, s2, img_bytes_2 = _run_c4(img, strands, manifest)
    c4_ok = f1 == f2 and s1 == s2 and img_bytes_1 == img_bytes_2
    # the criterion 4 artifact is a PGM; byte-compare one written per run
    p1, p2 = tmp_path / "c4a.pgm", tmp_path / "c4b.pgm"
    rec = decode_image(
        [(s.index_value, s.payload) for s in drop_strands(strands, 0.75, 0)], manifest
    )
    write_pgm(p1, rec.image)
    rec = decode_image(
        [(s.index_value, s.payload) for s in drop_strands(strands, 0.75, 0)], manifest
    )
    write_pgm(p2, rec.image)
    c4_ok = c4_ok and p1.read_bytes() == p2.read_bytes()

    c5_ok = _run_c5(img).to_csv() == _run_c5(img).to_csv()
    c7_ok = _run_c7()[1].to_csv() == _run_c7()[1].to_csv()

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    sum_a, out_a, masks_a = _run_c9(dir_a)
    sum_b, out_b, masks_b = _run_c9(dir_b)
    c9_ok = sum_a == sum_b and out_a == out_b and masks_a == masks_b

    ok = c4_ok and c5_ok and c7_ok and c9_ok
    _record(
        10,
        "criteria 4, 5, 7, 9 reruns are byte-identical",
        ok,
        f"c4={c4_ok} c5={c5_ok} c7={c7_ok} c9={c9_ok}",
    )
