"""SSIM against a brute-force oracle, harmonic inpainting, baseline, tallies."""

import math

import numpy as np
import pytest

from pjdna.errors import ConfigError, ShapeError
from pjdna.inpaint import _harmonic_solve, inpaint
from pjdna.metrics import em_decode, em_ssim, ssim, tally_outcomes


def ssim_oracle(a, b, side=11, sigma=1.5, k1=0.01, k2=0.03, data_range=255.0):
    """Direct per-window evaluation of the standard SSIM formula."""
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if side == 11:
        x = np.arange(side) - (side - 1) / 2.0
        g = np.exp(-(x * x) / (2 * sigma * sigma))
        w = np.outer(g, g)
    else:
        w = np.ones((side, side))
    w = w / w.sum()
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    h, wd = a.shape
    vals = []
    for i in range(h - side + 1):
        for j in range(wd - side + 1):
            pa = a[i : i + side, j : j + side]
            pb = b[i : i + side, j : j + side]
            mu_a = (w * pa).sum()
            mu_b = (w * pb).sum()
            va = (w * pa * pa).sum() - mu_a * mu_a
            vb = (w * pb * pb).sum() - mu_b * mu_b
            cov = (w * pa * pb).sum() - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
            )
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# ssim
# ---------------------------------------------------------------------------

def test_ssim_identity_is_exactly_one(rng):
    img = rng.integers(0, 256, (40, 30), dtype=np.uint8)
    assert ssim(img, img) == 1.0


def test_ssim_inverted_scores_below_identity(rng):
    img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    assert ssim(img, 255 - img) < ssim(img, img)


def test_ssim_symmetric(rng):
    a = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    b = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    assert ssim(a, b) == ssim(b, a)


def test_ssim_matches_oracle(rng):
    for _ in range(20):
        a = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        b = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        assert abs(ssim(a, b) - ssim_oracle(a, b)) < 1e-9


def test_ssim_small_images_use_uniform_window(rng):
    a = rng.integers(0, 256, (8, 9), dtype=np.uint8)
    b = rng.integers(0, 256, (8, 9), dtype=np.uint8)
    assert abs(ssim(a, b) - ssim_oracle(a, b, side=8)) < 1e-9
    assert ssim(a, a) == 1.0


def test_ssim_shape_errors(rng):
    a = rng.integers(0, 256, (12, 12), dtype=np.uint8)
    with pytest.raises(ShapeError):
        ssim(a, a[:6])
    with pytest.raises(ShapeError):
        ssim(a.reshape(-1), a.reshape(-1))


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def test_em_decode_all_or_nothing(rng):
    img = rng.integers(0, 256, (10, 10), dtype=np.uint8)
    out = em_decode(10660, 10660, img)
    assert np.array_equal(out, img)
    assert em_ssim(10660, 10660) == 1.0
    assert em_decode(10659, 10660, img) is None
    assert em_ssim(10659, 10660) == 0.0
    assert em_decode(0, 10660, img) is None
    with pytest.raises(ConfigError):
        em_decode(11, 10, img)


# ---------------------------------------------------------------------------
# inpaint
# ---------------------------------------------------------------------------

def test_inpaint_empty_mask_returns_unchanged(rng):
    img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    out = inpaint(img, np.zeros((16, 16), bool))
    assert np.array_equal(out, img)
    assert out is not img


def test_inpaint_single_pixel_neighbor_average():
    img = np.full((7, 7), 99, np.uint8)
    mask = np.zeros((7, 7), bool)
    mask[3, 3] = True
    out = inpaint(img, mask)
    assert out[3, 3] == 99


def test_inpaint_fully_masked_returns_zero():
    img = np.full((9, 9), 130, np.uint8)
    out = inpaint(img, np.ones((9, 9), bool))
    assert (out == 0).all()


def test_inpaint_reproduces_linear_gradient():
    """A harmonic fill reproduces a linear field inside a small masked disk."""
    img = np.tile(np.linspace(0, 255, 64, dtype=np.uint8), (64, 1))
    yy, xx = np.mgrid[0:64, 0:64]
    mask = (yy - 32) ** 2 + (xx - 32) ** 2 <= 4
    out = inpaint(img, mask)
    err = np.abs(out[mask].astype(int) - img[mask].astype(int))
    assert err.max() <= 1


def test_inpaint_deterministic_and_idempotent(rng):
    img = rng.integers(0, 256, (24, 24), dtype=np.uint8)
    mask = rng.random((24, 24)) < 0.2
    first = inpaint(img, mask)
    again = inpaint(img, mask)
    assert np.array_equal(first, again)
    # the fill depends only on the unmasked boundary, so re-inpainting the
    # repaired image yields the same pixels
    second = inpaint(first, mask)
    assert np.array_equal(first, second)


def test_inpaint_shape_error():
    with pytest.raises(ShapeError):
        inpaint(np.zeros((4, 4), np.uint8), np.zeros((4, 5), bool))


def _exact_harmonic_fill(img, mask):
    """The masked 4-neighbour Laplace system, built as a sparse matrix and
    solved directly."""
    sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    h, w = img.shape
    unknown = -np.ones((h, w), np.int64)
    unknown[mask] = np.arange(int(mask.sum()))
    rows, cols, vals = [], [], []
    b = np.zeros(int(mask.sum()))
    for (i, j), k in zip(np.argwhere(mask), unknown[mask]):
        for a, c in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if not (0 <= a < h and 0 <= c < w):
                continue
            rows.append(k)
            cols.append(k)
            vals.append(1.0)
            if mask[a, c]:
                rows.append(k)
                cols.append(unknown[a, c])
                vals.append(-1.0)
            else:
                b[k] += float(img[a, c])
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(b.size, b.size))
    return linalg.spsolve(A, b)


@pytest.mark.parametrize("loss", [0.3, 0.9])
def test_inpaint_matches_sparse_direct_solve(rng, loss):
    yy, xx = np.mgrid[0:40, 0:56]
    img = np.clip(128 + 80 * np.sin(xx / 5.0) * np.cos(yy / 7.0)
                  + rng.normal(0, 20, xx.shape), 0, 255).astype(np.uint8)
    mask = rng.random(img.shape) < loss
    exact = _exact_harmonic_fill(img, mask)
    assert np.abs(_harmonic_solve(img, mask, 1e-6, 10_000)[mask] - exact).max() < 0.01
    got = inpaint(img, mask)[mask].astype(int)
    assert np.abs(got - np.clip(np.rint(exact), 0, 255)).max() <= 1
    assert np.array_equal(inpaint(img, mask)[~mask], img[~mask])


# ---------------------------------------------------------------------------
# outcome tallies
# ---------------------------------------------------------------------------

def test_tally_all_correct():
    t = tally_outcomes([1, 2, 3], [1, 2, 3], [1, 2, 3])
    assert t.both_correct == 3
    assert t.prediction_accuracy == 1.0
    assert t.total == 3


def test_tally_categories_and_pa():
    t = tally_outcomes([1, 2], [1, 2], [1, 9])
    assert (t.both_correct, t.orig_only_correct, t.degraded_only_correct) == (1, 1, 0)
    assert t.both_wrong_same == 0 and t.both_wrong_diff == 0
    assert t.prediction_accuracy == 0.5


def test_tally_excludes_misclassified_originals():
    t = tally_outcomes([1, 2], [9, 2], [1, 2])
    assert t.degraded_only_correct == 1
    assert t.eligible == 1
    assert t.prediction_accuracy == 1.0


def test_tally_both_wrong_split():
    t = tally_outcomes([1, 1, 1], [2, 2, 1], [2, 3, 1])
    assert t.both_wrong_same == 1
    assert t.both_wrong_diff == 1
    assert t.both_correct == 1
    assert t.total == 3


def test_tally_counts_sum_and_pa_range(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        truth = rng.integers(0, 4, n)
        o = rng.integers(0, 4, n)
        d = rng.integers(0, 4, n)
        t = tally_outcomes(truth, o, d)
        assert t.total == n
        pa = t.prediction_accuracy
        assert math.isnan(pa) or 0.0 <= pa <= 1.0


def test_tally_shape_error():
    with pytest.raises(ShapeError):
        tally_outcomes([1, 2], [1], [1, 2])
