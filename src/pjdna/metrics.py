"""Recovery quality metrics: windowed SSIM, the all-or-nothing baseline,
and outcome tallies for externally classified datasets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError

__all__ = [
    "SsimReference",
    "ssim",
    "em_ssim",
    "OutcomeTally",
    "tally_outcomes",
]


# The SSIM of Wang et al. (2004): an 11-px Gaussian window of sigma 1.5, and
# stabilising constants (K1 L)^2 and (K2 L)^2 for 8-bit data, L = 255.
_WINDOW = 11
_SIGMA = 1.5
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2


def _window_kernel(side: int, gaussian: bool) -> np.ndarray:
    if gaussian:
        x = np.arange(side, dtype=np.float64) - (side - 1) / 2.0
        k = np.exp(-(x * x) / (2.0 * _SIGMA * _SIGMA))
    else:
        k = np.ones(side, np.float64)
    return k / k.sum()


def _filter_valid(img: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation with a 1-D kernel on both axes.

    Both passes window axis 0, the second over a contiguous transpose: a
    window along axis 1 has overlapping strides that BLAS cannot take, and
    numpy's own loop over them costs about five times as much.
    """
    out = sliding_window_view(img, k.size, axis=0) @ k
    return (sliding_window_view(np.ascontiguousarray(out.T), k.size, axis=0) @ k).T


class SsimReference:
    """The window statistics of a reference image ``a``, computed once.

    Calling it with ``b`` returns ``ssim(a, b)`` by filtering only ``b``,
    ``b * b`` and ``a * b``.  A call reads the reference and never writes
    it, so threads may share one.
    """

    def __init__(self, a: np.ndarray) -> None:
        a = np.array(a, np.float64)  # a copy: the statistics must stay those of ``a``
        if a.ndim != 2:
            raise ShapeError("ssim expects 2-D grayscale images")
        side = min(a.shape[0], a.shape[1], _WINDOW)
        if side < 1:
            raise ShapeError("images must be non-empty")
        self.a = a
        self.kernel = _window_kernel(side, gaussian=side == _WINDOW)
        self.mu_a = _filter_valid(a, self.kernel)
        self.var_a = _filter_valid(a * a, self.kernel) - self.mu_a * self.mu_a

    def __call__(self, b: np.ndarray) -> float:
        """Mean local structural similarity of ``b`` to the reference."""
        a, k, mu_a, var_a = self.a, self.kernel, self.mu_a, self.var_a
        b = np.asarray(b, np.float64)
        if a.shape != b.shape:
            raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")
        mu_b = _filter_valid(b, k)
        var_b = _filter_valid(b * b, k) - mu_b * mu_b
        cov = _filter_valid(a * b, k) - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + _C1) * (2.0 * cov + _C2)
        den = (mu_a * mu_a + mu_b * mu_b + _C1) * (var_a + var_b + _C2)
        return float((num / den).mean())


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local structural similarity over all full window positions.

    Windows are 11x11 Gaussian (sigma 1.5); images smaller than the window in
    either dimension fall back to a uniform window of their shortest side.
    To score many images against one reference, build one
    :class:`SsimReference` and call it.
    """
    return SsimReference(a)(b)


def em_ssim(strands_present: int, strands_total: int) -> float:
    """SSIM of the all-or-nothing baseline: 1 when no strand is lost, else 0.

    Models schemes whose strands are interdependent (shared headers, chained
    blocks), where any missing strand fails the whole file.
    """
    if not 0 <= strands_present <= strands_total:
        raise ConfigError("strand counts are inconsistent")
    return 1.0 if strands_present == strands_total else 0.0


@dataclass(frozen=True)
class OutcomeTally:
    """Joint classification outcomes for (original, degraded) image pairs."""

    both_correct: int
    orig_only_correct: int
    degraded_only_correct: int
    both_wrong_same: int
    both_wrong_diff: int

    @property
    def total(self) -> int:
        return (
            self.both_correct
            + self.orig_only_correct
            + self.degraded_only_correct
            + self.both_wrong_same
            + self.both_wrong_diff
        )

    @property
    def eligible(self) -> int:
        """Cases where the original classified correctly (the PA denominator)."""
        return self.both_correct + self.orig_only_correct

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of degraded images still classified correctly, among
        cases whose original classified correctly.  NaN when no case is
        eligible."""
        if self.eligible == 0:
            return math.nan
        return self.both_correct / self.eligible

    def to_dict(self) -> dict:
        return {
            "both_correct": self.both_correct,
            "orig_only_correct": self.orig_only_correct,
            "degraded_only_correct": self.degraded_only_correct,
            "both_wrong_same": self.both_wrong_same,
            "both_wrong_diff": self.both_wrong_diff,
            "total": self.total,
            "eligible": self.eligible,
            "prediction_accuracy": self.prediction_accuracy,
        }


def tally_outcomes(
    truth: Sequence[int], pred_orig: Sequence[int], pred_degraded: Sequence[int]
) -> OutcomeTally:
    """Count the four outcome categories; misclassified originals are
    excluded from the accuracy ratio."""
    t = np.asarray(truth)
    o = np.asarray(pred_orig)
    d = np.asarray(pred_degraded)
    if not (t.shape == o.shape == d.shape) or t.ndim != 1:
        raise ShapeError("truth and prediction vectors must share one length")
    ok_o = o == t
    ok_d = d == t
    return OutcomeTally(
        both_correct=int((ok_o & ok_d).sum()),
        orig_only_correct=int((ok_o & ~ok_d).sum()),
        degraded_only_correct=int((~ok_o & ok_d).sum()),
        both_wrong_same=int((~ok_o & ~ok_d & (o == d)).sum()),
        both_wrong_diff=int((~ok_o & ~ok_d & (o != d)).sum()),
    )
