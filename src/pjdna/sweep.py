"""Strand-loss sweeps: tile-mapped recovery vs the all-or-nothing baseline.

Each (rate, seed) cell drops strands and scores the decoded image's SSIM
against the original.  Loss is the only damage, so the decoded image is
the original with the lost tiles zeroed, which
:func:`~pjdna.partition.drop_tiles` gives without building or parsing a
strand.  Scores go through one :class:`~pjdna.metrics.SsimReference` per
sweep, so the original's window statistics are computed once, not twice
per cell.  The baseline scheme ("EM") sees the same drop event and scores
1.0 only when nothing was lost.  Rows come out ordered by (rate, seed,
scheme) no matter how cells were executed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jr
from .channel import keep_mask
from .errors import ConfigError
from .inpaint import inpaint
from .metrics import SsimReference, em_ssim
from .partition import _image_manifest, drop_tiles
from .strand import DEFAULT_LAYOUT

__all__ = ["SweepRow", "SweepResult", "loss_sweep", "CSV_HEADER"]

CSV_HEADER = "loss_rate,seed,scheme,ssim_raw,ssim_inpainted,masked_fraction"


@dataclass(frozen=True)
class SweepRow:
    loss_rate: float
    seed: int
    scheme: str  # "PM" | "EM"
    ssim_raw: float
    ssim_inpainted: float | None
    masked_fraction: float

    def csv_line(self) -> str:
        inp = "" if self.ssim_inpainted is None else f"{self.ssim_inpainted:.6f}"
        return (
            f"{self.loss_rate:g},{self.seed},{self.scheme},"
            f"{self.ssim_raw:.6f},{inp},{self.masked_fraction:.6f}"
        )


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv())

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER, *(row.csv_line() for row in self.rows)]) + "\n"

    def scheme_rows(self, scheme: str) -> list[SweepRow]:
        return [r for r in self.rows if r.scheme == scheme]

    def pm_median_curve(self) -> list[tuple[float, float]]:
        rates = sorted({r.loss_rate for r in self.rows})
        curve = []
        for rate in rates:
            vals = [r.ssim_raw for r in self.rows if r.scheme == "PM" and r.loss_rate == rate]
            curve.append((rate, float(np.median(vals))))
        return curve

    def pm_medians_non_increasing(self) -> bool:
        curve = self.pm_median_curve()
        return all(a[1] >= b[1] for a, b in zip(curve, curve[1:]))


def loss_sweep(
    img: np.ndarray,
    rates: Sequence[float],
    seeds: Sequence[int],
    run_inpaint: bool = False,
    threads: int = 1,
) -> SweepResult:
    """Sweep strand-loss rates over seeds for both schemes, under the
    default codec and tile size.

    Decoding the surviving strands would give the image with the lost tiles
    zeroed, so :func:`~pjdna.partition.drop_tiles` zeroes them, and only
    the image's manifest is built, not its strands.  ``ssim_inpainted`` is
    filled only when ``run_inpaint`` is set (the harmonic fill over large
    masked regions dominates the sweep's cost otherwise).
    """
    for r in rates:
        if not 0.0 <= r <= 1.0:
            raise ConfigError(f"loss rate {r} outside [0, 1]")
    rates = sorted(set(float(r) for r in rates))
    seeds = [int(s) for s in seeds]

    manifest = _image_manifest(np.asarray(img), jr.DEFAULT_CONFIG, DEFAULT_LAYOUT, None)
    n = manifest.strand_count
    score = SsimReference(img)

    def run_cell(rate: float, seed: int) -> list[SweepRow]:
        keep = keep_mask(n, rate, seed)
        pixels, missing = drop_tiles(img.reshape(1, -1), keep, manifest)
        image, missing = pixels.reshape(img.shape), missing.reshape(img.shape)
        raw = score(image)
        inpainted = None
        if run_inpaint:
            inpainted = score(inpaint(image, missing))
        pm = SweepRow(rate, seed, "PM", raw, inpainted, float(missing.mean()))
        survived = int(keep.sum())
        em_val = em_ssim(survived, n)
        em = SweepRow(rate, seed, "EM", em_val, em_val if run_inpaint else None,
                      0.0 if survived == n else 1.0)
        return [em, pm]

    cells = [(rate, seed) for rate in rates for seed in seeds]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            produced = list(pool.map(lambda c: run_cell(*c), cells))
    else:
        produced = [run_cell(*c) for c in cells]

    # both maps keep the order of ``cells``
    return SweepResult(rows=[row for rows in produced for row in rows])
