"""Strand-loss sweeps: tile-mapped recovery vs the all-or-nothing baseline.

Each (rate, seed) cell drops rows of the once-encoded strand batch, decodes
the survivors, and scores SSIM against the original through one
:class:`~pjdna.metrics.SsimReference` per sweep, so the original's window
statistics are computed once, not twice per cell.  The baseline scheme
("EM") sees the same drop event and scores 1.0 only when nothing was lost.
Rows come out ordered by (rate, seed, scheme) no matter how cells were
executed.
"""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import jr
from .channel import ChannelProfile, corrupt_reads, keep_mask, vote
from .errors import ConfigError
from .inpaint import inpaint
from .metrics import SsimReference, em_ssim
from .partition import decode_image, encode_image
from .strand import DEFAULT_LAYOUT, ParseBatch, StrandLayout

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

    def write_csv(self, path_or_file) -> None:
        if hasattr(path_or_file, "write"):
            self._write(path_or_file)
        else:
            with open(path_or_file, "w", encoding="ascii") as fh:
                self._write(fh)

    def _write(self, fh) -> None:
        fh.write(CSV_HEADER + "\n")
        for row in self.rows:
            fh.write(row.csv_line() + "\n")

    def to_csv(self) -> str:
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()

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
    base_profile: ChannelProfile | None = None,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    layout: StrandLayout = DEFAULT_LAYOUT,
    tile_pixels: int | None = None,
    run_inpaint: bool = False,
    threads: int = 1,
) -> SweepResult:
    """Sweep strand-loss rates over seeds for both schemes.

    With ``base_profile`` unset (or noiseless) each cell is a pure dropout
    run on pristine strands; a noisy profile routes every cell through read
    corruption and consensus instead.  ``ssim_inpainted`` is filled only
    when ``run_inpaint`` is set (the harmonic fill over large masked regions
    dominates the sweep's cost otherwise).
    """
    for r in rates:
        if not 0.0 <= r <= 1.0:
            raise ConfigError(f"loss rate {r} outside [0, 1]")
    rates = sorted(set(float(r) for r in rates))
    seeds = [int(s) for s in seeds]

    lib, manifest = encode_image(img, cfg, layout, tile_pixels)
    n = len(lib)
    score = SsimReference(img)
    noisy = base_profile is not None and not base_profile.noiseless

    def run_cell(rate: float, seed: int) -> list[SweepRow]:
        keep = keep_mask(n, rate, seed)
        if noisy:
            prof = replace(base_profile, dropout_p=0.0, seed=seed)
            accepted = vote(corrupt_reads(lib.pool.rows(keep), prof).pool, layout, cfg)
        else:
            accepted = ParseBatch(lib.index_values[keep], lib.payload_blocks[keep], {})
        recovered = decode_image(accepted, manifest)
        raw = score(recovered.image)
        inpainted = None
        if run_inpaint:
            repaired = inpaint(recovered.image, recovered.missing_mask)
            inpainted = score(repaired)
        pm = SweepRow(rate, seed, "PM", raw, inpainted, recovered.masked_fraction)
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
