"""The benchmark's workloads.

Each workload names the ``pjdna`` commands a user runs, checks what they
write against the generated input and the oracles, and, in the traced run,
replays the same work through the public functions of each module so that
every layer gets its own span.  Commands and replays run with the run
directory as working directory and use paths relative to it: ``in/`` holds
the input, ``out/`` the command outputs and ``replay/`` the replay's files.
"""

from __future__ import annotations

import csv
import os

import numpy as np

import inputs
import oracles

# Facts of the default codec (README "Built-in codec presets") that the
# checks rely on.
TILE_PIXELS = 20  # pixels per image tile
TILE_BITS = 162  # payload bits per strand, a raw-mode tile
STRAND_NT = 141  # 20-nt primer, 10-nt index, 90-nt payload, 21-nt primer
HOMOPOLYMER_BOUND = 3  # jump 2 allows runs of n + 1 = 3
COVERAGE = 10  # reads per surviving strand in every preset
RAW_ROW = 256  # archive bytes are scored for SSIM as rows of this many bytes

SWEEP_RATES = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9)
SWEEP_SEEDS = {"full": 3, "toy": 2}
DATASET_RATE = 0.1


class Workload:
    """One workload at one seed; ``truth`` is its generated input."""

    name = ""

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = size
        self.truth = inputs.generate(self.name, seed, size)
        self.input = os.path.join("in", inputs.INPUT_FILE[self.name])

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, run_dir: str) -> tuple[list[str], dict]:
        """(failures, {"bytes_correct": .., "ssim": ..}) for the outputs in ``run_dir``."""
        raise NotImplementedError

    def replay(self, tr) -> dict:
        """Redo the commands' work module by module under spans; returns counters."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# replay helpers: the inner calls timed on their own
# ---------------------------------------------------------------------------

def _codec():
    from pjdna.jr import JrConfig
    from pjdna.strand import StrandLayout

    return JrConfig(), StrandLayout()


def _image_tile_bits(pixels: np.ndarray) -> np.ndarray:
    """(tiles, TILE_BITS) payload bits of a flat pixel run: MSB-first, zero padded."""
    n = -(-pixels.size // TILE_PIXELS)
    flat = np.zeros(n * TILE_PIXELS, np.uint8)
    flat[: pixels.size] = pixels.ravel()
    bits = np.zeros((n, TILE_BITS), np.uint8)
    bits[:, : 8 * TILE_PIXELS] = np.unpackbits(flat.reshape(n, TILE_PIXELS), axis=1)
    return bits


def _raw_tile_bits(data: bytes) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, np.uint8))
    n = -(-bits.size // TILE_BITS)
    padded = np.zeros(n * TILE_BITS, np.uint8)
    padded[: bits.size] = bits
    return padded.reshape(n, TILE_BITS)


def _time_assembly(tr, tile_bits: np.ndarray, cfg, layout) -> None:
    """Time ``strand.assemble_many`` and ``jr.encode_block_rows`` on the
    blocks the encoder hands them, each in its own call."""
    from pjdna import jr, strand

    n = tile_bits.shape[0]
    weights = 1 << np.arange(cfg.bits_per_block - 1, -1, -1, dtype=np.int64)
    blocks = tile_bits.reshape(n, -1, cfg.bits_per_block).astype(np.int64) @ weights
    index = np.arange(n, dtype=np.int64)
    with tr.span("strand.assemble_many"):
        strand.assemble_many(index, blocks, layout, cfg)
    groups = layout.index_groups(cfg)
    digits = [(index // cfg.block_limit**k) % cfg.block_limit for k in range(groups - 1, -1, -1)]
    rows = np.concatenate([np.stack(digits, axis=1), blocks], axis=1)
    prev0 = np.full(n, "ACGT".index(layout.primer5[-1]), np.uint8)
    with tr.span("jr.encode_block_rows"):
        jr.encode_block_rows(rows, cfg, prev0)


def _time_parse(tr, seqs: list[str], cfg, layout) -> None:
    """Time ``strand.parse_many`` and, on the data regions that pass its
    length and primer tests, ``jr.decode_code_rows``, each on its own."""
    from pjdna import jr, strand

    with tr.span("strand.parse_many"):
        strand.parse_many(seqs, layout, cfg, 0)
    n5, n3 = len(layout.primer5), len(layout.primer3)
    codes = oracles.code_matrix([s for s in seqs if len(s) == layout.total_nt], layout.total_nt)
    p5 = oracles.code_matrix([layout.primer5], n5)
    p3 = oracles.code_matrix([layout.primer3], n3)
    keep = (codes[:, :n5] == p5).all(axis=1) & (codes[:, layout.total_nt - n3:] == p3).all(axis=1)
    data = np.ascontiguousarray(codes[keep][:, n5:n5 + layout.data_nt])
    prev0 = np.full(data.shape[0], "ACGT".index(layout.primer5[-1]), np.uint8)
    with tr.span("jr.decode_code_rows"):
        jr.decode_code_rows(data, cfg, prev0)


def _fill_counters(cases) -> dict:
    """Fill error against the exact harmonic solution over (image, mask, filled) cases."""
    errs = [oracles.fill_error(filled, img, mask) for img, mask, filled in cases]
    errs = np.concatenate(errs) if errs else np.zeros(0)
    return {
        "inpaint.masked_pixels": int(errs.size),
        "inpaint.max_err": float(errs.max()) if errs.size else 0.0,
        "inpaint.mean_err": float(errs.mean()) if errs.size else 0.0,
    }


# ---------------------------------------------------------------------------
# encode -> simulate -> decode
# ---------------------------------------------------------------------------

class _Pipeline(Workload):
    preset = ""
    dropout = 0.0
    image = True

    def _out(self) -> str:
        return os.path.join("out", "decoded.pgm" if self.image else "decoded.bin")

    def commands(self):
        encode = ["encode", "--in" if self.image else "--raw", self.input,
                  "--out", "out/lib.fasta", "--manifest", "out/manifest.json"]
        simulate = ["simulate", "--lib", "out/lib.fasta", "--preset", self.preset,
                    "--seed", str(self.seed), "--out", "out/reads.fastq"]
        decode = ["decode", "--reads", "out/reads.fastq", "--manifest", "out/manifest.json",
                  "--out", self._out(), "--mask", "out/mask.pbm"]
        return [encode, simulate, decode + (["--inpaint"] if self.image else [])]

    def tile_bits(self) -> np.ndarray:
        return _image_tile_bits(self.truth) if self.image else _raw_tile_bits(self.truth)

    def _check_library(self, run_dir: str, failures: list[str]) -> tuple[int, list[str]]:
        """Strand count, and the reads; checks the library and the dropout."""
        n = self.tile_bits().shape[0]
        heads, seqs = oracles.read_fasta(os.path.join(run_dir, "out", "lib.fasta"))
        if [h.split("|")[:2] for h in heads] != [["pj", str(i)] for i in range(n)]:
            failures.append(f"library headers are not pj|0 .. pj|{n - 1}")
        try:
            codes = oracles.code_matrix(seqs, STRAND_NT)
        except ValueError as exc:
            failures.append(f"library: {exc}")
        else:
            if (codes == 255).any():
                failures.append("library holds characters outside ACGT")
            if oracles.max_homopolymer(codes) > HOMOPOLYMER_BOUND:
                failures.append(f"library breaks the homopolymer bound {HOMOPOLYMER_BOUND}")
        reads = oracles.fastq_sequences(os.path.join(run_dir, "out", "reads.fastq"))
        if len(reads) % COVERAGE:
            failures.append(f"{len(reads)} reads is not a multiple of coverage {COVERAGE}")
        elif not oracles.within_binomial(n - len(reads) // COVERAGE, n, self.dropout):
            failures.append("strand dropout lies outside 5 sigma of its expectation")
        return n, reads


class RoundtripAging(_Pipeline):
    name = "roundtrip-aging"
    preset = "aging95C"
    dropout = 0.15

    def check(self, run_dir):
        failures = []
        self._check_library(run_dir, failures)
        dec = oracles.read_pgm(os.path.join(run_dir, self._out()))
        mask = oracles.read_pbm(os.path.join(run_dir, "out", "mask.pbm"))
        if dec.shape != self.truth.shape or mask.shape != self.truth.shape:
            return failures + ["decoded image or mask has the wrong shape"], {}
        if not oracles.tiles_whole(mask.ravel(), TILE_PIXELS):
            failures.append("mask does not cover whole tiles")
        if mask.any() and not mask.all():
            known = dec[~mask]
            if dec[mask].min() < known.min() or dec[mask].max() > known.max():
                failures.append("harmonic fill leaves the range of the known pixels")
        return failures, {
            "bytes_correct": int(((dec == self.truth) & ~mask).sum()),
            "ssim": oracles.ssim(self.truth, dec),
        }

    def replay(self, tr):
        from pjdna.images import read_pgm
        from pjdna.inpaint import inpaint

        img = read_pgm(self.input)
        counters, rec = _replay_pipeline(self, tr, img)
        with tr.span("inpaint.inpaint"):
            filled = inpaint(rec.image, rec.missing_mask)
        counters.update(_fill_counters([(rec.image, rec.missing_mask, filled)]))
        counters["partition.tiles_wrong"] = oracles.tiles_wrong(
            rec.image.ravel(), self.truth.ravel(), rec.missing_mask.ravel(), TILE_PIXELS)
        return counters


class ArchiveRaw(_Pipeline):
    name = "archive-raw"
    preset = "loss10"
    dropout = 0.10
    image = False

    def check(self, run_dir):
        failures = []
        n, reads = self._check_library(run_dir, failures)
        with open(os.path.join(run_dir, self._out()), "rb") as fh:
            dec = np.frombuffer(fh.read(), np.uint8)
        want = np.frombuffer(self.truth, np.uint8)
        mask = oracles.read_pbm(os.path.join(run_dir, "out", "mask.pbm")).ravel()
        if dec.size != want.size or mask.size != 8 * want.size:
            return failures + ["decoded stream or mask has the wrong length"], {}
        dec_bits, want_bits = np.unpackbits(dec), np.unpackbits(want)
        if not oracles.tiles_whole(mask, TILE_BITS):
            failures.append("mask does not cover whole tiles")
        if dec_bits[mask].any():
            failures.append("masked bits are not zero")
        if (dec_bits != want_bits)[~mask].any():
            failures.append("bits outside the mask differ from the input")
        missing = int(oracles.tile_flags(mask, TILE_BITS).sum())
        if not oracles.within_binomial(missing, n, self.dropout):
            failures.append("masked tiles lie outside 5 sigma of the dropout expectation")
        if len(reads) != COVERAGE * (n - missing):
            failures.append("read count does not match the tiles recovered")
        clean = ~mask.reshape(-1, 8).any(axis=1)
        return failures, {
            "bytes_correct": int((clean & (dec == want)).sum()),
            "ssim": oracles.ssim(want.reshape(-1, RAW_ROW), dec.reshape(-1, RAW_ROW)),
        }

    def replay(self, tr):
        with open(self.input, "rb") as fh:
            data = fh.read()
        counters, (dec, mask) = _replay_pipeline(self, tr, data)
        counters["partition.tiles_wrong"] = oracles.tiles_wrong(
            np.unpackbits(np.frombuffer(dec, np.uint8)),
            np.unpackbits(np.frombuffer(self.truth, np.uint8)), mask, TILE_BITS)
        return counters


def _replay_pipeline(wl: _Pipeline, tr, source):
    """encode, write/read FASTA, drop, corrupt, write/read FASTQ, consensus,
    decode; returns the counters and the decoder's result."""
    from pjdna import channel, partition, seqio

    cfg, layout = _codec()
    os.makedirs("replay", exist_ok=True)
    encode = partition.encode_image if wl.image else partition.encode_raw
    with tr.span("partition." + encode.__name__):
        strands, manifest = encode(source, cfg, layout)
    _time_assembly(tr, wl.tile_bits(), cfg, layout)
    with tr.span("seqio.write_fasta"):
        seqio.write_fasta("replay/lib.fasta", strands)
    with tr.span("seqio.read_fasta"):
        lib = seqio.read_sequences("replay/lib.fasta", "fasta")
    prof = channel.preset(wl.preset, wl.seed)
    with tr.span("channel.drop_strands"):
        survivors = channel.drop_strands(lib.sequences, prof.dropout_p, prof.seed)
    with tr.span("channel.corrupt_reads"):
        reads = channel.corrupt_reads(survivors, prof)
    with tr.span("seqio.write_fastq"):
        seqio.write_fastq("replay/reads.fastq", reads.sequences, reads.origins)
    with tr.span("seqio.read_fastq"):
        got = seqio.read_sequences("replay/reads.fastq", "fastq")
    with tr.span("channel.consensus"):
        pairs, counts = channel.consensus(got.sequences, layout, cfg, 0)
    _time_parse(tr, got.sequences, cfg, layout)
    decode = partition.decode_image if wl.image else partition.decode_raw
    with tr.span("partition." + decode.__name__):
        result = decode(pairs, manifest, parse_stats=dict(counts))
    stats = result.stats if wl.image else result[2]
    size = os.path.getsize("replay/lib.fasta") + os.path.getsize("replay/reads.fastq")
    counters = {
        "partition.strands": len(strands),
        "channel.reads": len(reads),
        "channel.indices_observed": counts["indices_observed"],
        "seqio.records": 2 * (len(strands) + len(reads)),
        "seqio.mib": 2 * size / 2**20,
        "strand.accepted": counts["accepted"],
        "strand.reject_length": counts["reject_length"],
        "strand.reject_primer": counts["reject_primer"],
        "strand.reject_corrupt": counts["reject_corrupt"],
        "strand.accept_ratio": counts["accepted"] / max(counts["reads_total"], 1),
        "partition.tiles_missing": stats["tiles_missing"],
        "partition.stray_indices": stats["stray_indices"],
    }
    return counters, (result if wl.image else result[:2])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class SweepInpaint(Workload):
    name = "sweep-inpaint"

    @property
    def seeds(self) -> list[int]:
        return [self.seed + k for k in range(SWEEP_SEEDS[self.size])]

    def commands(self):
        return [["sweep", "--in", self.input, "--rates", ",".join(f"{r:g}" for r in SWEEP_RATES),
                 "--seeds", str(len(self.seeds)), "--seed", str(self.seed),
                 "--out", "out/sweep.csv", "--inpaint", "--threads", "1"]]

    def lost_tiles(self, rate: float, seed: int) -> np.ndarray:
        """Flags of the tiles the sweep's dropout removes in one cell."""
        from pjdna.channel import drop_strands

        n = -(-self.truth.size // TILE_PIXELS)
        lost = np.ones(n, bool)
        lost[drop_strands(list(range(n)), rate, seed)] = False
        return lost

    def check(self, run_dir):
        with open(os.path.join(run_dir, "out", "sweep.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        header = "loss_rate,seed,scheme,ssim_raw,ssim_inpainted,masked_fraction".split(",")
        cells = [(r, s) for r in SWEEP_RATES for s in self.seeds]
        if rows[:1] != [header] or len(rows) != 1 + 2 * len(cells):
            return ["sweep CSV header or row count is wrong"], {}
        failures, pixels, inpainted = [], self.truth.size, []
        n_tiles = -(-pixels // TILE_PIXELS)
        bytes_correct = 0
        for k, (rate, seed) in enumerate(cells):
            em, pm = rows[1 + 2 * k], rows[2 + 2 * k]
            where = f"rate {rate:g} seed {seed}"
            if [(float(r[0]), int(r[1]), r[2]) for r in (em, pm)] != [(rate, seed, "EM"), (rate, seed, "PM")]:
                failures.append(f"{where}: rows out of order")
                continue
            lost = self.lost_tiles(rate, seed)
            mask = np.repeat(lost, TILE_PIXELS)[:pixels].reshape(self.truth.shape)
            expect_raw = oracles.ssim(self.truth, np.where(mask, 0, self.truth))
            pm_raw, pm_inp, pm_mf = float(pm[3]), float(pm[4]), float(pm[5])
            if abs(pm_mf - mask.mean()) > 1e-6:
                failures.append(f"{where}: PM masked_fraction {pm_mf} != {mask.mean():.6f}")
            if not oracles.within_binomial(int(lost.sum()), n_tiles, rate):
                failures.append(f"{where}: lost tiles outside 5 sigma of the expectation")
            if abs(pm_raw - expect_raw) > 1e-6:
                failures.append(f"{where}: PM ssim_raw {pm_raw} != oracle {expect_raw:.6f}")
            if not -1.0 <= pm_inp <= 1.0 or (not lost.any() and pm_inp != 1.0):
                failures.append(f"{where}: PM ssim_inpainted {pm_inp} impossible")
            em_val = 1.0 if not lost.any() else 0.0
            if [float(em[3]), float(em[4]), float(em[5])] != [em_val, em_val, 1.0 - em_val]:
                failures.append(f"{where}: EM row is not {em_val:g} for its PM loss")
            bytes_correct += int((~mask).sum())
            inpainted.append(pm_inp)
        return failures, {"bytes_correct": bytes_correct, "ssim": float(np.mean(inpainted))}

    def replay(self, tr):
        from pjdna import channel, metrics, partition
        from pjdna.images import read_pgm
        from pjdna.inpaint import inpaint

        cfg, layout = _codec()
        img = read_pgm(self.input)
        with tr.span("partition.encode_image"):
            strands, manifest = partition.encode_image(img, cfg, layout)
        _time_assembly(tr, _image_tile_bits(self.truth), cfg, layout)
        cases, missing, stray, wrong = [], 0, 0, 0
        for rate in SWEEP_RATES:
            for seed in self.seeds:
                with tr.span("sweep.cell"):
                    with tr.span("channel.drop_strands"):
                        survivors = channel.drop_strands(strands, rate, seed)
                    pairs = [(s.index_value, s.payload) for s in survivors]
                    with tr.span("partition.decode_image"):
                        rec = partition.decode_image(pairs, manifest)
                    with tr.span("metrics.ssim"):
                        metrics.ssim(img, rec.image)
                    with tr.span("inpaint.inpaint"):
                        filled = inpaint(rec.image, rec.missing_mask)
                    with tr.span("metrics.ssim"):
                        metrics.ssim(img, filled)
                cases.append((rec.image, rec.missing_mask, filled))
                missing += rec.stats["tiles_missing"]
                stray += rec.stats["stray_indices"]
                wrong += oracles.tiles_wrong(rec.image.ravel(), self.truth.ravel(),
                                             rec.missing_mask.ravel(), TILE_PIXELS)
        return {
            "sweep.cells": len(cases),
            "partition.strands": len(strands),
            "partition.tiles_missing": missing,
            "partition.stray_indices": stray,
            "partition.tiles_wrong": wrong,
            **_fill_counters(cases),
        }


# ---------------------------------------------------------------------------
# dataset degradation
# ---------------------------------------------------------------------------

class DatasetDegrade(Workload):
    name = "dataset-degrade"

    def commands(self):
        return [["degrade-dataset", "--in", self.input, "--rate", f"{DATASET_RATE:g}",
                 "--seed", str(self.seed), "--out", "out/degraded.idx", "--masks", "out/masks.idx"]]

    def check(self, run_dir):
        out = oracles.read_idx(os.path.join(run_dir, "out", "degraded.idx"))
        masks = oracles.read_idx(os.path.join(run_dir, "out", "masks.idx"))
        if out.shape != self.truth.shape or masks.shape != self.truth.shape:
            return ["degraded stack or masks have the wrong shape"], {}
        failures = []
        count = out.shape[0]
        if masks.max(initial=0) > 1:
            failures.append("masks hold values other than 0 and 1")
        m = masks.astype(bool)
        flat = m.reshape(count, -1)
        if not oracles.tiles_whole(flat, TILE_PIXELS):
            failures.append("masks do not cover whole tiles")
        if out[m].any():
            failures.append("masked pixels are not zero")
        if (out != self.truth)[~m].any():
            failures.append("pixels outside the masks differ from the input")
        tiles = oracles.tile_flags(flat, TILE_PIXELS)
        if not oracles.within_binomial(int(tiles.sum()), tiles.size, DATASET_RATE):
            failures.append("masked tiles lie outside 5 sigma of the dropout expectation")
        return failures, {
            "bytes_correct": int(((out == self.truth) & ~m).sum()),
            "ssim": float(np.mean(oracles.ssim(self.truth, out))),
        }

    def replay(self, tr):
        from pjdna import channel, idx, partition

        cfg, layout = _codec()
        os.makedirs("replay", exist_ok=True)
        with tr.span("idx.read_idx_images"):
            images = idx.read_idx_images(self.input)
        out = np.empty_like(images)
        masks = np.empty_like(images)
        missing = stray = strands_total = 0
        for i in range(images.shape[0]):
            with tr.span("partition.encode_image"):
                strands, manifest = partition.encode_image(images[i], cfg, layout)
            _time_assembly(tr, _image_tile_bits(self.truth[i]), cfg, layout)
            with tr.span("channel.drop_strands"):
                survivors = channel.drop_strands(strands, DATASET_RATE, (self.seed, i))
            with tr.span("partition.decode_image"):
                rec = partition.decode_image(((s.index_value, s.payload) for s in survivors), manifest)
            out[i], masks[i] = rec.image, rec.missing_mask
            strands_total += len(strands)
            missing += rec.stats["tiles_missing"]
            stray += rec.stats["stray_indices"]
        with tr.span("idx.write_idx_images"):
            idx.write_idx_images("replay/degraded.idx", out)
        with tr.span("idx.write_idx_images"):
            idx.write_idx_images("replay/masks.idx", masks)
        rows = (images.shape[0], -1)
        return {
            "idx.images": int(images.shape[0]),
            "partition.strands": strands_total,
            "partition.tiles_missing": missing,
            "partition.stray_indices": stray,
            "partition.tiles_wrong": oracles.tiles_wrong(
                out.reshape(rows), self.truth.reshape(rows), masks.reshape(rows), TILE_PIXELS),
        }


WORKLOADS = {w.name: w for w in (RoundtripAging, ArchiveRaw, SweepInpaint, DatasetDegrade)}
