"""Command-line entry point for the whole pipeline.

One executable with subcommands: encode, decode, simulate, sweep, inpaint,
ssim, degrade-dataset, tally.  Every run is deterministic given its flags
and seed (flag > PJ_SEED environment variable > profile/0).  A command that
writes files returns a :class:`_Written` record, and :func:`_write` writes
all of its outputs or none: each to ``<output>.tmp``, then every temp file
renamed into place together with a ``<output>.meta.json`` sidecar echoing
parameters, seed, digests and counters, so any artifact can be reproduced.
Two outputs of one command on one path exit 2; an output that cannot be
written exits 3.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error,
4 file format error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from . import __version__, jr
from .channel import (
    CHANNEL_STREAM,
    ChannelProfile,
    PRESET_NAMES,
    check_drop_rate,
    corrupt_reads,
    keep_mask,
    preset,
    vote,
)
from .errors import ConfigError, FormatError, PjError, require_int
from .idx import _IMAGE_MAGIC, _parse_idx, degrade_dataset, read_labels, write_idx_images
from .images import _parse_pbm, _parse_pgm, read_pgm, write_pbm, write_pgm
from .inpaint import inpaint
from .metrics import ssim, tally_outcomes
from .partition import TileManifest, decode_image, decode_raw, encode_image, encode_raw
from .seqio import ReadStream, read_sequences, write_fasta, write_fastq
from .strand import StrandLayout
from .sweep import loss_sweep

__all__ = ["main", "run"]


def _err(msg: str) -> None:
    print(f"pjdna: {msg}", file=sys.stderr)


def _seed_arg(args, fallback: int = 0) -> int:
    """``--seed``, else ``PJ_SEED``, else ``fallback``; a negative seed is a
    ConfigError."""
    env = os.environ.get("PJ_SEED")
    if args.seed is None and env is not None:
        try:
            seed, source = int(env), "PJ_SEED"
        except ValueError:
            raise ConfigError(f"PJ_SEED must be an integer, got {env!r}") from None
    else:
        seed, source = fallback if args.seed is None else args.seed, "seed"
    if seed < 0:
        raise ConfigError(f"{source} must be non-negative, got {seed}")
    return seed


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_input(path, digests: dict) -> bytes:
    """The whole of the input file ``path``, read once, with its SHA-256
    put in ``digests`` for the sidecar: a pipe or FIFO cannot be read
    again."""
    with open(path, "rb") as fh:
        data = fh.read()
    digests[path] = hashlib.sha256(data).hexdigest()
    return data


@dataclass
class _Written:
    """What a command writes: ``write(*tmp_paths)`` writes its ``outputs``,
    the primary first, to the temp paths it is given in the same order.
    ``params``, ``inputs`` (each input's SHA-256), ``counters`` and ``seed``
    go to the sidecar; ``line`` is printed, ``None`` printing the counters
    as JSON."""

    subcommand: str
    outputs: list
    write: Callable
    params: dict
    inputs: dict
    counters: dict
    seed: int | None = None
    line: str | None = None


def _write(result: _Written) -> int:
    """Write ``result``'s outputs and the ``<primary>.meta.json`` sidecar
    all or nothing, then print its line.  Every file goes to
    ``<path>.tmp`` first and is renamed into place only once all are
    written; on any failure the temp files are removed.  An output path
    given twice is a ConfigError, raised before any byte is written, and an
    OSError while writing names the output path, not its temp file."""
    paths = [*result.outputs, f"{result.outputs[0]}.meta.json"]
    seen = set()
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"output path given twice: {path}")
        seen.add(real)
    tmps = [f"{path}.tmp" for path in paths]
    try:
        for path in paths:  # a directory would fail only at its rename
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        result.write(*tmps[:-1])
        meta = {
            "tool": "pjdna",
            "version": __version__,
            "subcommand": result.subcommand,
            "parameters": result.params,
            "seed": result.seed,
            "inputs": {str(p): digest for p, digest in result.inputs.items()},
            "outputs": {str(p): _sha256(t) for p, t in zip(result.outputs, tmps)},
            "counters": result.counters,
        }
        with open(tmps[-1], "w", encoding="ascii") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if not isinstance(exc, OSError):
            raise
        named = next((p for p, t in zip(paths, tmps) if exc.filename in (p, t)),
                     ", ".join(map(str, result.outputs)))
        raise OSError(f"cannot write {named}: {exc.strerror or exc}") from exc
    print(json.dumps(result.counters, sort_keys=True) if result.line is None else result.line)
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> _Written:
    cfg = jr.JrConfig.for_jump(args.jump)
    primers = {"primer5": args.primer5, "primer3": args.primer3}
    layout = StrandLayout(**{k: v for k, v in primers.items() if v is not None})
    layout.validate(cfg)
    digests = {}
    if args.input:
        img = _parse_pgm(_read_input(args.input, digests), args.input)
        strands, manifest = encode_image(img, cfg, layout, args.tile_pixels)
    else:
        if args.tile_pixels is not None:
            raise ConfigError("--tile-pixels applies to --in images, not to --raw")
        strands, manifest = encode_raw(_read_input(args.raw, digests), cfg, layout)

    def write(library, manifest_path):
        write_fasta(library, strands)
        manifest.save(manifest_path)

    params = {
        "jump": args.jump,
        "tile_pixels": manifest.tile_pixels,
        "primer5": layout.primer5,
        "primer3": layout.primer3,
        "manifest": str(args.manifest),
    }
    return _Written("encode", [args.out, args.manifest], write, params, digests,
                    {"strands": len(strands), "mode": manifest.mode},
                    line=f"encoded {len(strands)} strands -> {args.out}")


def _resolve_profile(args) -> ChannelProfile:
    if args.preset:
        prof = preset(args.preset)
    else:
        with open(args.profile, "r", encoding="ascii") as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, over-long int
                raise FormatError(f"{args.profile}: invalid JSON ({exc})") from exc
        prof = ChannelProfile.from_dict(d)
    return replace(prof, seed=_seed_arg(args, prof.seed))


def cmd_simulate(args) -> _Written:
    prof = _resolve_profile(args)
    lib = read_sequences(args.lib)
    survivors = lib.pool.rows(keep_mask(len(lib.pool), prof.dropout_p, prof.seed))
    reads = corrupt_reads(survivors, prof)
    counters = {
        "library_records": lib.total_records,
        "library_skipped_alphabet": lib.skipped_alphabet,
        "unique_strands": len(lib.pool),
        "survivors": len(survivors),
        "reads": len(reads),
        "rate_provenance": prof.rate_provenance,
    }
    return _Written("simulate", [args.out],
                    lambda out: write_fastq(out, reads.pool, reads.origin_ids),
                    {"profile": prof.to_dict(), "channel_stream": CHANNEL_STREAM},
                    {args.lib: lib.sha256}, counters, prof.seed,
                    f"simulated {len(reads)} reads -> {args.out}")


def cmd_decode(args) -> _Written:
    digests = {}
    manifest = TileManifest.parse(_read_input(args.manifest, digests), args.manifest)
    if args.inpaint and manifest.mode != "image":
        raise ConfigError("--inpaint applies to image manifests, not to raw mode")
    src = args.reads or args.lib
    reads = ReadStream(src, args.input_format)  # no record left is a total loss, which decodes
    batch = vote(reads, manifest.layout, manifest.cfg, args.primer_mismatches)
    digests[src] = reads.sha256
    counts = {**batch.counts, "skipped_alphabet": reads.skipped_alphabet,
              "reads_format": reads.format}
    if manifest.mode == "image":
        recovered = decode_image(batch, manifest, parse_stats=counts)
        mask = recovered.missing_mask
        img = inpaint(recovered.image, mask) if args.inpaint else recovered.image
        write_out = lambda out: write_pgm(out, img)
        counters = {**recovered.stats, "masked_fraction": recovered.masked_fraction,
                    "inpainted": bool(args.inpaint)}
    else:
        data, mask, stats = decode_raw(batch, manifest, parse_stats=counts)
        mask = mask.reshape(1, -1)
        write_out = lambda out: Path(out).write_bytes(data)
        counters = {**stats, "masked_fraction": float(mask.mean()) if mask.size else 0.0}

    def write(out, mask_path=None):
        write_out(out)
        if mask_path is not None:
            write_pbm(mask_path, mask)

    params = {
        "manifest": str(args.manifest),
        "input_format": args.input_format,
        "primer_mismatches": args.primer_mismatches,
        "inpaint": bool(args.inpaint),
    }
    return _Written("decode", [args.out] + ([args.mask] if args.mask else []), write, params,
                    digests, counters, line=f"decoded -> {args.out}")


def cmd_sweep(args) -> _Written:
    digests = {}
    img = _parse_pgm(_read_input(args.input, digests), args.input)
    try:
        rates = [float(tok) for tok in args.rates.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--rates must be comma-separated numbers, got {args.rates!r}") from None
    seed0 = _seed_arg(args)
    require_int("--seeds", args.seeds, 1)
    require_int("--threads", args.threads, 1)
    seeds = list(range(seed0, seed0 + args.seeds))
    result = loss_sweep(
        img,
        rates,
        seeds,
        run_inpaint=args.inpaint,
        threads=args.threads,
    )
    counters = {
        "rows": len(result.rows),
        "pm_median_non_increasing": result.pm_medians_non_increasing(),
    }
    return _Written("sweep", [args.out], result.write_csv,
                    {"rates": rates, "seeds": seeds, "inpaint": bool(args.inpaint),
                     "threads": args.threads},
                    digests, counters, seed0,
                    f"swept {len(rates)} rates x {len(seeds)} seeds -> {args.out}")


def cmd_ssim(args) -> int:
    a = read_pgm(args.image_a)
    b = read_pgm(args.image_b)
    print(f"{ssim(a, b):.6f}")
    return 0


def cmd_inpaint(args) -> _Written:
    digests = {}
    img = _parse_pgm(_read_input(args.input, digests), args.input)
    mask = _parse_pbm(_read_input(args.mask, digests), args.mask)
    out = inpaint(img, mask)
    return _Written("inpaint", [args.out], lambda path: write_pgm(path, out),
                    {"mask": str(args.mask)}, digests, {"masked_pixels": int(mask.sum())},
                    line=f"inpainted -> {args.out}")


def cmd_degrade_dataset(args) -> _Written:
    seed = _seed_arg(args)
    check_drop_rate(args.rate)
    digests = {}
    images = _parse_idx(_read_input(args.input, digests), _IMAGE_MAGIC, args.input)
    degraded, masks, summary = degrade_dataset(images, args.rate, seed)

    def write(out, masks_path=None):
        write_idx_images(out, degraded)
        if masks_path is not None:
            write_idx_images(masks_path, masks)

    return _Written("degrade-dataset", [args.out] + ([args.masks] if args.masks else []),
                    write, {"rate": args.rate, "masks": str(args.masks) if args.masks else None},
                    digests, summary, seed)


def cmd_tally(args) -> int:
    truth = read_labels(args.truth)
    orig = read_labels(args.orig)
    degraded = read_labels(args.degraded)
    tally = tally_outcomes(truth, orig, degraded)
    print(json.dumps(tally.to_dict(), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pjdna",
        description="Tile-partitioned jump-rotating DNA storage codec and channel simulator",
    )
    parser.add_argument("--version", action="version", version=f"pjdna {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="random seed, else PJ_SEED")

    p = sub.add_parser("encode", help="encode a PGM image or raw file into a strand library")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="input", help="input 8-bit binary PGM image")
    src.add_argument("--raw", help="input file treated as a raw byte stream")
    p.add_argument("--out", required=True, help="output FASTA library")
    p.add_argument("--manifest", required=True, help="output JSON manifest")
    p.add_argument("--jump", type=int, choices=(0, 1, 2), default=2)
    p.add_argument("--tile-pixels", type=int, default=None)
    p.add_argument("--primer5", default=None)
    p.add_argument("--primer3", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("simulate", parents=[seeded],
                       help="run a strand library through the noisy channel")
    p.add_argument("--lib", required=True, help="input FASTA library")
    prof = p.add_mutually_exclusive_group(required=True)
    prof.add_argument("--preset", choices=PRESET_NAMES)
    prof.add_argument("--profile", help="channel profile JSON")
    p.add_argument("--out", required=True, help="output FASTQ reads")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decode", help="decode reads or a library back into the stored file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--reads", help="FASTQ reads from the channel")
    src.add_argument("--lib", help="FASTA library (no channel)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output PGM image (image mode) or file (raw mode)")
    p.add_argument("--mask", default=None, help="write the missing mask as PBM")
    p.add_argument("--inpaint", action="store_true", help="harmonic-fill missing pixels")
    p.add_argument("--input-format", choices=("auto", "fasta", "fastq"), default="auto")
    p.add_argument("--primer-mismatches", type=int, default=0)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", parents=[seeded],
                       help="loss-rate sweep comparing tile mapping to the baseline")
    p.add_argument("--in", dest="input", required=True, help="input PGM image")
    p.add_argument("--rates", required=True, help="comma-separated loss rates")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds (seed..seed+N-1)")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--inpaint", action="store_true")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ssim", help="print the SSIM of two PGM images")
    p.add_argument("image_a")
    p.add_argument("image_b")
    p.set_defaults(func=cmd_ssim)

    p = sub.add_parser("inpaint", help="harmonic-fill masked pixels of a PGM image")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--mask", required=True, help="PBM mask, black = missing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inpaint)

    p = sub.add_parser("degrade-dataset", parents=[seeded],
                       help="strand-loss-degrade every image of an IDX stack")
    p.add_argument("--in", dest="input", required=True, help="input IDX image stack")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--out", required=True, help="output IDX image stack")
    p.add_argument("--masks", default=None, help="optional IDX stack of 0/1 masks")
    p.set_defaults(func=cmd_degrade_dataset)

    p = sub.add_parser("tally", help="joint outcome tally and prediction accuracy")
    p.add_argument("--truth", required=True, help="IDX or text label file")
    p.add_argument("--orig", required=True, help="predictions for the original images")
    p.add_argument("--degraded", required=True, help="predictions for the degraded images")
    p.set_defaults(func=cmd_tally)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        result = args.func(args)
        return _write(result) if isinstance(result, _Written) else result
    except FileNotFoundError as exc:
        _err(f"input file not found: {exc.filename or exc}")
        return 2
    except FormatError as exc:
        _err(str(exc))
        return 4
    except PjError as exc:
        _err(str(exc))
        return 2
    except OSError as exc:
        _err(str(exc))
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
