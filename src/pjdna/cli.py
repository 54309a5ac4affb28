"""Command-line entry point for the whole pipeline.

One executable with subcommands: encode, decode, simulate, sweep, inpaint,
ssim, degrade-dataset, tally.  Every run is deterministic given its flags
and seed (flag > PJ_SEED environment variable > profile/0), file outputs are
written atomically (temp file + rename), and each file output gets a
``<output>.meta.json`` sidecar echoing parameters, seed, digests and
counters so any artifact can be reproduced.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error,
4 file format error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import replace

from . import __version__, jr
from .channel import (
    CHANNEL_STREAM,
    ChannelProfile,
    PRESET_NAMES,
    corrupt_reads,
    keep_mask,
    preset,
    vote,
)
from .errors import ConfigError, FormatError, PjError, require_int
from .idx import degrade_dataset, read_labels
from .images import read_pbm, read_pgm, write_pbm, write_pgm
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


@contextlib.contextmanager
def _atomic(path):
    """Write through a temp file in the same directory, then rename."""
    tmp = f"{path}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_metadata(primary_out, subcommand, params, inputs, outputs, counters, seed, digests=None):
    """Write ``<primary_out>.meta.json``; ``digests`` gives the SHA-256 of
    inputs already hashed as they were read (a pipe cannot be read again)."""
    digests = digests or {}
    meta = {
        "tool": "pjdna",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "seed": seed,
        "inputs": {str(p): digests.get(p) or _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "counters": counters,
    }
    meta_path = f"{primary_out}.meta.json"
    with _atomic(meta_path) as tmp:
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return meta_path


def _cfg_layout(args) -> tuple[jr.JrConfig, StrandLayout]:
    cfg = jr.JrConfig.for_jump(args.jump)
    kwargs = {}
    if getattr(args, "primer5", None) is not None:
        kwargs["primer5"] = args.primer5
    if getattr(args, "primer3", None) is not None:
        kwargs["primer3"] = args.primer3
    layout = StrandLayout(**kwargs)
    layout.validate(cfg)
    return cfg, layout


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> int:
    cfg, layout = _cfg_layout(args)
    if args.input:
        img = read_pgm(args.input)
        strands, manifest = encode_image(img, cfg, layout, args.tile_pixels)
        source = args.input
    else:
        if args.tile_pixels is not None:
            raise ConfigError("--tile-pixels applies to --in images, not to --raw")
        with open(args.raw, "rb") as fh:
            data = fh.read()
        strands, manifest = encode_raw(data, cfg, layout)
        source = args.raw
    with _atomic(args.out) as tmp:
        write_fasta(tmp, strands)
    with _atomic(args.manifest) as tmp:
        manifest.save(tmp)
    counters = {"strands": len(strands), "mode": manifest.mode}
    _write_metadata(
        args.out,
        "encode",
        {
            "jump": args.jump,
            "tile_pixels": manifest.tile_pixels,
            "primer5": layout.primer5,
            "primer3": layout.primer3,
            "manifest": str(args.manifest),
        },
        [source],
        [args.out, args.manifest],
        counters,
        seed=None,
    )
    print(f"encoded {len(strands)} strands -> {args.out}")
    return 0


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


def cmd_simulate(args) -> int:
    prof = _resolve_profile(args)
    lib = read_sequences(args.lib)
    survivors = lib.pool.rows(keep_mask(len(lib.pool), prof.dropout_p, prof.seed))
    reads = corrupt_reads(survivors, prof)
    with _atomic(args.out) as tmp:
        write_fastq(tmp, reads.pool, reads.origin_ids)
    counters = {
        "library_records": lib.total_records,
        "library_skipped_alphabet": lib.skipped_alphabet,
        "unique_strands": len(lib.pool),
        "survivors": len(survivors),
        "reads": len(reads),
        "rate_provenance": prof.rate_provenance,
    }
    _write_metadata(
        args.out,
        "simulate",
        {"profile": prof.to_dict(), "channel_stream": CHANNEL_STREAM},
        [args.lib],
        [args.out],
        counters,
        seed=prof.seed,
        digests={args.lib: lib.sha256},
    )
    print(f"simulated {len(reads)} reads -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    manifest = TileManifest.load(args.manifest)
    if args.inpaint and manifest.mode != "image":
        raise ConfigError("--inpaint applies to image manifests, not to raw mode")
    src = args.reads or args.lib
    reads = ReadStream(src, args.input_format)  # no record left is a total loss, which decodes
    batch = vote(reads, manifest.layout, manifest.cfg, args.primer_mismatches)
    counts = {**batch.counts, "skipped_alphabet": reads.skipped_alphabet,
              "reads_format": reads.format}
    outputs = [args.out]
    if manifest.mode == "image":
        recovered = decode_image(batch, manifest, parse_stats=counts)
        img = recovered.image
        if args.inpaint:
            img = inpaint(img, recovered.missing_mask)
        with _atomic(args.out) as tmp:
            write_pgm(tmp, img)
        if args.mask:
            with _atomic(args.mask) as tmp:
                write_pbm(tmp, recovered.missing_mask)
            outputs.append(args.mask)
        counters = {**recovered.stats, "masked_fraction": recovered.masked_fraction,
                    "inpainted": bool(args.inpaint)}
    else:
        data, mask, stats = decode_raw(batch, manifest, parse_stats=counts)
        with _atomic(args.out) as tmp:
            with open(tmp, "wb") as fh:
                fh.write(data)
        if args.mask:
            with _atomic(args.mask) as tmp:
                write_pbm(tmp, mask.reshape(1, -1))
            outputs.append(args.mask)
        counters = {**stats, "masked_fraction": float(mask.mean()) if mask.size else 0.0}
    _write_metadata(
        args.out,
        "decode",
        {
            "manifest": str(args.manifest),
            "input_format": args.input_format,
            "primer_mismatches": args.primer_mismatches,
            "inpaint": bool(args.inpaint),
        },
        [src, args.manifest],
        outputs,
        counters,
        seed=None,
        digests={src: reads.sha256},
    )
    print(f"decoded -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    img = read_pgm(args.input)
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
    with _atomic(args.out) as tmp:
        result.write_csv(tmp)
    counters = {
        "rows": len(result.rows),
        "pm_median_non_increasing": result.pm_medians_non_increasing(),
    }
    _write_metadata(
        args.out,
        "sweep",
        {"rates": rates, "seeds": seeds, "inpaint": bool(args.inpaint), "threads": args.threads},
        [args.input],
        [args.out],
        counters,
        seed=seed0,
    )
    print(f"swept {len(rates)} rates x {len(seeds)} seeds -> {args.out}")
    return 0


def cmd_ssim(args) -> int:
    a = read_pgm(args.image_a)
    b = read_pgm(args.image_b)
    print(f"{ssim(a, b):.6f}")
    return 0


def cmd_inpaint(args) -> int:
    img = read_pgm(args.input)
    mask = read_pbm(args.mask)
    out = inpaint(img, mask)
    with _atomic(args.out) as tmp:
        write_pgm(tmp, out)
    _write_metadata(
        args.out,
        "inpaint",
        {"mask": str(args.mask)},
        [args.input, args.mask],
        [args.out],
        {"masked_pixels": int(mask.sum())},
        seed=None,
    )
    print(f"inpainted -> {args.out}")
    return 0


def cmd_degrade_dataset(args) -> int:
    seed = _seed_arg(args)
    summary = degrade_dataset(
        args.input,
        args.rate,
        seed,
        args.out,
        args.masks,
    )
    outputs = [args.out] + ([args.masks] if args.masks else [])
    _write_metadata(
        args.out,
        "degrade-dataset",
        {"rate": args.rate, "masks": str(args.masks) if args.masks else None},
        [args.input],
        outputs,
        summary,
        seed=seed,
    )
    print(json.dumps(summary, sort_keys=True))
    return 0


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

    p = sub.add_parser("simulate", help="run a strand library through the noisy channel")
    p.add_argument("--lib", required=True, help="input FASTA library")
    prof = p.add_mutually_exclusive_group(required=True)
    prof.add_argument("--preset", choices=PRESET_NAMES)
    prof.add_argument("--profile", help="channel profile JSON")
    p.add_argument("--out", required=True, help="output FASTQ reads")
    p.add_argument("--seed", type=int, default=None)
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

    p = sub.add_parser("sweep", help="loss-rate sweep comparing tile mapping to the baseline")
    p.add_argument("--in", dest="input", required=True, help="input PGM image")
    p.add_argument("--rates", required=True, help="comma-separated loss rates")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds (seed..seed+N-1)")
    p.add_argument("--seed", type=int, default=None, help="first seed")
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

    p = sub.add_parser("degrade-dataset", help="strand-loss-degrade every image of an IDX stack")
    p.add_argument("--in", dest="input", required=True, help="input IDX image stack")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
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
        return args.func(args) or 0
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
