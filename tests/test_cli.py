"""End-to-end command-line behavior: flows, determinism, exit codes, metadata."""

import hashlib
import json
import os
import threading

import numpy as np
import pytest

from pjdna.cli import main
from pjdna.images import read_pbm, read_pgm, write_pgm
from pjdna.idx import read_idx_images, write_idx_images, write_idx_labels
from pjdna.jr import max_homopolymer_run
from pjdna.partition import TileManifest
from pjdna.seqio import read_sequences
from pjdna.strand import DEFAULT_LAYOUT


@pytest.fixture()
def workdir(tmp_path, rng):
    img = rng.integers(0, 256, (64, 48), dtype=np.uint8)
    write_pgm(tmp_path / "in.pgm", img)
    return tmp_path, img


def run(*argv) -> int:
    return main([str(a) for a in argv])


def encode(tmp_path, **extra):
    args = ["encode", "--in", tmp_path / "in.pgm", "--out", tmp_path / "lib.fasta",
            "--manifest", tmp_path / "m.json"]
    for k, v in extra.items():
        args += [k, v]
    assert run(*args) == 0


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_outputs_and_metadata(workdir):
    tmp_path, img = workdir
    encode(tmp_path)
    lib = read_sequences(tmp_path / "lib.fasta")
    manifest = TileManifest.load(tmp_path / "m.json")
    assert len(lib.sequences) == manifest.strand_count == -(-img.size // 20)
    meta = json.loads((tmp_path / "lib.fasta.meta.json").read_text())
    assert meta["subcommand"] == "encode"
    assert meta["counters"]["strands"] == manifest.strand_count
    assert str(tmp_path / "in.pgm") in meta["inputs"]


def test_encode_jump0_homopolymer_free_data(workdir):
    tmp_path, _ = workdir
    assert run("encode", "--in", tmp_path / "in.pgm", "--out", tmp_path / "lib0.fasta",
               "--manifest", tmp_path / "m0.json", "--jump", "0") == 0
    manifest = TileManifest.load(tmp_path / "m0.json")
    assert manifest.cfg.jump_length == 0
    n5, n3 = len(manifest.layout.primer5), len(manifest.layout.primer3)
    for seq in read_sequences(tmp_path / "lib0.fasta").sequences:
        assert max_homopolymer_run(seq[n5 : len(seq) - n3]) == 1


def test_encode_missing_input_exits_2(tmp_path, capsys):
    code = run("encode", "--in", tmp_path / "nope.pgm", "--out", tmp_path / "l.fasta",
               "--manifest", tmp_path / "m.json")
    assert code == 2
    assert "nope.pgm" in capsys.readouterr().err


def test_encode_tile_pixels_flag(workdir):
    tmp_path, img = workdir
    assert run("encode", "--in", tmp_path / "in.pgm", "--out", tmp_path / "l.fasta",
               "--manifest", tmp_path / "mt.json", "--tile-pixels", "10") == 0
    manifest = TileManifest.load(tmp_path / "mt.json")
    assert manifest.tile_pixels == 10
    assert manifest.strand_count == -(-img.size // 10)
    assert manifest.pad_bits_per_tile == 162 - 80


@pytest.mark.parametrize("tile_pixels", [0, -3, 21])
def test_encode_bad_tile_pixels_exits_2(workdir, capsys, tile_pixels):
    tmp_path, _ = workdir
    assert run("encode", "--in", tmp_path / "in.pgm", "--out", tmp_path / "l.fasta",
               "--manifest", tmp_path / "mt.json", "--tile-pixels", tile_pixels) == 2
    assert "tile_pixels" in capsys.readouterr().err
    assert not (tmp_path / "l.fasta").exists()


def test_encode_raw_rejects_tile_pixels(tmp_path, capsys):
    (tmp_path / "r.bin").write_bytes(np.random.default_rng(3).bytes(3000))
    for value in ("0", "10", "21"):
        assert run("encode", "--raw", tmp_path / "r.bin", "--out", tmp_path / "rl.fasta",
                   "--manifest", tmp_path / "rm.json", "--tile-pixels", value) == 2
        assert "--tile-pixels" in capsys.readouterr().err
    assert not (tmp_path / "rl.fasta").exists()
    assert not (tmp_path / "rm.json").exists()


def test_decode_raw_rejects_inpaint(tmp_path, capsys):
    (tmp_path / "r.bin").write_bytes(np.random.default_rng(3).bytes(3000))
    assert run("encode", "--raw", tmp_path / "r.bin", "--out", tmp_path / "rl.fasta",
               "--manifest", tmp_path / "rm.json") == 0
    assert run("decode", "--lib", tmp_path / "rl.fasta", "--manifest", tmp_path / "rm.json",
               "--out", tmp_path / "back.bin", "--inpaint") == 2
    assert "--inpaint" in capsys.readouterr().err
    assert not (tmp_path / "back.bin").exists()
    assert not (tmp_path / "back.bin.meta.json").exists()


def test_encode_expected_cat_scale_count(tmp_path, rng):
    img = rng.integers(0, 256, (409, 285), dtype=np.uint8)
    write_pgm(tmp_path / "cat.pgm", img)
    assert run("encode", "--in", tmp_path / "cat.pgm", "--out", tmp_path / "cat.fasta",
               "--manifest", tmp_path / "cat.json") == 0
    assert len(read_sequences(tmp_path / "cat.fasta").sequences) == 5829


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_clean_coverage(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--preset", "clean",
               "--out", tmp_path / "r.fastq") == 0
    lib = read_sequences(tmp_path / "lib.fasta").sequences
    reads = read_sequences(tmp_path / "r.fastq").sequences
    assert len(reads) == 10 * len(lib)
    assert sorted(set(reads)) == sorted(set(lib))


def test_simulate_deterministic(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    for name in ("a.fastq", "b.fastq"):
        assert run("simulate", "--lib", tmp_path / "lib.fasta", "--preset", "loss10",
                   "--out", tmp_path / name, "--seed", "7") == 0
    assert (tmp_path / "a.fastq").read_bytes() == (tmp_path / "b.fastq").read_bytes()


def test_simulate_unknown_preset_exits_2(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--preset", "volcano",
               "--out", tmp_path / "r.fastq") == 2


def test_simulate_profile_json_and_provenance(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--preset", "aging95C",
               "--out", tmp_path / "r.fastq", "--seed", "1") == 0
    meta = json.loads((tmp_path / "r.fastq.meta.json").read_text())
    assert meta["counters"]["rate_provenance"] == "artifact-estimate"
    assert meta["parameters"]["profile"]["dropout_p"] == 0.15
    # an explicit profile file works the same way
    prof_path = tmp_path / "p.json"
    prof_path.write_text(json.dumps({"dropout_p": 0.5, "coverage_mean": 1.0}))
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--profile", prof_path,
               "--out", tmp_path / "r2.fastq", "--seed", "2") == 0
    prof_path.write_text(json.dumps({"dropout_p": 0.5, "bogus": 1}))
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--profile", prof_path,
               "--out", tmp_path / "r3.fastq") == 2


def test_simulate_records_channel_stream(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--preset", "xray",
               "--out", tmp_path / "r.fastq", "--seed", "3") == 0
    meta = json.loads((tmp_path / "r.fastq.meta.json").read_text())
    assert meta["parameters"]["channel_stream"] == 3


def test_simulate_non_ascii_profile_exits_4(workdir, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "p.json").write_bytes(b"\xff{}")
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--profile", tmp_path / "p.json",
               "--out", tmp_path / "r.fastq") == 4
    assert "invalid JSON" in capsys.readouterr().err


# More digits than Python's int() converts from text (4,300 by default).
OVERLONG = "9" * 5000


def test_simulate_overlong_profile_seed_exits_4(workdir, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "p.json").write_text('{"seed": ' + OVERLONG + "}")
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--profile", tmp_path / "p.json",
               "--out", tmp_path / "r.fastq") == 4
    assert "invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "r.fastq").exists()


def test_simulate_profile_wrong_type_exits_2(workdir, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    for bad in ({"dropout_p": "x"}, {"coverage_mean": [10]}, {"seed": "7"}):
        (tmp_path / "p.json").write_text(json.dumps(bad))
        assert run("simulate", "--lib", tmp_path / "lib.fasta", "--profile",
                   tmp_path / "p.json", "--out", tmp_path / "r.fastq") == 2
        assert "must be" in capsys.readouterr().err
    # JSON true is no number or integer; a coverage that is not finite or
    # lies above the ceiling used to end in a traceback, or (true as a rate)
    # dropped every strand
    hostile = [
        ({"dropout_p": True}, "dropout_p must be a number, got True"),
        ({"coverage_mean": True}, "coverage_mean must be a number, got True"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"coverage_mean": float("inf")}, "coverage_mean must lie in [0, 1000000], got inf"),
        ({"coverage_mean": float("nan")}, "coverage_mean must lie in [0, 1000000], got nan"),
        ({"coverage_mean": 1e19}, "coverage_mean must lie in [0, 1000000], got 1e+19"),
        ({"coverage_mean": 1e19, "coverage_model": "poisson"}, "got 1e+19"),
    ]
    for bad, message in hostile:
        (tmp_path / "p.json").write_text(json.dumps(bad))
        assert run("simulate", "--lib", tmp_path / "lib.fasta", "--profile",
                   tmp_path / "p.json", "--out", tmp_path / "r.fastq") == 2
        err = capsys.readouterr().err
        assert err.startswith("pjdna: ") and message in err
    assert not (tmp_path / "r.fastq").exists()


# SHA-256 of the FASTQ ``simulate --seed 3`` writes from the workdir image's
# library, which the string reference ``string_corrupt_reads`` of
# tests/test_channel.py writes too; any change to the reads of channel
# stream 3 fails here.
STREAM_3_FASTQ_SHA256 = {
    "aging95C": "eaf26512783d3a89e3fdfb2703936e8865e453ec08fe1e8df18082ba51889823",
    "xray": "2e2742f2197a3aede90f2ff901c8ac97b68a1ac4a00639d70f5e582e42b67124",
    "poisson-indels": "7be00403f049d88163bc6663283e70d56cb0bc536322cf3acd74fc956420d87f",
}


@pytest.mark.parametrize("channel", sorted(STREAM_3_FASTQ_SHA256))
def test_simulate_pins_channel_stream_3(workdir, channel):
    tmp_path, _ = workdir
    encode(tmp_path)
    if channel == "poisson-indels":
        (tmp_path / "p.json").write_text(json.dumps(
            {"sub_p": 0.02, "ins_p": 0.01, "del_p": 0.01, "coverage_mean": 4.0,
             "coverage_model": "poisson"}))
        source = ["--profile", tmp_path / "p.json"]
    else:
        source = ["--preset", channel]
    assert run("simulate", "--lib", tmp_path / "lib.fasta", *source, "--seed", "3",
               "--out", tmp_path / "r.fastq") == 0
    digest = hashlib.sha256((tmp_path / "r.fastq").read_bytes()).hexdigest()
    assert digest == STREAM_3_FASTQ_SHA256[channel]


def test_simulate_negative_seed_exits_2(workdir, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps({"sub_p": 0.01, "seed": -1}))
    for source in (["--preset", "xray", "--seed", "-1"], ["--profile", tmp_path / "p.json"]):
        assert run("simulate", "--lib", tmp_path / "lib.fasta", *source,
                   "--out", tmp_path / "r.fastq") == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "r.fastq").exists()


def test_negative_pj_seed_exits_2(workdir, monkeypatch, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    monkeypatch.setenv("PJ_SEED", "-3")
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--preset", "xray",
               "--out", tmp_path / "r.fastq") == 2
    assert run("sweep", "--in", tmp_path / "in.pgm", "--rates", "0.5", "--seeds", "1",
               "--out", tmp_path / "s.csv") == 2
    assert capsys.readouterr().err.count("PJ_SEED must be non-negative, got -3") == 2


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_decode_clean_round_trip(workdir):
    tmp_path, img = workdir
    encode(tmp_path)
    assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest", tmp_path / "m.json",
               "--out", tmp_path / "out.pgm") == 0
    assert (tmp_path / "out.pgm").read_bytes() == (tmp_path / "in.pgm").read_bytes()


def test_decode_skips_read_with_lone_carriage_return(workdir):
    tmp_path, img = workdir
    encode(tmp_path)
    seqs = read_sequences(tmp_path / "lib.fasta").sequences[:8]
    seqs.insert(3, "AC\rGT")
    with open(tmp_path / "r.fastq", "wb") as fh:
        for k, seq in enumerate(seqs):
            fh.write(f"@r{k}\n{seq}\n+\n{'I' * len(seq)}\n".encode())
    assert run("decode", "--reads", tmp_path / "r.fastq", "--manifest", tmp_path / "m.json",
               "--out", tmp_path / "out.pgm") == 0
    counters = json.loads((tmp_path / "out.pgm.meta.json").read_text())["counters"]
    assert counters["skipped_alphabet"] == 1
    assert counters["reads_total"] == counters["accepted"] == 8


def test_decode_after_loss10(workdir):
    tmp_path, img = workdir
    encode(tmp_path)
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--preset", "loss10",
               "--out", tmp_path / "r.fastq", "--seed", "5") == 0
    assert run("decode", "--reads", tmp_path / "r.fastq", "--manifest", tmp_path / "m.json",
               "--out", tmp_path / "out.pgm", "--mask", tmp_path / "mask.pbm") == 0
    meta = json.loads((tmp_path / "out.pgm.meta.json").read_text())
    assert abs(meta["counters"]["masked_fraction"] - 0.10) < 0.08
    mask = read_pbm(tmp_path / "mask.pbm")
    out = read_pgm(tmp_path / "out.pgm")
    assert np.array_equal(out[~mask], img[~mask])
    assert (out[mask] == 0).all()


def test_decode_empty_reads_total_loss(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "empty.fastq").write_text("")
    assert run("decode", "--reads", tmp_path / "empty.fastq", "--input-format", "fastq",
               "--manifest", tmp_path / "m.json", "--out", tmp_path / "out.pgm",
               "--mask", tmp_path / "mask.pbm") == 0
    assert (read_pgm(tmp_path / "out.pgm") == 0).all()
    assert read_pbm(tmp_path / "mask.pbm").all()


def test_decode_takes_the_format_from_the_content(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "lib.fastq").write_bytes((tmp_path / "lib.fasta").read_bytes())
    for name in ("lib.fasta", "lib.fastq"):
        assert run("decode", "--lib", tmp_path / name, "--manifest", tmp_path / "m.json",
                   "--out", tmp_path / f"{name}.pgm", "--mask", tmp_path / f"{name}.pbm") == 0
    for ext in ("pgm", "pbm"):
        assert (tmp_path / f"lib.fasta.{ext}").read_bytes() == (
            tmp_path / f"lib.fastq.{ext}").read_bytes()
    # --input-format still overrides the content
    assert run("decode", "--lib", tmp_path / "lib.fasta", "--input-format", "fastq",
               "--manifest", tmp_path / "m.json", "--out", tmp_path / "x.pgm") == 4


def test_decode_sidecar_records_the_format_read(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "lib.fastq").write_bytes((tmp_path / "lib.fasta").read_bytes())
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--preset", "clean",
               "--out", tmp_path / "reads.fasta") == 0
    (tmp_path / "empty.fastq").write_text("")
    for name, fmt in (("lib.fastq", "fasta"), ("reads.fasta", "fastq"), ("empty.fastq", None)):
        assert run("decode", "--reads", tmp_path / name, "--manifest", tmp_path / "m.json",
                   "--out", tmp_path / f"{name}.pgm") == 0
        meta = json.loads((tmp_path / f"{name}.pgm.meta.json").read_text())
        assert meta["parameters"]["input_format"] == "auto"
        assert meta["counters"]["reads_format"] == fmt


def test_decode_sidecar_counts_an_all_skipped_reads_file(workdir):
    """A file whose every record holds a base outside ACGT decodes as a total
    loss, and the sidecar counts its records as skipped in the format they
    were parsed as."""
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "n.fastq").write_text("@r0\nNNNN\n+\nIIII\n@r1\nACGN\n+\nIIII\n")
    (tmp_path / "n.fasta").write_text(">pj|0\nACGN\n>pj|1\n")
    for name, fmt, skipped in (("n.fastq", "fastq", 2), ("n.fasta", "fasta", 2)):
        assert run("decode", "--reads", tmp_path / name, "--manifest", tmp_path / "m.json",
                   "--out", tmp_path / f"{name}.pgm", "--mask", tmp_path / f"{name}.pbm") == 0
        assert read_pbm(tmp_path / f"{name}.pbm").all()
        counters = json.loads((tmp_path / f"{name}.pgm.meta.json").read_text())["counters"]
        assert (counters["skipped_alphabet"], counters["reads_total"]) == (skipped, 0)
        assert counters["reads_format"] == fmt


def _run_through_fifo(fifo, data: bytes, *argv) -> int:
    """``run(*argv)`` while a thread writes ``data`` into the FIFO ``fifo``."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        code = run(*argv)
    finally:
        if writer.is_alive():  # a reader that never opened the FIFO blocks the writer
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=30)
        fifo.unlink()
    assert not writer.is_alive()
    return code


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_decode_and_simulate_read_from_a_fifo(workdir, rng):
    """Every input a sidecar hashes may name a FIFO, which is read once: the
    outputs, and the sidecar's input digest and counters, are those of
    reading the regular file.  Hashing an input by opening it again blocked
    for ever on a FIFO whose writer had closed."""
    tmp_path, _ = workdir
    encode(tmp_path)
    assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest", tmp_path / "m.json",
               "--out", tmp_path / "lost.pgm", "--mask", tmp_path / "lost.pbm") == 0
    write_idx_images(tmp_path / "in.idx", rng.integers(0, 256, (3, 28, 28), dtype=np.uint8))
    fifo = tmp_path / "fifo"
    decode = ["decode", "--manifest", tmp_path / "m.json"]
    image_out = [("--out", "pgm"), ("--mask", "pbm")]
    for command, source, outputs in (
        (["simulate", "--preset", "loss10", "--seed", "5", "--lib"], "lib.fasta",
         [("--out", "fastq")]),
        (decode + ["--reads"], "file.fastq", image_out),
        (decode + ["--lib"], "lib.fasta", image_out),
        (["decode", "--lib", tmp_path / "lib.fasta", "--manifest"], "m.json", image_out),
        (["encode", "--in"], "in.pgm", [("--out", "fasta"), ("--manifest", "json")]),
        (["encode", "--raw"], "in.pgm", [("--out", "fasta"), ("--manifest", "json")]),
        (["inpaint", "--mask", tmp_path / "lost.pbm", "--in"], "in.pgm", [("--out", "pgm")]),
        (["inpaint", "--in", tmp_path / "lost.pgm", "--mask"], "lost.pbm", [("--out", "pgm")]),
        (["sweep", "--rates", "0.1", "--seeds", "1", "--in"], "in.pgm", [("--out", "csv")]),
        (["degrade-dataset", "--rate", "0.1", "--in"], "in.idx", [("--out", "idx")]),
    ):
        data = (tmp_path / source).read_bytes()
        for side, src in (("file", tmp_path / source), ("fifo", fifo)):
            argv = [*command, src]
            for flag, ext in outputs:
                argv += [flag, tmp_path / f"{side}.{ext}"]
            assert (run(*argv) if side == "file" else _run_through_fifo(fifo, data, *argv)) == 0
        for _, ext in outputs:
            assert (tmp_path / f"fifo.{ext}").read_bytes() == (tmp_path / f"file.{ext}").read_bytes()
        file_meta, fifo_meta = (json.loads((tmp_path / f"{side}.{outputs[0][1]}.meta.json").read_text())
                                for side in ("file", "fifo"))
        digest = hashlib.sha256(data).hexdigest()
        assert fifo_meta["inputs"][str(fifo)] == file_meta["inputs"][str(tmp_path / source)] == digest
        assert fifo_meta["counters"] == file_meta["counters"]


def test_decode_negative_primer_mismatches_exits_2(workdir, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest", tmp_path / "m.json",
               "--out", tmp_path / "x.pgm", "--primer-mismatches", "-1") == 2
    assert "primer_tolerance must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "x.pgm").exists()


def test_decode_inpaint_flag(workdir):
    tmp_path, img = workdir
    encode(tmp_path)
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--preset", "loss10",
               "--out", tmp_path / "r.fastq", "--seed", "5") == 0
    assert run("decode", "--reads", tmp_path / "r.fastq", "--manifest", tmp_path / "m.json",
               "--out", tmp_path / "plain.pgm") == 0
    assert run("decode", "--reads", tmp_path / "r.fastq", "--manifest", tmp_path / "m.json",
               "--out", tmp_path / "filled.pgm", "--inpaint") == 0
    plain = read_pgm(tmp_path / "plain.pgm")
    filled = read_pgm(tmp_path / "filled.pgm")
    assert not np.array_equal(plain, filled)


# (encode source, channel preset or None for ``--lib``, extra decode flags)
DECODE_CASES = {
    "aging95C-mask-inpaint": ("image", "aging95C", ["--inpaint"]),
    "xray-primer-mismatches-2": ("image", "xray", ["--primer-mismatches", "2"]),
    "lib-fasta": ("image", None, []),
    "raw-aging95C-mask": ("raw", "aging95C", []),
}

# SHA-256 over the output, the mask and the ``.meta.json`` sidecar that
# ``decode`` writes in each case, as written by the pair-list decoder that
# preceded the array vote result (the simulated cases re-recorded for
# channel stream 3); any change to what decode writes fails here.
DECODE_SHA256 = {
    "aging95C-mask-inpaint": "e4f781aba8c581e74f7d6e95308c8315184bcede0dcec091c9f634b1510d83d4",
    "xray-primer-mismatches-2": "fbe48808bb3db7f2fcce65ac8ca0e4bee54dbf448d9ed8fa89e7e444f9c4eb65",
    "lib-fasta": "df2466f2e538f4cad981c58ff8863ef4e8e7a28d95fac1f5b5bf6be1f32f4707",
    "raw-aging95C-mask": "2accddc8b45382db0b908fea1b87ccdad73d2ff8bc5789c764e5b958d1f0e106",
}


@pytest.mark.parametrize("case", sorted(DECODE_CASES))
def test_decode_pins_outputs(workdir, monkeypatch, case):
    tmp_path, _ = workdir
    monkeypatch.chdir(tmp_path)  # relative paths keep tmp_path out of the sidecars
    mode, channel, extra = DECODE_CASES[case]
    if mode == "raw":
        blob = np.random.default_rng(7).integers(0, 256, 3000, dtype=np.uint8).tobytes()
        (tmp_path / "data.bin").write_bytes(blob)
        source, out = ["--raw", "data.bin"], "out.bin"
    else:
        source, out = ["--in", "in.pgm"], "out.pgm"
    assert run("encode", *source, "--out", "lib.fasta", "--manifest", "m.json") == 0
    if channel is None:
        reads = ["--lib", "lib.fasta"]
    else:
        assert run("simulate", "--lib", "lib.fasta", "--preset", channel, "--seed", "3",
                   "--out", "r.fastq") == 0
        reads = ["--reads", "r.fastq"]
    assert run("decode", *reads, "--manifest", "m.json", "--out", out,
               "--mask", "mask.pbm", *extra) == 0
    # the sidecar's ``reads_format`` counter came later than these digests:
    # check it, then hash the sidecar as it reads without it
    sidecar = (tmp_path / (out + ".meta.json")).read_text()
    meta = json.loads(sidecar)
    assert sidecar == json.dumps(meta, indent=2, sort_keys=True) + "\n"
    assert meta["counters"].pop("reads_format") == ("fastq" if channel else "fasta")
    sidecar = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    data = b"".join((tmp_path / f).read_bytes() for f in [out, "mask.pbm"]) + sidecar.encode()
    assert hashlib.sha256(data).hexdigest() == DECODE_SHA256[case]


def test_decode_bad_manifest_exits_4(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "bad.json").write_text('{"mode": "image"}')
    assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest", tmp_path / "bad.json",
               "--out", tmp_path / "x.pgm") == 4


def test_decode_non_ascii_manifest_exits_4(workdir, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
    assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest", tmp_path / "bad.json",
               "--out", tmp_path / "x.pgm") == 4
    assert "invalid JSON" in capsys.readouterr().err


def test_decode_overlong_manifest_width_exits_4(workdir, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    good = json.loads((tmp_path / "m.json").read_text())
    text = json.dumps({**good, "width": 0}).replace('"width": 0', '"width": ' + OVERLONG)
    (tmp_path / "bad.json").write_text(text)
    assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest", tmp_path / "bad.json",
               "--out", tmp_path / "x.pgm") == 4
    assert "invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "x.pgm").exists()


def test_decode_manifest_field_of_wrong_type_exits_4(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    good = json.loads((tmp_path / "m.json").read_text())
    for key, value in (("width", "x"), ("cfg", 5)):
        (tmp_path / "bad.json").write_text(json.dumps({**good, key: value}))
        assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest",
                   tmp_path / "bad.json", "--out", tmp_path / "x.pgm") == 4


# Fields whose strand_count agrees with the bad geometry, so only the type
# and sign checks can reject them; the workdir image is 48 wide, 64 high.
HOSTILE_MANIFESTS = {
    "negative-width": {"width": -5, "strand_count": -16},
    "float-width": {"width": 1.5, "strand_count": 5.0},
    "float-tile-pixels": {"tile_pixels": 20.0},
    "bool-geometry": {"width": True, "height": True, "strand_count": 1},
    "negative-width-and-height": {"width": -5, "height": -40, "strand_count": 10},
    "float-radix": {"cfg": {"group_radices": [4, 3, 4.0, 4, 3], "bits_per_block": 9,
                            "groups_per_payload": 18, "jump_length": 2}},
    # a raw manifest over the image's 154 strands of 162 payload bits, whose
    # tiles carry no pad
    "raw-pad-bits": {"mode": "raw", "width": None, "height": None, "tile_pixels": None,
                     "total_bits": 154 * 162, "pad_bits_per_tile": 7},
    # derived values must be stored as the very integer they derive to
    "float-strand-count": {"strand_count": 154.0},
    "wrong-jump-length": {"cfg": {"group_radices": [4, 3, 4, 4, 3], "bits_per_block": 9,
                                  "groups_per_payload": 18, "jump_length": 1}},
    "list-primer5": {"layout": {**DEFAULT_LAYOUT.to_dict(),
                                "primer5": list(DEFAULT_LAYOUT.primer5)}},
}


@pytest.mark.parametrize("case", sorted(HOSTILE_MANIFESTS))
def test_decode_hostile_manifest_exits_4(workdir, capsys, case):
    tmp_path, _ = workdir
    encode(tmp_path)
    good = json.loads((tmp_path / "m.json").read_text())
    (tmp_path / "bad.json").write_text(json.dumps({**good, **HOSTILE_MANIFESTS[case]}))
    assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest", tmp_path / "bad.json",
               "--out", tmp_path / "x.pgm") == 4
    assert "inconsistent manifest" in capsys.readouterr().err
    assert not (tmp_path / "x.pgm").exists()


def test_raw_round_trip_via_cli(tmp_path, rng):
    blob = rng.integers(0, 256, 3000, dtype=np.uint8).tobytes()
    (tmp_path / "data.bin").write_bytes(blob)
    assert run("encode", "--raw", tmp_path / "data.bin", "--out", tmp_path / "lib.fasta",
               "--manifest", tmp_path / "m.json") == 0
    assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest", tmp_path / "m.json",
               "--out", tmp_path / "back.bin", "--mask", tmp_path / "gaps.pbm") == 0
    assert (tmp_path / "back.bin").read_bytes() == blob
    gaps = read_pbm(tmp_path / "gaps.pbm")
    assert gaps.shape == (1, 24000) and not gaps.any()


# ---------------------------------------------------------------------------
# ssim / inpaint / sweep
# ---------------------------------------------------------------------------

def test_ssim_prints_one_for_identity(workdir, capsys):
    tmp_path, _ = workdir
    assert run("ssim", tmp_path / "in.pgm", tmp_path / "in.pgm") == 0
    assert capsys.readouterr().out.strip() == "1.000000"


@pytest.mark.parametrize("shape, message", [((64, 47), "image shapes differ"),
                                            ((0, 48), "images must be non-empty")])
def test_ssim_of_mismatched_or_empty_image_exits_2(workdir, capsys, shape, message):
    tmp_path, _ = workdir
    write_pgm(tmp_path / "other.pgm", np.zeros(shape, np.uint8))
    first = tmp_path / ("other.pgm" if 0 in shape else "in.pgm")
    assert run("ssim", first, tmp_path / "other.pgm") == 2
    assert message in capsys.readouterr().err


def test_overlong_pgm_header_exits_4(workdir, capsys):
    tmp_path, _ = workdir
    (tmp_path / "bad.pgm").write_bytes(b"P5\n" + OVERLONG.encode() + b" 1\n255\n")
    assert run("ssim", tmp_path / "bad.pgm", tmp_path / "in.pgm") == 4
    assert run("sweep", "--in", tmp_path / "bad.pgm", "--rates", "0.5", "--seeds", "1",
               "--out", tmp_path / "s.csv") == 4
    assert capsys.readouterr().err.count("header number") == 2
    assert not (tmp_path / "s.csv").exists()


def test_overlong_pbm_mask_header_exits_4(workdir, capsys):
    tmp_path, _ = workdir
    (tmp_path / "bad.pbm").write_bytes(b"P4\n1 " + OVERLONG.encode() + b"\n\x00")
    assert run("inpaint", "--in", tmp_path / "in.pgm", "--mask", tmp_path / "bad.pbm",
               "--out", tmp_path / "o.pgm") == 4
    assert "header number" in capsys.readouterr().err
    assert not (tmp_path / "o.pgm").exists()


def test_inpaint_subcommand(tmp_path):
    img = np.tile(np.linspace(0, 255, 32, dtype=np.uint8), (32, 1))
    write_pgm(tmp_path / "g.pgm", img)
    from pjdna.images import write_pbm

    mask = np.zeros((32, 32), bool)
    mask[10:12, 10:14] = True
    write_pbm(tmp_path / "m.pbm", mask)
    broken = img.copy()
    broken[mask] = 0
    write_pgm(tmp_path / "broken.pgm", broken)
    assert run("inpaint", "--in", tmp_path / "broken.pgm", "--mask", tmp_path / "m.pbm",
               "--out", tmp_path / "fixed.pgm") == 0
    fixed = read_pgm(tmp_path / "fixed.pgm")
    assert np.abs(fixed[mask].astype(int) - img[mask].astype(int)).max() <= 2


def test_sweep_csv_and_determinism(workdir, monkeypatch):
    tmp_path, _ = workdir
    for name in ("s1.csv", "s2.csv"):
        assert run("sweep", "--in", tmp_path / "in.pgm", "--rates", "0,0.1,0.5",
                   "--seeds", "3", "--out", tmp_path / name) == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    lines = (tmp_path / "s1.csv").read_text().splitlines()
    assert lines[0] == "loss_rate,seed,scheme,ssim_raw,ssim_inpainted,masked_fraction"
    assert lines[1].startswith("0,0,EM,1.000000")
    # a thread pool changes nothing about the bytes
    assert run("sweep", "--in", tmp_path / "in.pgm", "--rates", "0,0.1,0.5",
               "--seeds", "3", "--threads", "4", "--out", tmp_path / "st.csv") == 0
    assert (tmp_path / "st.csv").read_bytes() == (tmp_path / "s1.csv").read_bytes()
    # PJ_SEED moves the seed window
    monkeypatch.setenv("PJ_SEED", "100")
    assert run("sweep", "--in", tmp_path / "in.pgm", "--rates", "0.5", "--seeds", "2",
               "--out", tmp_path / "s3.csv") == 0
    assert ",100,EM," in (tmp_path / "s3.csv").read_text()


def test_sweep_negative_seed_exits_2(workdir, capsys):
    tmp_path, _ = workdir
    assert run("sweep", "--in", tmp_path / "in.pgm", "--rates", "0.5", "--seeds", "3",
               "--seed", "-1", "--out", tmp_path / "s.csv") == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_no_seeds_exits_2(workdir, capsys):
    tmp_path, _ = workdir
    assert run("sweep", "--in", tmp_path / "in.pgm", "--rates", "0.5", "--seeds", "0",
               "--out", tmp_path / "s.csv") == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("threads", [0, -1])
def test_sweep_threads_below_one_exit_2(workdir, capsys, threads):
    tmp_path, _ = workdir
    assert run("sweep", "--in", tmp_path / "in.pgm", "--rates", "0.5", "--seeds", "1",
               "--threads", threads, "--out", tmp_path / "s.csv") == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_bad_rates_exit_2(workdir):
    tmp_path, _ = workdir
    assert run("sweep", "--in", tmp_path / "in.pgm", "--rates", "0,banana",
               "--out", tmp_path / "s.csv") == 2


# ---------------------------------------------------------------------------
# degrade-dataset / tally
# ---------------------------------------------------------------------------

def test_degrade_dataset_cli(tmp_path, rng, capsys):
    imgs = rng.integers(0, 256, (12, 28, 28), dtype=np.uint8)
    write_idx_images(tmp_path / "in.idx", imgs)
    assert run("degrade-dataset", "--in", tmp_path / "in.idx", "--rate", "0.1",
               "--seed", "4", "--out", tmp_path / "out.idx",
               "--masks", tmp_path / "masks.idx") == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["images"] == 12
    assert summary["strands_per_image"] == 40
    assert read_idx_images(tmp_path / "out.idx").shape == imgs.shape


def test_degrade_dataset_hostile_idx_header_exits_4(tmp_path, capsys):
    (tmp_path / "in.idx").write_bytes(bytes.fromhex("00000803") + b"\xff" * 12)
    assert run("degrade-dataset", "--in", tmp_path / "in.idx", "--rate", "0.1",
               "--out", tmp_path / "out.idx") == 4
    assert "shorter than its header promises" in capsys.readouterr().err
    assert not (tmp_path / "out.idx").exists()


@pytest.mark.parametrize("count", [0, 3])
def test_degrade_dataset_bad_rate_exits_2(tmp_path, rng, capsys, count):
    write_idx_images(tmp_path / "in.idx", rng.integers(0, 256, (count, 28, 28), dtype=np.uint8))
    assert run("degrade-dataset", "--in", tmp_path / "in.idx", "--rate", "1.5",
               "--out", tmp_path / "out.idx") == 2
    assert "drop probability must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "out.idx").exists()
    assert not (tmp_path / "out.idx.meta.json").exists()


@pytest.mark.parametrize("count", [0, 3])
def test_degrade_dataset_negative_seed_exits_2(tmp_path, rng, capsys, count):
    write_idx_images(tmp_path / "in.idx", rng.integers(0, 256, (count, 28, 28), dtype=np.uint8))
    assert run("degrade-dataset", "--in", tmp_path / "in.idx", "--rate", "0.1",
               "--seed", "-1", "--out", tmp_path / "out.idx") == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out.idx").exists()


def test_tally_cli(tmp_path, capsys):
    write_idx_labels(tmp_path / "truth.idx", [1, 2, 3, 4])
    (tmp_path / "orig.txt").write_text("1\n2\n9\n4\n")
    (tmp_path / "degr.txt").write_text("1\n7\n3\n4\n")
    assert run("tally", "--truth", tmp_path / "truth.idx", "--orig", tmp_path / "orig.txt",
               "--degraded", tmp_path / "degr.txt") == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["both_correct"] == 2
    assert out["orig_only_correct"] == 1
    assert out["degraded_only_correct"] == 1
    assert out["prediction_accuracy"] == pytest.approx(2 / 3)


def test_tally_hostile_text_labels_exit_4(tmp_path, capsys):
    write_idx_labels(tmp_path / "truth.idx", [1, 2, 3, 4])
    (tmp_path / "orig.txt").write_text("1\n2\n3\n4\n")
    hostile = [
        (b"1\n" + b"9" * 30 + b"\n3\n4\n", "outside the int64 range"),
        (b"1\n2\n\xff3\n4\n", "text labels must be ASCII"),
    ]
    for data, message in hostile:
        (tmp_path / "degr.txt").write_bytes(data)
        assert run("tally", "--truth", tmp_path / "truth.idx", "--orig", tmp_path / "orig.txt",
                   "--degraded", tmp_path / "degr.txt") == 4
        err = capsys.readouterr().err
        assert err.startswith("pjdna: ") and message in err


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "pjdna" in capsys.readouterr().out
