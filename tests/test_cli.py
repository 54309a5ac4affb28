"""End-to-end command-line behavior: flows, determinism, exit codes, metadata."""

import json

import numpy as np
import pytest

from pjdna.cli import main
from pjdna.images import read_pbm, read_pgm, write_pgm
from pjdna.idx import read_idx_images, write_idx_images, write_idx_labels
from pjdna.jr import max_homopolymer_run
from pjdna.partition import TileManifest
from pjdna.seqio import read_sequences


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
    assert meta["parameters"]["channel_stream"] == 2


def test_simulate_non_ascii_profile_exits_4(workdir, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    (tmp_path / "p.json").write_bytes(b"\xff{}")
    assert run("simulate", "--lib", tmp_path / "lib.fasta", "--profile", tmp_path / "p.json",
               "--out", tmp_path / "r.fastq") == 4
    assert "invalid JSON" in capsys.readouterr().err


def test_simulate_profile_wrong_type_exits_2(workdir, capsys):
    tmp_path, _ = workdir
    encode(tmp_path)
    for bad in ({"dropout_p": "x"}, {"coverage_mean": [10]}, {"seed": "7"}):
        (tmp_path / "p.json").write_text(json.dumps(bad))
        assert run("simulate", "--lib", tmp_path / "lib.fasta", "--profile",
                   tmp_path / "p.json", "--out", tmp_path / "r.fastq") == 2
        assert "must be" in capsys.readouterr().err


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


def test_decode_manifest_field_of_wrong_type_exits_4(workdir):
    tmp_path, _ = workdir
    encode(tmp_path)
    good = json.loads((tmp_path / "m.json").read_text())
    for key, value in (("width", "x"), ("cfg", 5)):
        (tmp_path / "bad.json").write_text(json.dumps({**good, key: value}))
        assert run("decode", "--lib", tmp_path / "lib.fasta", "--manifest",
                   tmp_path / "bad.json", "--out", tmp_path / "x.pgm") == 4


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


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "pjdna" in capsys.readouterr().out
