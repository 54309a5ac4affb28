"""Self-test of the benchmark, at toy sizes.

    python3 pjbench/selftest.py

It shows that:
1. every workload, plain and traced, prints each metric by name with its
   unit, passes its checks and fails no command; and that BENCHMARK.json,
   where present, names the same metrics and units;
2. the checks reject damaged outputs: a byte flipped outside the mask, a
   mask bit cleared over a zeroed tile, and a sweep row with a perturbed
   SSIM;
3. the oracles agree with pjdna: SSIM to 1e-9 on the workloads' images,
   and the exact harmonic solution with pjdna's fill run to convergence.
Exits with 1 at the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def check_metrics() -> None:
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            expect(listed == units, f"BENCHMARK.json {key} matches run.py")
        expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
               "BENCHMARK.json workloads match workloads.py")
    for name in workloads.WORKLOADS:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "0.5", "--trace", str(trace), "--size", "toy"],
                capture_output=True, text=True, timeout=300)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(proc.returncode == 0 and got == units and out["correct"]
                   and out["attempted"] >= 1 and out["failed"] == 0
                   and all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()),
                   f"{name} --trace {trace}: every metric with its unit, checks pass")


@contextlib.contextmanager
def toy_run(name: str, seed: int):
    """A workload whose commands ran at toy size; yields (workload, run_dir)."""
    from pjdna import cli

    wl = workloads.WORKLOADS[name](seed, "toy")
    run_dir = os.path.join(run.RUNS, f"selftest-{name}-{os.getpid()}")
    inputs.write(name, wl.truth, os.path.join(run_dir, "in"))
    os.makedirs(os.path.join(run_dir, "out"))
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rcs = [cli.main(argv) for argv in wl.commands()]
    finally:
        os.chdir(cwd)
    try:
        expect(rcs == [0] * len(rcs), f"{name}: commands succeed")
        yield wl, run_dir
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


@contextlib.contextmanager
def damaged(path: str):
    """Yield the bytes of ``path`` as a bytearray for the caller to damage
    and write back; restore the original afterwards."""
    with open(path, "rb") as fh:
        original = fh.read()
    buf = bytearray(original)
    try:
        yield buf
    finally:
        with open(path, "wb") as fh:
            fh.write(original)


def rewrite(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def check_rejections() -> None:
    with toy_run("archive-raw", 3) as (wl, d):
        expect(not wl.check(d)[0], "archive-raw: intact outputs pass")
        mask = oracles.read_pbm(os.path.join(d, "out", "mask.pbm")).reshape(-1, 8).any(axis=1)
        path = os.path.join(d, "out", "decoded.bin")
        with damaged(path) as buf:
            buf[int(np.flatnonzero(~mask)[0])] ^= 0x01
            rewrite(path, buf)
            expect(bool(wl.check(d)[0]), "archive-raw: a byte flipped outside the mask is rejected")

    with toy_run("dataset-degrade", 3) as (wl, d):
        expect(not wl.check(d)[0], "dataset-degrade: intact outputs pass")
        path = os.path.join(d, "out", "masks.idx")
        with damaged(path) as buf:
            buf[16 + int(np.flatnonzero(np.frombuffer(bytes(buf[16:]), np.uint8))[0])] = 0
            rewrite(path, buf)
            expect(bool(wl.check(d)[0]), "dataset-degrade: a mask bit cleared over a zeroed tile is rejected")

    with toy_run("roundtrip-aging", 3) as (wl, d):
        failures, scores = wl.check(d)
        expect(not failures, "roundtrip-aging: intact outputs pass")
        mask = oracles.read_pbm(os.path.join(d, "out", "mask.pbm"))
        path = os.path.join(d, "out", "decoded.pgm")
        with damaged(path) as buf:
            header = len(buf) - wl.truth.size
            pos = int(np.flatnonzero(~mask.ravel() & (wl.truth.ravel() == oracles.read_pgm(path).ravel()))[0])
            buf[header + pos] ^= 0x01
            rewrite(path, buf)
            expect(wl.check(d)[1]["bytes_correct"] == scores["bytes_correct"] - 1,
                   "roundtrip-aging: a byte flipped outside the mask leaves bytes_correct one short")
        path = os.path.join(d, "out", "mask.pbm")
        with damaged(path) as buf:
            cleared = mask.copy()
            cleared[tuple(np.argwhere(mask)[0])] = False
            raster = np.packbits(cleared.astype(np.uint8), axis=1).tobytes()
            rewrite(path, bytes(buf[: len(buf) - len(raster)]) + raster)
            expect(bool(wl.check(d)[0]), "roundtrip-aging: a mask bit cleared over a lost tile is rejected")

    with toy_run("sweep-inpaint", 3) as (wl, d):
        expect(not wl.check(d)[0], "sweep-inpaint: intact outputs pass")
        path = os.path.join(d, "out", "sweep.csv")
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        for what, pick, col in (("PM ssim_raw at loss", lambda f: f[2] == "PM" and float(f[5]) > 0, 3),
                                ("PM ssim_inpainted at rate 0", lambda f: f[2] == "PM" and f[0] == "0", 4)):
            k = next(i for i, ln in enumerate(lines[1:], 1) if pick(ln.split(",")))
            fields = lines[k].split(",")
            fields[col] = f"{float(fields[col]) - 0.001:.6f}"
            with damaged(path):
                rewrite(path, "\n".join(lines[:k] + [",".join(fields)] + lines[k + 1:]).encode() + b"\n")
                expect(bool(wl.check(d)[0]), f"sweep-inpaint: a perturbed {what} is rejected")


def check_oracles() -> None:
    from pjdna.inpaint import inpaint
    from pjdna.metrics import ssim

    rng = np.random.default_rng(0)
    img = inputs.generate("sweep-inpaint", 1)
    lost = np.repeat(rng.random(-(-img.size // 20)) < 0.25, 20)[: img.size].reshape(img.shape)
    stack = inputs.generate("dataset-degrade", 1)[:50]
    raw = np.frombuffer(inputs.generate("archive-raw", 1), np.uint8).reshape(-1, workloads.RAW_ROW)
    pairs = [("256^2 textured image", img, np.where(lost, 0, img)),
             ("archive rows", raw, raw ^ (rng.random(raw.shape) < 0.1).astype(np.uint8))]
    pairs += [("28^2 stroke image", a, np.where(rng.random(a.shape) < 0.2, 0, a)) for a in stack]
    worst = max(abs(ssim(a, b) - oracles.ssim(a, b)) for _, a, b in pairs)
    expect(worst <= 1e-9, f"oracle SSIM agrees with pjdna.metrics.ssim within 1e-9 (worst {worst:.1e})")
    stacked = oracles.ssim(stack, np.where(rng.random(stack.shape) < 0.2, 0, stack))
    expect(stacked.shape == (50,), "oracle SSIM scores image stacks one value per image")

    small = inputs.generate("sweep-inpaint", 2, "toy")
    holes = np.repeat(rng.random(-(-small.size // 20)) < 0.5, 20)[: small.size].reshape(small.shape)
    exact = oracles.harmonic_fill(small, holes)
    padded = np.pad(exact, 1)
    ones = np.pad(np.ones_like(exact), 1)
    nsum = padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
    ncnt = ones[:-2, 1:-1] + ones[2:, 1:-1] + ones[1:-1, :-2] + ones[1:-1, 2:]
    resid = np.abs(exact - nsum / ncnt)[holes].max()
    expect(resid < 1e-8, f"exact fill: each masked pixel is its neighbours' mean (residual {resid:.1e})")
    converged = inpaint(small, holes, tol=1e-9, max_iter=1_000_000)
    gap = np.abs(converged.astype(float) - np.clip(np.rint(exact), 0, 255))[holes].max()
    expect(gap <= 1.0, f"exact fill matches pjdna's fill run to convergence (gap {gap:g} gray)")


if __name__ == "__main__":
    check_oracles()
    check_rejections()
    check_metrics()
    print("selftest passed")
