"""Layered benchmark of pjdna.

    python3 pjbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; pjdna is imported from ``src/``.
The run sets up the workload's input in a fresh interpreter, then repeats
whole rounds of the workload's ``pjdna`` commands, each round in a forked
copy of this process and followed by a timed set-up, until ``--seconds``
have passed; ``job_s`` and ``setup_s`` are medians over the run.  Every
round's outputs are checked against the benchmark's own computations and
must repeat byte for byte.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count the commands, and
``metrics`` holds the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of a run that alternates plain rounds with traced ones.
See README.md in this directory.
"""

from __future__ import annotations

import os

# One single-threaded process: numerical libraries get one thread each.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

# Set-ups timed per run at least; one more runs first, untimed, to warm the
# file cache and write bytecode, which users do not pay on every run.
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MiB",
    "bytes_correct": "bytes",
    "ssim": "ratio",
}

PER_LAYER = {
    "cli.encode_s": "s", "cli.simulate_s": "s", "cli.decode_s": "s",
    "cli.sweep_s": "s", "cli.degrade_s": "s",
    "channel.drop_s": "s", "channel.corrupt_s": "s", "channel.reads": "count",
    "seqio.write_fasta_s": "s", "seqio.read_fasta_s": "s",
    "seqio.write_fastq_s": "s", "seqio.read_fastq_s": "s",
    "seqio.records": "count", "seqio.mib": "MiB",
    "strand.parse_s": "s", "jr.decode_rows_s": "s",
    "channel.vote_s": "s", "channel.indices_observed": "count",
    "partition.encode_s": "s", "strand.assemble_s": "s", "jr.encode_rows_s": "s",
    "partition.strands": "count",
    "strand.accepted": "count", "strand.reject_length": "count",
    "strand.reject_primer": "count", "strand.reject_corrupt": "count",
    "strand.accept_ratio": "ratio",
    "partition.decode_s": "s", "partition.tiles_missing": "count",
    "partition.stray_indices": "count", "partition.tiles_wrong": "count",
    "inpaint.fill_s": "s", "inpaint.masked_pixels": "count",
    "inpaint.max_err": "gray", "inpaint.mean_err": "gray",
    "metrics.ssim_s": "s", "sweep.cells": "count", "sweep.cell_s": "s",
    "idx.read_s": "s", "idx.write_s": "s", "idx.images": "count",
    "trace.overhead_s": "s",
}

_CLI_SPAN = {"encode": "cli.encode", "simulate": "cli.simulate", "decode": "cli.decode",
             "sweep": "cli.sweep", "degrade-dataset": "cli.degrade"}


def layer_metrics(tr, counters: dict) -> dict:
    """Per-layer values of one traced round.  An outer function's time is
    its self time: the inner function, timed in its own call on the same
    input, is subtracted."""
    t = tr.total
    cells = tr.durations("sweep.cell")
    vals = {
        **{v + "_s": t(v) for v in _CLI_SPAN.values()},
        "channel.drop_s": t("channel.drop_strands"),
        "channel.corrupt_s": t("channel.corrupt_reads"),
        "seqio.write_fasta_s": t("seqio.write_fasta"),
        "seqio.read_fasta_s": t("seqio.read_fasta"),
        "seqio.write_fastq_s": t("seqio.write_fastq"),
        "seqio.read_fastq_s": t("seqio.read_fastq"),
        "strand.parse_s": t("strand.parse_many") - t("jr.decode_code_rows"),
        "jr.decode_rows_s": t("jr.decode_code_rows"),
        "channel.vote_s": t("channel.consensus") - t("strand.parse_many"),
        "partition.encode_s": t("partition.encode_image", "partition.encode_raw")
        - t("strand.assemble_many"),
        "strand.assemble_s": t("strand.assemble_many") - t("jr.encode_block_rows"),
        "jr.encode_rows_s": t("jr.encode_block_rows"),
        "partition.decode_s": t("partition.decode_image", "partition.decode_raw"),
        "inpaint.fill_s": t("inpaint.inpaint"),
        "metrics.ssim_s": t("metrics.ssim"),
        "sweep.cell_s": statistics.fmean(cells) if cells else 0.0,
        "idx.read_s": t("idx.read_idx_images"),
        "idx.write_s": t("idx.write_idx_images"),
        **counters,
    }
    return {name: vals.get(name, 0) for name in PER_LAYER if name != "trace.overhead_s"}


def play_round(wl, run_dir: str, traced: bool) -> dict:
    """One round of the workload's commands, run in this (forked) process."""
    from pjdna import cli
    from spans import Tracer

    os.chdir(run_dir)
    for sub in ("out", "replay"):
        shutil.rmtree(sub, ignore_errors=True)
    os.makedirs("out")
    tr = Tracer()
    rcs, cmd_s = [], []
    for argv in wl.commands():
        t0 = time.perf_counter()
        with tr.span(_CLI_SPAN[argv[0]]) if traced else contextlib.nullcontext():
            try:
                rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = -1
        cmd_s.append(time.perf_counter() - t0)
        rcs.append(rc)
    result = {"cmd_s": cmd_s, "rcs": rcs}
    if traced:
        result["layers"] = layer_metrics(tr, wl.replay(tr))
        result["spans"] = tr.spans
    return result


def forked_round(wl, run_dir: str, traced: bool) -> dict:
    """Run ``play_round`` in a forked child; adds the child's peak RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)  # command chatter must not precede the result line
            payload = json.dumps(play_round(wl, run_dir, traced)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"round process ended with status {status}")
    result = json.loads(payload)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def setup(workload: str, seed: int, size: str, in_dir: str) -> float:
    """Wall time of one fresh interpreter that imports pjdna and writes the input."""
    argv = [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--out", in_dir]
    shutil.rmtree(in_dir, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def output_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def measure(wl, run_dir: str, seconds: float, trace: bool, redo_setup) -> dict:
    """Repeat whole rounds for ``seconds``; returns counts, checks and timings.

    Without tracing, a timed set-up (``redo_setup``, which writes the input
    again to ``setup/``) follows each round, so that set-ups and rounds
    sample the same stretches of the run; ``setup_s`` is their median.

    ``job_s`` is the median over the plain rounds of a round's wall time,
    and ``peak_rss_mb`` the median of its peak memory.  On a shared host
    rounds run up to twice as slowly for stretches of seconds to minutes
    while neighbours load the machine; the fastest round of a run depends
    on whether the run met a quiet stretch, the median much less."""
    rounds, setups, failures, first = [], [], [], None
    in_digest = output_digest(os.path.join(run_dir, "in"))
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = trace and len(rounds) % 2 == 1
        r = forked_round(wl, run_dir, traced)
        r["traced"] = traced
        rounds.append(r)
        if not trace:
            setup_dir = os.path.join(run_dir, "setup")
            setups.append(redo_setup(setup_dir))
            if output_digest(setup_dir) != in_digest:
                failures.append(f"set-up {len(setups)} wrote another input than the first")
        digest = output_digest(os.path.join(run_dir, "out"))
        if first is None:
            try:
                found, scores = wl.check(run_dir)
            except Exception as exc:
                found, scores = [f"check raised {exc!r}"], {}
            failures += found
            first = (digest, scores)
        elif digest != first[0]:
            failures.append(f"round {len(rounds)} outputs differ from round 1")
        # Stop where one more round like the last would end past ``seconds``.
        now = time.perf_counter()
        done = 2 * now - began - start > seconds
        if done and len(rounds) >= 2 and (trace or len(setups) >= SETUP_REPEATS):
            break
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    rcs = [rc for r in rounds for rc in r["rcs"]]
    return {
        "attempted": len(rcs),
        "failed": sum(rc != 0 for rc in rcs),
        "failures": failures,
        "scores": first[1],
        "setup_s": statistics.median(setups) if setups else 0.0,
        "job_s": statistics.median(sum(r["cmd_s"]) for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "traced": traced,
        "rounds": [sum(r["cmd_s"]) for r in plain],
        "setups": setups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of pjdna.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input sizes; toy serves the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pjdna", "__init__.py")):
        print(f"pjbench: no pjdna sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pjdna
    import workloads

    if not os.path.abspath(pjdna.__file__).startswith(SRC + os.sep):
        print(f"pjbench: pjdna was imported from {pjdna.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    run_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        def redo_setup(in_dir: str) -> float:
            return setup(args.workload, args.seed, args.size, in_dir)

        redo_setup(os.path.join(run_dir, "in"))
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
        m = measure(wl, run_dir, args.seconds, bool(args.trace), redo_setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for msg in m["failures"]:
        print(f"pjbench: check failed: {msg}", file=sys.stderr)
    print(f"pjbench: {len(m['rounds'])} rounds, job_s " +
          " ".join(f"{t:.3f}" for t in m["rounds"]), file=sys.stderr)
    if m["setups"]:
        print("pjbench: setup_s " + " ".join(f"{t:.3f}" for t in m["setups"]), file=sys.stderr)
    if args.trace:
        per_round = [r["layers"] for r in m["traced"]]
        values = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        values["trace.overhead_s"] = statistics.median(
            sum(r["cmd_s"]) for r in m["traced"]) - m["job_s"]
        os.makedirs(os.path.join(RUNS, "traces"), exist_ok=True)
        trace_path = os.path.join(RUNS, "traces", f"{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="ascii") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": values,
                       "spans": m["traced"][-1]["spans"]}, fh)
        units = PER_LAYER
    else:
        values = {"setup_s": m["setup_s"], "job_s": m["job_s"], "peak_rss_mb": m["peak_rss_mb"],
                  **m["scores"]}
        units = END_TO_END
    print(json.dumps({
        "correct": not m["failures"] and all(k in values for k in units),
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
