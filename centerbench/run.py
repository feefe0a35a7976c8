"""Seeded offline benchmark of the centerseg pipeline.

    python3 centerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``centerseg`` from
``src/`` there and from nowhere else, and exits 2 without a result when
that package is missing. It writes only under ``.bench_runs/`` in the
checkout.

Workloads (closed loops, one caller, all in this one process; the CLI
runs in process through ``centerseg.cli.main`` with ``--jobs 2``):

- ``desk-batch``: ``segment --batch-dir`` then ``eval`` then ``track``
  over noisy 192x144 frames with library-default pipeline settings;
- ``fullres-live``: read, segment, write and track one 1280x720 frame
  at a time under a soft address-space cap, then ``map_eval``;
- ``fullres-offline``: ``eval`` then ``track --out-dir`` over 1280x720
  manifests that set-up segmented.

Set-up (import of the program plus writing the seeded inputs) runs
several times (see ``set_up``); ``setup_s`` is the median and every
round must write the same bytes. With ``--trace 0`` the last line is the result
with every end-to-end metric; with ``--trace 1`` the run alternates
untraced and traced passes over the same work and reports the per-layer
metrics, writing the spans to ``spans.jsonl`` beside ``result.json``.
``NOT_MEASURED`` lists what is left out on purpose, and why.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_ROUNDS = 3  # at least; short set-ups repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 4.0
PROGRAM_MODULES = ("cli", "config", "evaluation", "formats", "instances", "tracking")

NOT_MEASURED = {
    "mean-shift": "the slow baseline clusterer (about 60x DBSCAN at 50k points); no production path selects it",
    "losses/gradcheck": "training-side code, outside the per-frame path after the network",
    "density filter at full scale": "it runs out of memory at 1280x720 today, so the full-scale workloads use "
    "the offset-magnitude filter; the density filter runs in desk-batch. Add it as its own benchmark change "
    "once it completes",
}

# (metric, unit), in the order BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ok/attempted"),
    ("mask_map", "mAP"),
    ("mask_ap50", "AP"),
    ("count_exact_rate", "frames/frames"),
    ("rc2m_coverage", "frames/frames"),
)


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """A fresh import of the checkout's ``centerseg`` and its modules."""
    for name in [m for m in sys.modules if m == "centerseg" or m.startswith("centerseg.")]:
        del sys.modules[name]
    if not (SRC / "centerseg" / "__init__.py").is_file():
        raise ProgramMissing(f"no centerseg package under {SRC}")
    cs = importlib.import_module("centerseg")
    if not Path(cs.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"centerseg imported from {cs.__file__}, not from {SRC}")
    return cs, {name: importlib.import_module(f"centerseg.{name}") for name in PROGRAM_MODULES}


def set_up(workload, seed: int, work: Path):
    """Run set-up repeatedly and keep the last round's inputs.

    At least ``SETUP_ROUNDS`` rounds, and more (up to three times as
    many) while they have taken less than ``SETUP_SECONDS`` in all, so
    that the median of a short set-up steadies too.
    """
    from workloads import tree_digest

    seconds, digests = [], []
    k = 0
    while k < SETUP_ROUNDS or (sum(seconds) < SETUP_SECONDS and k < 3 * SETUP_ROUNDS):
        root = work / f"setup{k}"
        gc.collect()
        t0 = time.perf_counter()
        cs, mods = import_program()
        layout = workload.setup(cs, seed, root)
        seconds.append(time.perf_counter() - t0)
        digests.append(tree_digest(root))
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
        k += 1
    return statistics.median(seconds), len(set(digests)) == 1, mods, layout


@contextlib.contextmanager
def address_space_cap(limit: int | None):
    """A soft RLIMIT_AS on this process only, lifted again afterwards."""
    if limit is None:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def checked_step(w, tally):
    """One step; a step with a failed operation completed no frames."""
    failed = tally.failed
    step = w.step(tally)
    if tally.failed > failed:
        step.frames = 0
    return step


def measure(w, tally, seconds: float):
    """Steps until ``seconds`` of program time, then the closing step."""
    steps = []
    spent = 0.0
    deadline = time.perf_counter() + 2 * seconds + 60
    while (spent < seconds or not steps) and time.perf_counter() < deadline:
        steps.append(checked_step(w, tally))
        spent += steps[-1].seconds
    closing = w.finish(tally)
    return steps + ([closing] if closing else [])


def measure_traced(w, tally, seconds: float, tracer):
    """Alternate untraced and traced passes over the same work.

    One untimed step first lets the first run's one-off costs (creating
    output files) pass. Returns the frames processed while tracing and
    the traced over the untraced program time of the passes (the
    tracing overhead).
    """
    w.step(tally)
    spent = {False: 0.0, True: 0.0}
    frames = 0
    deadline = time.perf_counter() + 2 * seconds + 60
    while (sum(spent.values()) < seconds or not spent[True]) and time.perf_counter() < deadline:
        for on in (False, True):
            w.traced = on
            for _ in range(w.steps_per_pass):
                step = checked_step(w, tally)
                spent[on] += step.seconds
                frames += step.frames if on else 0
    w.traced = True
    w.finish(tally)
    w.traced = False
    return frames, spent[True] / spent[False]


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies and the maximum is
    reported instead; the label says which.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of {n} samples (fewer than 11)"
    k = n - 10
    return xs[k - 1], f"p{100 * k // n} of {n} samples"


def machine_facts(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv, names):
    p = argparse.ArgumentParser(description="centerseg benchmark")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    # at most the two CLI workers: no extra BLAS threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import LAYER_MOVES, PER_LAYER, Tracer, layer_metrics

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    facts = machine_facts(args)
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, same_inputs, mods, layout = set_up(workload, args.seed, work)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 2

    tally = workloads.Tally()
    tracer = Tracer() if args.trace else None
    w = workload(mods, layout, work, tracer)
    gc.collect()
    notes = []
    with address_space_cap(w.address_space_cap):
        if tracer is None:
            steps = measure(w, tally, args.seconds)
        else:
            tracer.install(mods)
            try:
                frames, overhead = measure_traced(w, tally, args.seconds, tracer)
            finally:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for entry in work.iterdir():  # the inputs and outputs; keep only the record
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()

    problems = list(w.setup_problems)
    if not same_inputs:
        problems.append("set-up wrote different inputs in different rounds")
    if tracer is None:
        latencies = [x for s in steps for x in s.latencies_ms]
        frame_tail, tail_label = tail(latencies)
        quality = w.quality()
        values = {
            "setup_s": setup_s,
            "frames_per_s": sum(s.frames for s in steps) / sum(s.seconds for s in steps),
            "frame_ms_p50": statistics.median(latencies),
            "frame_ms_tail": frame_tail,
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1.0 - tally.failed / tally.attempted,
            **quality,
        }
        units = dict(END_TO_END)
        notes.append(f"frame_ms_tail: {tail_label}")
        notes.append(f"frame_ms_p50: median of {len(latencies)} samples")
    else:
        values, layer_notes = layer_metrics(tracer.spans, frames, overhead)
        units = dict(PER_LAYER)
        notes += layer_notes
        tracer.write(work / "spans.jsonl")
    notes.append(f"error_rate: {tally.failed}/{tally.attempted} operations failed or wrong")
    correct = not problems and tally.failed == 0

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        **result, "machine": facts, "notes": notes, "problems": problems + tally.reasons, "not_measured": NOT_MEASURED,
    }
    if tracer is not None:
        record["layer_moves"] = LAYER_MOVES
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    for line in problems + tally.reasons:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
