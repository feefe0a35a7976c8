"""Command-line front end.

Subcommands: segment, track, eval, gradcheck, synth. Exit codes: 0
success, 1 runtime failure (running out of memory too), 2 malformed
input or bad arguments (argparse's rejections too; ``--help`` exits 0).
A path that does not exist, such as a missing input file, is a bad
argument.
Each command has flags for only the pipeline config keys it reads; its
``--config`` file may set any key.
``segment --batch-dir`` segments its frames one after another in name
order, stops at the first that fails, names it by its ``.ccsm`` path and
then publishes no manifest. ``track`` reads each manifest just before
its update and publishes its output files together once all are
written. ``eval`` loads its manifests one after another. ``segment``
and ``eval`` accept --jobs, an integer of at least 1 that has no effect.
``gradcheck --n`` and ``synth --frames`` must be at least 1 too, and
``gradcheck --seed`` at least 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import formats
from .config import ALGORITHMS, FILTER_STRATEGIES, PipelineConfig
from .evaluation import map_eval
from .grids import DimensionMismatch
from .instances import FrameResult, segment_frame
from .losses import run_gradient_checks
from .synth import SceneGenerationError, gt_instances, iter_sequence, perturb
from .tracking import TrackState, track_metrics, update_tracks


class UsageError(Exception):
    """Bad command-line arguments; ``main`` exits 2 with the message."""


def _at_least(low: int):
    """An argparse type that accepts integers of at least ``low``."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = low - 1
        if number < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {value!r}")
        return number

    return parse


_count = _at_least(1)  # a case or frame count, and --jobs
_seed = _at_least(0)  # numpy seeds its generators from non-negative integers


def _on_off(value: str) -> bool:
    try:
        return formats.parse_bool(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# The flag of each PipelineConfig field a command may read, by field name.
_CONFIG_FLAGS = {
    "t": {"type": float, "help": "vote filter radius, px"},
    "min_neighbors": {"type": int},
    "filter_strategy": {"choices": FILTER_STRATEGIES},
    "eps": {"type": float, "help": "clustering radius, px"},
    "min_pts": {"type": int},
    "rc2m": {"type": _on_off, "metavar": "on|off", "help": "residual vote reassignment"},
    "algo": {"choices": ALGORITHMS},
    "bandwidth": {"type": float},
    "min_iou": {"type": float},
    "fps": {"type": float},
}


def _add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """``--config`` plus one flag per named field (``min_pts`` is ``--min-pts``)."""
    group = parser.add_argument_group("pipeline config")
    group.add_argument("--config", type=Path, help="key=value config file")
    for name in names:
        group.add_argument("--" + name.replace("_", "-"), dest=name, **_CONFIG_FLAGS[name])


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    """``--jobs``, kept so that existing command lines still parse: it is
    range-checked like a count and then ignored."""
    parser.add_argument("--jobs", type=_count, help="accepted for compatibility; has no effect")


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = formats.read_config(args.config) if args.config else PipelineConfig()
    values = ((f.name, getattr(args, f.name, None)) for f in fields(PipelineConfig))
    flags = {name: value for name, value in values if value is not None}
    try:
        return replace(cfg, **flags)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@contextlib.contextmanager
def _all_or_nothing():
    """Yields ``stage(path)``, which names the temporary file ``<path>.tmp``
    to write in place of ``path``. Once the block succeeds every staged
    file is renamed to its path; if the block or a rename fails, the
    temporary files left are removed."""
    staged: list[Path] = []

    def stage(path: Path) -> Path:
        staged.append(path.with_name(path.name + ".tmp"))
        return staged[-1]

    try:
        yield stage
        for tmp in staged:
            os.replace(tmp, tmp.with_suffix(""))
    except BaseException:
        for tmp in staged:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        raise


def _cmd_segment(args: argparse.Namespace) -> int:
    if args.batch_dir and (args.semantic or args.offsets or args.out or args.frame_id is not None):
        raise UsageError("--batch-dir takes no SEMANTIC, OFFSETS, --out or --frame-id")
    cfg = _build_config(args)

    def run_one(sem_path: Path, off_path: Path, out_path: Path, frame_id: int):
        semantic = formats.read_semantic(sem_path)
        offsets = formats.read_offsets(off_path)
        try:
            result = segment_frame(semantic, offsets, cfg)
        except (DimensionMismatch, MemoryError) as exc:
            raise type(exc)(f"{sem_path}: {str(exc) or 'out of memory'}") from exc
        formats.write_manifest(out_path, frame_id, semantic.dims, result.instances)
        return result.timings

    if args.batch_dir:
        sem_files = sorted(args.batch_dir.glob("*.ccsm"))
        if not sem_files:
            raise UsageError(f"no .ccsm files in {args.batch_dir}")
        # every frame writes a temporary manifest, in name order; all of them
        # are published once the last frame succeeds, and none if a frame
        # fails, which ends the batch
        with _all_or_nothing() as stage:
            frames = []
            for i, sem in enumerate(sem_files):
                off = sem.with_suffix(".ccof")
                if not off.exists():
                    raise UsageError(f"missing offset file for {sem}")
                frames.append((sem, off, stage(sem.with_suffix(".json")), i))
            timings = [run_one(*frame) for frame in frames]
        if args.timings:
            args.timings.write_text(json.dumps(timings, sort_keys=True) + "\n")
        print(f"segmented {len(frames)} frames into {args.batch_dir}")
        return 0

    if not (args.semantic and args.offsets and args.out):
        raise UsageError("segment needs SEMANTIC OFFSETS --out OUT (or --batch-dir)")
    timing = run_one(args.semantic, args.offsets, args.out, args.frame_id or 0)
    if args.timings:
        args.timings.write_text(json.dumps(timing, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    state = None
    for i, path in enumerate(args.manifests):
        if not path.exists():
            raise UsageError(f"frame {i}: missing manifest {path}")
        frame_id, fdims, instances = formats.read_manifest(path)
        if state is None:
            state = TrackState(dims=fdims, fps=cfg.fps, min_iou=cfg.min_iou)
        elif fdims != state.dims:
            want = state.dims
            raise DimensionMismatch(f"frame {frame_id} is {fdims.width}x{fdims.height}, expected {want.width}x{want.height}")
        update_tracks(state, FrameResult(instances=instances, unassigned_pixel_count=0, timings={}))

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    tracks = state.all_tracks()
    with _all_or_nothing() as stage:
        stage(out_dir / "tracks.csv").write_text(formats.tracks_csv_dumps(state.rows))
        metrics = [track_metrics(t, state) for t in tracks]
        stage(out_dir / "metrics.csv").write_text(formats.metrics_csv_dumps(metrics))
        for t in tracks:
            name = f"track_{t.track_id:03d}"
            stage(out_dir / f"{name}_heatmap.pgm").write_bytes(formats.heatmap_pgm_bytes(t.dims, t.box, t.occupancy))
            stage(out_dir / f"{name}_counts.csv").write_bytes(formats.counts_csv_dumps(t.dims, t.box, t.occupancy))
    print(f"tracked {len(args.manifests)} frames, {len(tracks)} tracks -> {out_dir}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if len(args.pred) != len(args.gt):
        raise UsageError(f"{len(args.pred)} prediction frames vs {len(args.gt)} ground-truth frames")

    preds, gts = [], []
    for i, (pred_path, gt_path) in enumerate(zip(args.pred, args.gt)):
        _, pred_dims, pred = formats.read_manifest(pred_path)
        _, gt_dims, gt = formats.read_manifest(gt_path)
        if pred_dims != gt_dims:
            raise DimensionMismatch(
                f"frame {i}: {pred_path} is {pred_dims.width}x{pred_dims.height} "
                f"but {gt_path} is {gt_dims.width}x{gt_dims.height}"
            )
        preds.append(pred)
        gts.append(gt)
    result = map_eval(preds, gts)
    for thr in sorted({t for _, t in result.per_class_threshold}):
        print(f"AP@{thr:.2f} = {result.per_threshold[thr]:.3f}")
    for cls, ap in sorted(result.per_class.items()):
        print(f"AP[{cls}] = {ap:.3f}")
    print(f"mAP = {result.map:.3f}")
    if not result.per_class and result.map == 0.0:
        print("warning: detections against an empty ground truth", file=sys.stderr)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    reports = run_gradient_checks(n_cases=args.n, seed=args.seed, corrupt=args.corrupt)
    ok = True
    for rep in reports:
        status = "pass" if rep["passed"] else "FAIL"
        print(
            f"{rep['loss']}: max_rel_error={rep['max_rel_error']:.3e} "
            f"(case {rep['worst_case']}, component {rep['worst_component']}) {status}"
        )
        ok &= rep["passed"]
    return 0 if ok else 1


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = formats.read_scene_spec(args.scene)
    try:
        frames = iter_sequence(spec, args.frames)  # made and written one at a time
    except SceneGenerationError as exc:
        raise SceneGenerationError(f"{args.scene}: {exc}") from exc
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        semantic, offsets = frame.semantic, frame.offsets
        if spec.noise.flip_rate > 0 or spec.noise.offset_sigma > 0:
            semantic, offsets = perturb(frame, spec.noise, seed=spec.seed * 100003 + frame.index)
        formats.write_semantic(out / f"frame_{frame.index:04d}.ccsm", semantic)
        formats.write_offsets(out / f"frame_{frame.index:04d}.ccof", offsets)
        formats.write_manifest(
            out / f"gt_{frame.index:04d}.json", frame.index, frame.dims, gt_instances(frame)
        )
    print(f"wrote {args.frames} frames to {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: ``parse_args``
    keeps no state in it, so each call parses on its own."""
    parser = argparse.ArgumentParser(
        prog="centerseg",
        description="Center-vote clustering instance segmentation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment one frame (or a directory batch)")
    p.add_argument("semantic", type=Path, nargs="?", help="semantic map (.ccsm)")
    p.add_argument("offsets", type=Path, nargs="?", help="offset map (.ccof)")
    p.add_argument("--out", type=Path, help="output instance manifest (.json)")
    p.add_argument("--frame-id", type=int, help="frame id written to the manifest (default 0)")
    p.add_argument("--batch-dir", type=Path, help="directory of paired .ccsm/.ccof files")
    p.add_argument("--timings", type=Path, help="write per-stage wall times to this JSON file")
    _add_jobs_flag(p)
    _add_config_flags(p, "t", "min_neighbors", "filter_strategy", "eps", "min_pts", "rc2m", "algo", "bandwidth")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("track", help="track instances across ordered frame manifests")
    p.add_argument("manifests", type=Path, nargs="+")
    p.add_argument("--out-dir", type=Path, required=True)
    _add_config_flags(p, "min_iou", "fps")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="mAP of predictions against ground truth")
    p.add_argument("--pred", type=Path, nargs="+", required=True)
    p.add_argument("--gt", type=Path, nargs="+", required=True)
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference checks of the loss gradients")
    p.add_argument("--n", type=_count, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--corrupt", action="store_true", help="negative-control hook: corrupt one gradient component")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("synth", help="generate synthetic frames from a scene file")
    p.add_argument("scene", type=Path, help="key=value scene spec")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--frames", type=_count, default=1)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 after printing a rejection
        return exc.code
    try:
        return args.func(args)
    except (formats.FormatError, DimensionMismatch, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, SceneGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
