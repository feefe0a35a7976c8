"""Spans around the program's public functions, and the per-layer metrics.

The tracer times each layer from outside: it replaces a module attribute
with a wrapper at the name its callers look it up under (``cli`` calls
``formats.read_semantic`` through the module, but ``instances`` calls
its own imported ``dbscan``), so no code under ``src/`` changes. Spans
stay in memory (name, start, end, parent span, frame id, thread id and
the counts seen at that boundary) and are written out when the run
ends. Every ``*_ms`` metric is per frame the workload processed while
tracing was on, and every ratio names its base in its unit.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

# (metric, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("centers.generate_ms", "ms/frame"),
    ("centers.filter_ms", "ms/frame"),
    ("centers.votes", "votes/frame"),
    ("centers.retained_ratio", "retained/vote"),
    ("clustering.dbscan_ms", "ms/frame"),
    ("clustering.points", "points/frame"),
    ("clustering.groups", "groups/frame"),
    ("clustering.noise_ratio", "noise/point"),
    ("clustering.largest_group", "points/call"),
    ("instances.assemble_ms", "ms/frame"),
    ("instances.reassign_ms", "ms/frame"),
    ("instances.sow_ms", "ms/frame"),
    ("instances.segment_self_ms", "ms/frame"),
    ("instances.reassigned_votes", "votes/frame"),
    ("tracking.update_ms", "ms/frame"),
    ("tracking.pair_ms", "ms/frame"),
    ("tracking.iou_calls", "calls/frame"),
    ("tracking.paired", "pairs/frame"),
    ("tracking.new", "tracks/frame"),
    ("tracking.dropped", "tracks/frame"),
    ("tracking.metrics_ms", "ms/frame"),
    ("evaluation.map_eval_ms", "ms/frame"),
    ("evaluation.iou_pairs", "pairs/frame"),
    ("formats.read_maps_ms", "ms/frame"),
    ("formats.write_manifest_ms", "ms/frame"),
    ("formats.read_manifest_ms", "ms/frame"),
    ("formats.track_outputs_ms", "ms/frame"),
    ("formats.bytes_read", "B/frame"),
    ("formats.bytes_written", "B/frame"),
    ("grids.rle_encode_ms", "ms/frame"),
    ("grids.rle_decode_ms", "ms/frame"),
    ("cli.segment_s", "s/command"),
    ("cli.eval_s", "s/command"),
    ("cli.track_s", "s/command"),
    ("cli.segment_parallelism", "busy/wall"),
    ("trace.overhead_ratio", "traced/untraced"),
)

# Which end-to-end metric each layer metric should move, and where.
LAYER_MOVES = {
    "centers": "filter_ms moves frames_per_s on desk-batch; nothing on fullres-live",
    "clustering": "frame_ms_p50 and peak_rss_mb on fullres-live, frames_per_s on desk-batch; "
    "nothing on fullres-offline",
    "instances": "frame_ms_p50 on fullres-live",
    "tracking": "frames_per_s on fullres-offline, frame_ms_p50 on fullres-live; almost nothing on desk-batch",
    "evaluation": "frames_per_s on fullres-offline",
    "formats/grids": "frames_per_s on fullres-offline (writes) and on desk-batch (reads)",
    "cli": "frames_per_s on desk-batch",
    "trace": "none",
}


def _votes(args, result):
    return {"votes": len(result)}


def _filtered(args, result):
    return {"votes": len(result), "retained": int(np.count_nonzero(~result.filtered))}


def _clustered(args, result):
    sizes = np.bincount(result.labels, minlength=1)
    return {
        "points": len(result),
        "groups": result.n_groups,
        "noise": int(sizes[0]),
        "largest": int(sizes[1:].max(initial=0)),
    }


def _reassigned(args, result):
    before = int(np.count_nonzero(args[1].labels == 0))
    return {"reassigned": before - int(np.count_nonzero(result.labels == 0))}


def _paired(args, result):
    pairs, new, dropped = result
    return {"paired": len(pairs), "new": len(new), "dropped": len(dropped)}


def _iou_pairs(args, result):
    pred_frames, gt_frames = args[0], args[1]
    pairs = 0
    for preds, gts in zip(pred_frames, gt_frames):
        for cls in {g.cls for g in gts}:
            pairs += sum(d.cls == cls for d in preds) * sum(g.cls == cls for g in gts)
    return {"iou_pairs": pairs}


def _read_bytes(args, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _written_file(args, result):
    return {"bytes_written": os.path.getsize(args[0])}


def _written_text(args, result):
    return {"bytes_written": len(result)}


class Tracer:
    """Records spans from wrappers installed on the program's modules.

    Wrappers pass straight through while ``recording`` is false, so one
    run can alternate traced and untraced passes over the same inputs.
    """

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to what the main thread runs
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def set_frame(self, frame) -> None:
        """The frame id for spans this thread records from now on."""
        self._local.frame = frame

    def wrap(self, module, attr: str, name: str, counts=None, frame_of=None, reads_frame=False) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``frame_of(args)`` names the frame of this span and its children.
        With ``reads_frame`` a worker thread takes the frame id from the
        stem of the file the call reads, and keeps it for its later
        spans: the CLI's batch workers read, segment and write one frame
        after another.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            stack = tracer._stack()
            outer = getattr(tracer._local, "frame", None)
            if reads_frame and threading.current_thread() is not threading.main_thread():
                tracer.set_frame(Path(args[0]).stem)
                outer = tracer._local.frame
            elif frame_of is not None:
                tracer.set_frame(frame_of(args))
            span = {
                "id": next(tracer._ids),
                "name": name,
                "parent": tracer._parent(stack),
                "frame": getattr(tracer._local, "frame", None),
                "thread": threading.get_ident(),
            }
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if counts is not None:
                    span["counts"] = counts(args, result)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.set_frame(outer)
                with tracer._lock:
                    tracer.spans.append(span)

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))

    def install(self, modules) -> None:
        """Wrap the public functions of every layer where callers find them."""
        cli, formats, instances, tracking, evaluation = (
            modules["cli"], modules["formats"], modules["instances"], modules["tracking"], modules["evaluation"],
        )
        self.wrap(cli, "main", "cli.main", counts=lambda a, r: {"command": a[0][0], "exit": r})
        self.wrap(formats, "read_semantic", "formats.read_semantic", _read_bytes, reads_frame=True)
        self.wrap(formats, "read_offsets", "formats.read_offsets", _read_bytes)
        self.wrap(formats, "write_manifest", "formats.write_manifest", _written_file)
        self.wrap(formats, "read_manifest", "formats.read_manifest", _read_bytes, reads_frame=True)
        for attr in ("tracks_csv_dumps", "metrics_csv_dumps", "heatmap_pgm_bytes", "counts_csv_dumps"):
            self.wrap(formats, attr, "formats.track_outputs", _written_text)
        self.wrap(formats, "rle_encode", "grids.rle_encode")
        self.wrap(formats, "rle_decode", "grids.rle_decode")
        self.wrap(instances, "generate_centers", "centers.generate_centers", _votes)
        self.wrap(instances, "filter_centers", "centers.filter_centers", _filtered)
        self.wrap(instances, "dbscan", "clustering.dbscan", _clustered)
        self.wrap(instances, "instances_from_labels", "instances.instances_from_labels")
        self.wrap(instances, "reassign_unlabeled", "instances.reassign_unlabeled", _reassigned)
        self.wrap(instances, "sow_instance", "instances.sow_instance")
        for module in (instances, cli):
            self.wrap(module, "segment_frame", "instances.segment_frame")
        frame_index = lambda args: args[0].frame_index  # noqa: E731
        for module in (tracking, cli):
            self.wrap(module, "update_tracks", "tracking.update_tracks", frame_of=frame_index)
        self.wrap(tracking, "pair_frames", "tracking.pair_frames", _paired)
        self.wrap(tracking, "mask_iou", "tracking.mask_iou")
        self.wrap(cli, "track_metrics", "tracking.track_metrics")
        for module in (evaluation, cli):
            self.wrap(module, "map_eval", "evaluation.map_eval", _iou_pairs)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines, each with its self time."""
        selfs = self_times(self.spans)
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                out.write(json.dumps({**span, "self": selfs[span["id"]]}, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children on other threads may overlap each other, so the covered
    part is the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict], frames: int, overhead_ratio: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced spans, plus notes on their bases."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total_s(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name.get(n, ()))

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in by_name.get(name, ()))

    def per_frame(value):
        return value / frames if frames else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    commands: dict[str, list[dict]] = {}
    for s in by_name.get("cli.main", ()):
        commands.setdefault(s["counts"]["command"], []).append(s)

    def command_s(cmd):
        runs = commands.get(cmd, ())
        return ratio(sum(s["end"] - s["start"] for s in runs), len(runs))

    segment_runs = {s["id"] for s in commands.get("segment", ())}
    busy = sum(
        s["end"] - s["start"] for s in by_name.get("instances.segment_frame", ()) if s["parent"] in segment_runs
    )
    segment_wall = sum(s["end"] - s["start"] for s in commands.get("segment", ()))
    dbscan_calls = by_name.get("clustering.dbscan", ())
    votes = count("centers.generate_centers", "votes")
    points = count("clustering.dbscan", "points")
    values = {
        "centers.generate_ms": per_frame(1e3 * total_s("centers.generate_centers")),
        "centers.filter_ms": per_frame(1e3 * total_s("centers.filter_centers")),
        "centers.votes": per_frame(votes),
        "centers.retained_ratio": ratio(count("centers.filter_centers", "retained"), votes),
        "clustering.dbscan_ms": per_frame(1e3 * total_s("clustering.dbscan")),
        "clustering.points": per_frame(points),
        "clustering.groups": per_frame(count("clustering.dbscan", "groups")),
        "clustering.noise_ratio": ratio(count("clustering.dbscan", "noise"), points),
        "clustering.largest_group": ratio(count("clustering.dbscan", "largest"), len(dbscan_calls)),
        "instances.assemble_ms": per_frame(1e3 * total_s("instances.instances_from_labels")),
        "instances.reassign_ms": per_frame(1e3 * total_s("instances.reassign_unlabeled")),
        "instances.sow_ms": per_frame(1e3 * total_s("instances.sow_instance")),
        "instances.segment_self_ms": per_frame(
            1e3 * sum(selfs[s["id"]] for s in by_name.get("instances.segment_frame", ()))
        ),
        "instances.reassigned_votes": per_frame(count("instances.reassign_unlabeled", "reassigned")),
        "tracking.update_ms": per_frame(1e3 * total_s("tracking.update_tracks")),
        "tracking.pair_ms": per_frame(1e3 * total_s("tracking.pair_frames")),
        "tracking.iou_calls": per_frame(len(by_name.get("tracking.mask_iou", ()))),
        "tracking.paired": per_frame(count("tracking.pair_frames", "paired")),
        "tracking.new": per_frame(count("tracking.pair_frames", "new")),
        "tracking.dropped": per_frame(count("tracking.pair_frames", "dropped")),
        "tracking.metrics_ms": per_frame(1e3 * total_s("tracking.track_metrics")),
        "evaluation.map_eval_ms": per_frame(1e3 * total_s("evaluation.map_eval")),
        "evaluation.iou_pairs": per_frame(count("evaluation.map_eval", "iou_pairs")),
        "formats.read_maps_ms": per_frame(1e3 * total_s("formats.read_semantic", "formats.read_offsets")),
        "formats.write_manifest_ms": per_frame(1e3 * total_s("formats.write_manifest")),
        "formats.read_manifest_ms": per_frame(1e3 * total_s("formats.read_manifest")),
        "formats.track_outputs_ms": per_frame(1e3 * total_s("formats.track_outputs")),
        "formats.bytes_read": per_frame(
            sum(count(n, "bytes_read") for n in ("formats.read_semantic", "formats.read_offsets", "formats.read_manifest"))
        ),
        "formats.bytes_written": per_frame(
            count("formats.write_manifest", "bytes_written") + count("formats.track_outputs", "bytes_written")
        ),
        "grids.rle_encode_ms": per_frame(1e3 * total_s("grids.rle_encode")),
        "grids.rle_decode_ms": per_frame(1e3 * total_s("grids.rle_decode")),
        "cli.segment_s": command_s("segment"),
        "cli.eval_s": command_s("eval"),
        "cli.track_s": command_s("track"),
        "cli.segment_parallelism": ratio(busy, segment_wall),
        "trace.overhead_ratio": overhead_ratio,
    }
    notes = [
        f"per-frame base: {frames} frames processed while tracing",
        f"centers.retained_ratio base: {votes} votes",
        f"clustering.noise_ratio base: {points} points; largest_group base: {len(dbscan_calls)} calls",
        f"cli.segment_parallelism base: {segment_wall:.3f} s of segment commands",
    ]
    layers_seen = {s["name"].split(".")[0] for s in spans}
    for layer in ("centers", "clustering", "instances", "tracking", "evaluation", "formats", "grids", "cli"):
        if layer not in layers_seen:
            notes.append(f"layer {layer} did not run; its metrics read 0")
    return values, notes
