"""The three workloads: set-up, one measured step, and the output checks.

Each workload is a closed loop with one caller. A step is one unit of
its work (a CLI batch or a live frame); only the calls into the program
are timed, and the checks on their outputs run outside the timed part.
Every operation (a CLI invocation, a live frame, the final evaluation)
counts as attempted, and as failed when it raises, exits non-zero or
produces output that does not check out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import scenes

JOBS = "2"
DESK_MIN_PTS = "25"
GiB = 1 << 30


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Step:
    frames: int
    seconds: float
    latencies_ms: list[float]


def tree_digest(root: Path) -> str:
    """Digest of every file under ``root``, by relative name and bytes."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    """Shared plumbing: timing program calls and tracing them on demand."""

    name = ""
    steps_per_pass = 1
    address_space_cap: int | None = None

    def __init__(self, mods: dict, layout, work: Path, tracer=None):
        self.m = mods
        self.layout = layout
        self.tracer = tracer
        self.traced = False
        self.setup_problems: list[str] = []
        self._seconds = 0.0

    def _program(self, fn, *args):
        """Call into the program, timed, traced when this pass is traced."""
        if self.tracer is not None:
            self.tracer.recording = self.traced
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._seconds += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.recording = False

    def _cli(self, argv: list[str]) -> tuple[int | None, str, list[str]]:
        """Run one CLI command in process; returns exit code, stdout, problems."""
        if self.tracer is not None:
            self.tracer.set_frame(None)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self._program(self.m["cli"].main, argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:
            return None, out.getvalue(), [traceback.format_exc(limit=3)]
        return code, out.getvalue(), [] if code == 0 else [f"exit code {code}"]

    def _take_seconds(self) -> float:
        seconds, self._seconds = self._seconds, 0.0
        return seconds

    def finish(self, tally: Tally) -> Step | None:
        return None


class ManifestChecks:
    """Checks on prediction manifests, made once and then held to.

    The first time a manifest is seen it must round-trip through
    ``manifest_loads``/``manifest_dumps`` byte for byte, and its piglet
    masks must cover every piglet pixel of the frame's semantic map (the
    rc2m guarantee). Later runs over the same frame must write the same
    bytes.
    """

    def __init__(self, formats):
        self.formats = formats
        self.texts: dict[str, str] = {}
        self.n_instances: dict[str, int] = {}
        self.count_exact: dict[str, bool] = {}
        self.covered: dict[str, bool] = {}

    def check(self, key: str, text: str, semantic_labels, gt_piglets: int) -> list[str]:
        seen = self.texts.get(key)
        if seen is not None:
            return [] if text == seen else [f"manifest {key} differs from its first run"]
        problems = []
        fid, dims, loaded = self.formats.manifest_loads(text, key)
        if self.formats.manifest_dumps(fid, dims, loaded) != text:
            problems.append(f"manifest {key} does not round-trip")
        self.n_instances[key] = len(loaded)
        union = np.zeros(dims.shape, dtype=bool)
        for inst in loaded:
            if inst.cls == "piglet":
                union |= inst.mask.pixels
        self.covered[key] = bool(np.array_equal(union, semantic_labels == 1))
        if not self.covered[key]:
            problems.append(f"rc2m left piglet pixels of {key} outside every mask")
        self.count_exact[key] = sum(i.cls == "piglet" for i in loaded) == gt_piglets
        self.texts[key] = text
        return problems

    def rates(self) -> tuple[float, float]:
        n = len(self.texts)
        return sum(self.count_exact.values()) / n, sum(self.covered.values()) / n


def gt_piglets(formats, path: Path) -> int:
    return sum(i.cls == "piglet" for i in formats.read_manifest(path)[2])


def check_track_dir(formats, out_dir: Path, n_rows: int) -> list[str]:
    """tracks.csv, metrics.csv and every heat map parse back and agree."""
    problems = []
    rows = formats.tracks_csv_loads((out_dir / "tracks.csv").read_text(), "tracks.csv")
    if len(rows) != n_rows:
        problems.append(f"tracks.csv has {len(rows)} rows, expected {n_rows}")
    metrics = formats.metrics_csv_loads((out_dir / "metrics.csv").read_text(), "metrics.csv")
    if sorted(m[0] for m in metrics) != sorted({r[1] for r in rows}):
        problems.append("metrics.csv does not list every track")
    for tid, *_ in metrics:
        pgm = (out_dir / f"track_{tid:03d}_heatmap.pgm").read_bytes()
        head = re.match(rb"P5\n(\d+) (\d+)\n255\n", pgm)
        if head is None:
            problems.append(f"track {tid}: bad heat map header")
            continue
        w, h = int(head.group(1)), int(head.group(2))
        pixels = np.frombuffer(pgm, dtype=np.uint8, offset=head.end())
        text = (out_dir / f"track_{tid:03d}_counts.csv").read_text()
        counts = np.fromstring(text.replace("\n", ","), dtype=np.int64, sep=",")
        if pixels.size != w * h or counts.size != w * h:
            problems.append(f"track {tid}: heat map is not {w}x{h}")
            continue
        peak = counts.max()
        expect = np.rint(counts * (255.0 / peak)).astype(np.uint8) if peak else np.zeros_like(pixels)
        if not np.array_equal(expect, pixels):
            problems.append(f"track {tid}: heat map does not match its counts")
    return problems


def parse_eval(stdout: str) -> tuple[str | None, str | None]:
    m = re.search(r"^mAP = (\S+)$", stdout, re.M)
    a = re.search(r"^AP@0\.50 = (\S+)$", stdout, re.M)
    return (m.group(1) if m else None), (a.group(1) if a else None)


class EvalTrackChecks:
    """Checks on ``eval`` and ``track`` runs over fixed manifests.

    ``eval`` must print the mAP and AP50 that ``map_eval`` computes in
    process on the same manifests. The first ``track`` run into a
    directory is parsed back in full; later runs must write the same
    bytes.
    """

    def __init__(self, mods, preds: list[Path], gts: list[Path]):
        formats, evaluation = mods["formats"], mods["evaluation"]
        result = evaluation.map_eval(
            [formats.read_manifest(p)[2] for p in preds], [formats.read_manifest(g)[2] for g in gts]
        )
        self.map, self.ap50 = result.map, result.per_threshold[0.5]
        self.formats = formats
        self.track_digests: dict[Path, str] = {}

    def check_eval(self, stdout: str) -> list[str]:
        shown = parse_eval(stdout)
        want = (f"{self.map:.3f}", f"{self.ap50:.3f}")
        return [] if shown == want else [f"eval printed mAP/AP50 {shown}, map_eval gives {want}"]

    def check_track(self, out_dir: Path, n_rows: int) -> list[str]:
        digest = tree_digest(out_dir)
        seen = self.track_digests.get(out_dir)
        if seen is not None:
            return [] if digest == seen else [f"track outputs in {out_dir.name} differ from the first run"]
        self.track_digests[out_dir] = digest
        return check_track_dir(self.formats, out_dir, n_rows)


class DeskBatch(Workload):
    """``segment --batch-dir --jobs 2``, then ``eval --jobs 2``, then ``track``."""

    name = "desk-batch"

    @staticmethod
    def setup(cs, seed: int, root: Path):
        return scenes.write_desk(cs, seed, root / "batch", root / "gt")

    def __init__(self, mods, layout, work, tracer=None):
        super().__init__(mods, layout, work, tracer)
        formats = mods["formats"]
        self.frames = [f for seq in layout for f in seq]
        self.batch = self.frames[0].semantic.parent
        self.preds = [f.semantic.with_suffix(".json") for f in self.frames]
        self.track_dirs = [work / "tracks" / f"s{k}" for k in range(len(layout))]
        self.gt_piglets = {f.key: gt_piglets(formats, f.gt) for f in self.frames}
        self.manifests = ManifestChecks(formats)
        self.evals: EvalTrackChecks | None = None

    def step(self, tally: Tally) -> Step:
        formats = self.m["formats"]
        code, _, problems = self._cli(
            ["segment", "--batch-dir", str(self.batch), "--jobs", JOBS, "--min-pts", DESK_MIN_PTS]
        )
        if code == 0:
            for f, pred in zip(self.frames, self.preds):
                labels = None
                if f.key not in self.manifests.texts:
                    labels = formats.read_semantic(f.semantic).labels
                problems += self.manifests.check(f.key, pred.read_text(), labels, self.gt_piglets[f.key])
        tally.record(problems, "segment")

        if self.evals is None and code == 0:
            self.evals = EvalTrackChecks(self.m, self.preds, [f.gt for f in self.frames])
        code, stdout, problems = self._cli(
            ["eval", "--jobs", JOBS, "--pred", *map(str, self.preds), "--gt", *(str(f.gt) for f in self.frames)]
        )
        if code == 0 and self.evals is not None:
            problems += self.evals.check_eval(stdout)
        tally.record(problems, "eval")

        start = 0
        for seq, out_dir in zip(self.layout, self.track_dirs):
            preds = self.preds[start : start + len(seq)]
            start += len(seq)
            code, _, problems = self._cli(["track", *map(str, preds), "--out-dir", str(out_dir)])
            if code == 0 and self.evals is not None:
                rows = sum(self.manifests.n_instances.get(f.key, 0) for f in seq)
                problems += self.evals.check_track(out_dir, rows)
            tally.record(problems, f"track {out_dir.name}")
        seconds = self._take_seconds()
        return Step(len(self.frames), seconds, [1e3 * seconds / len(self.frames)])

    def quality(self) -> dict[str, float]:
        exact, covered = self.manifests.rates()
        return {
            "mask_map": self.evals.map if self.evals else 0.0,
            "mask_ap50": self.evals.ap50 if self.evals else 0.0,
            "count_exact_rate": exact,
            "rc2m_coverage": covered,
        }


def full_config(config):
    """Production t=20 eps=2.5 min_pts=50, rc2m on, offset-magnitude filter."""
    return config.PipelineConfig(filter_strategy="offset-magnitude", rc2m=True)


class FullresLive(Workload):
    """One in-process caller per frame: read, segment, write, track.

    The frames are replayed forward and back (0..N-1..1, again and
    again), so the tracker always sees a continuous sequence however
    long the run is. ``map_eval`` scores the last output of every frame
    at the end. A traced run alternates the two halves of that cycle.
    """

    name = "fullres-live"
    steps_per_pass = scenes.LIVE_FRAMES - 1
    address_space_cap = 2 * GiB

    @staticmethod
    def setup(cs, seed: int, root: Path):
        return scenes.write_full(cs, seed, scenes.LIVE_FRAMES, root / "live")

    def __init__(self, mods, layout, work, tracer=None):
        super().__init__(mods, layout, work, tracer)
        formats = mods["formats"]
        self.config = full_config(mods["config"])
        dims = formats.read_manifest(layout[0].gt)[1]
        self.gt_piglets = {f.key: gt_piglets(formats, f.gt) for f in layout}
        self.out = work / "live"
        self.out.mkdir(parents=True)
        self.state = mods["tracking"].TrackState(dims=dims, fps=self.config.fps, min_iou=self.config.min_iou)
        self.order = list(range(len(layout))) + list(range(len(layout) - 2, 0, -1))
        self.position = 0
        self.manifests = ManifestChecks(formats)
        self.count_exact: list[bool] = []
        self.covered: list[bool] = []
        self.map = self.ap50 = 0.0

    def _pred(self, files) -> Path:
        return self.out / f"{files.key}.json"

    def _frame(self, files, frame_id: int):
        formats, instances, tracking = self.m["formats"], self.m["instances"], self.m["tracking"]
        semantic = formats.read_semantic(files.semantic)
        offsets = formats.read_offsets(files.offsets)
        result = instances.segment_frame(semantic, offsets, self.config)
        formats.write_manifest(self._pred(files), frame_id, semantic.dims, result.instances)
        tracking.update_tracks(self.state, result)
        return semantic, result

    def step(self, tally: Tally) -> Step:
        files = self.layout[self.order[self.position % len(self.order)]]
        self.position += 1
        if self.tracer is not None:
            self.tracer.set_frame(self.state.frame_index)
        rows_before = len(self.state.rows)
        problems = []
        try:
            semantic, result = self._program(self._frame, files, int(files.key[1:]))
        except MemoryError:
            problems.append("MemoryError under the address-space cap")
        except Exception:
            problems.append(traceback.format_exc(limit=3))
        seconds = self._take_seconds()
        if not problems:
            text = self._pred(files).read_text()
            problems += self.manifests.check(files.key, text, semantic.labels, self.gt_piglets[files.key])
            self.count_exact.append(self.manifests.count_exact[files.key])
            self.covered.append(self.manifests.covered[files.key])
            if len(self.state.rows) - rows_before != len(result.instances):
                problems.append("tracker did not record every instance")
        tally.record(problems, f"frame {files.key}")
        return Step(1, seconds, [1e3 * seconds])

    def finish(self, tally: Tally) -> Step:
        formats, evaluation = self.m["formats"], self.m["evaluation"]
        if self.tracer is not None:
            self.tracer.set_frame(None)
        problems = []
        done = [f for f in self.layout if self._pred(f).exists()]
        preds = [formats.read_manifest(self._pred(f))[2] for f in done]
        gts = [formats.read_manifest(f.gt)[2] for f in done]
        try:
            result = self._program(evaluation.map_eval, preds, gts)
            self.map, self.ap50 = result.map, result.per_threshold[0.5]
        except Exception:
            problems.append(traceback.format_exc(limit=3))
        rows = self.state.rows
        if formats.tracks_csv_loads(formats.tracks_csv_dumps(rows)) != [
            (f, t, c, float(x), float(y), a, None if i is None else float(i)) for f, t, c, x, y, a, i in rows
        ]:
            problems.append("tracks.csv rows do not parse back")
        tally.record(problems, "map_eval")
        return Step(0, self._take_seconds(), [])

    def quality(self) -> dict[str, float]:
        n = max(1, len(self.count_exact))
        return {
            "mask_map": self.map,
            "mask_ap50": self.ap50,
            "count_exact_rate": sum(self.count_exact) / n,
            "rc2m_coverage": sum(self.covered) / n,
        }


class FullresOffline(Workload):
    """``eval --jobs 2`` then ``track --out-dir`` over full-scale manifests.

    Set-up segments the frames in process, outside the timed part, so
    no clustering runs while the workload is measured.
    """

    name = "fullres-offline"

    @staticmethod
    def setup(cs, seed: int, root: Path):
        from centerseg import config

        return scenes.write_full(cs, seed, scenes.OFFLINE_FRAMES, root / "offline", config=full_config(config))

    def __init__(self, mods, layout, work, tracer=None):
        super().__init__(mods, layout, work, tracer)
        formats = mods["formats"]
        self.preds = [f.pred for f in layout]
        self.gts = [f.gt for f in layout]
        self.track_dir = work / "tracks"
        manifests = ManifestChecks(formats)
        self.n_rows = 0
        for f in layout:
            insts = formats.read_manifest(f.pred)[2]
            self.n_rows += len(insts)
            labels = formats.read_semantic(f.semantic).labels
            self.setup_problems += manifests.check(f.key, f.pred.read_text(), labels, gt_piglets(formats, f.gt))
        self.count_exact, self.covered = manifests.rates()
        self.evals = EvalTrackChecks(mods, self.preds, self.gts)

    def step(self, tally: Tally) -> Step:
        code, stdout, problems = self._cli(
            ["eval", "--jobs", JOBS, "--pred", *map(str, self.preds), "--gt", *map(str, self.gts)]
        )
        if code == 0:
            problems += self.evals.check_eval(stdout)
        tally.record(problems, "eval")
        code, _, problems = self._cli(["track", *map(str, self.preds), "--out-dir", str(self.track_dir)])
        if code == 0:
            problems += self.evals.check_track(self.track_dir, self.n_rows)
        tally.record(problems, "track")
        seconds = self._take_seconds()
        n = len(self.preds)
        return Step(n, seconds, [1e3 * seconds / n])

    def quality(self) -> dict[str, float]:
        return {
            "mask_map": self.evals.map,
            "mask_ap50": self.evals.ap50,
            "count_exact_rate": self.count_exact,
            "rc2m_coverage": self.covered,
        }


WORKLOADS = {w.name: w for w in (DeskBatch, FullresLive, FullresOffline)}
