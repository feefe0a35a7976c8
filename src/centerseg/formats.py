"""Bit-exact file formats.

Binary maps:
  semantic map  magic "CCSM" | version byte 1 | u32le width | u32le height
                | width*height class bytes, row-major
  offset map    magic "CCOF" | version byte 1 | u32le width | u32le height
                | width*height (dx, dy) pairs of f32le, row-major

Text artifacts: instance manifests are single-line JSON with sorted keys
(masks as run-length counts), tracks and metrics are CSV, heat maps are
binary P5 graymaps with counts rescaled to 255 (raw counts go to a CSV
alongside), configs are flat key=value files where unknown keys are
errors.

Writers are deterministic: identical values produce identical bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .grids import MAX_FRAME_PIXELS, GridDims, OffsetMap, SemanticMap, rle_decode, rle_encode
from .instances import Instance
from .synth import NoiseModel, SceneSpec
from .tracking import TrackMetrics

SEMANTIC_MAGIC = b"CCSM"
OFFSET_MAGIC = b"CCOF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<II")  # width, height after magic+version

TRACKS_HEADER = ["frame", "track_id", "class", "center_x", "center_y", "area", "paired_iou"]
METRICS_HEADER = ["track_id", "movement_px", "avg_speed_px_s", "body_pixel_size", "space_usage"]


class FormatError(ValueError):
    """A malformed input file, with the byte offset of the problem."""

    def __init__(self, path, offset: int, message: str):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{self.path}: byte {offset}: {message}")


def _parse_header(data: bytes, magic: bytes, bytes_per_pixel: int, path) -> GridDims:
    """Dimensions from the header, after checking that the payload holds
    exactly ``bytes_per_pixel`` bytes per pixel."""
    if data[:4] != magic:
        raise FormatError(path, 0, f"bad magic {data[:4]!r}, expected {magic!r}")
    if len(data) < 5:
        raise FormatError(path, 4, "truncated before version byte")
    if data[4] != FORMAT_VERSION:
        raise FormatError(path, 4, f"unsupported version {data[4]}")
    if len(data) < 13:
        raise FormatError(path, 5, "truncated header")
    width, height = _HEADER.unpack_from(data, 5)
    if width < 1 or height < 1:
        raise FormatError(path, 5, f"bad dimensions {width}x{height}")
    dims = GridDims(width, height)
    expected = 13 + dims.npixels * bytes_per_pixel
    if len(data) != expected:
        raise FormatError(
            path, min(len(data), expected),
            f"payload is {len(data) - 13} bytes, expected {dims.npixels * bytes_per_pixel}",
        )
    return dims


def semantic_to_bytes(sm: SemanticMap) -> bytes:
    head = SEMANTIC_MAGIC + bytes([FORMAT_VERSION]) + _HEADER.pack(sm.dims.width, sm.dims.height)
    return head + sm.labels.astype("|u1").tobytes()


def semantic_from_bytes(data: bytes, path="<memory>") -> SemanticMap:
    dims = _parse_header(data, SEMANTIC_MAGIC, 1, path)
    labels = np.frombuffer(data, dtype="|u1", offset=13).reshape(dims.shape)
    if labels.max(initial=0) > 2:
        bad = 13 + int(np.argmax(labels.ravel() > 2))
        raise FormatError(path, bad, "class byte outside {0, 1, 2}")
    return SemanticMap(dims, labels.copy())


def offsets_to_bytes(om: OffsetMap) -> bytes:
    head = OFFSET_MAGIC + bytes([FORMAT_VERSION]) + _HEADER.pack(om.dims.width, om.dims.height)
    return head + om.vectors.astype("<f4").tobytes()


def offsets_from_bytes(data: bytes, path="<memory>") -> OffsetMap:
    dims = _parse_header(data, OFFSET_MAGIC, 8, path)
    vec = np.frombuffer(data, dtype="<f4", offset=13).reshape(*dims.shape, 2)
    if not np.all(np.isfinite(vec)):
        raise FormatError(path, 13, "non-finite offset component")
    return OffsetMap(dims, vec.copy())


def write_semantic(path, sm: SemanticMap) -> None:
    Path(path).write_bytes(semantic_to_bytes(sm))


def read_semantic(path) -> SemanticMap:
    return semantic_from_bytes(Path(path).read_bytes(), path)


def write_offsets(path, om: OffsetMap) -> None:
    Path(path).write_bytes(offsets_to_bytes(om))


def read_offsets(path) -> OffsetMap:
    return offsets_from_bytes(Path(path).read_bytes(), path)


def manifest_dumps(frame_id: int, dims: GridDims, instances: list[Instance]) -> str:
    doc = {
        "frame": frame_id,
        "width": dims.width,
        "height": dims.height,
        "instances": [
            {
                "class": inst.cls,
                "score": inst.score,
                "predicted_center": [inst.predicted_center[0], inst.predicted_center[1]],
                "rle": rle_encode(inst.mask),
            }
            for inst in instances
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def manifest_loads(text: str, path="<memory>") -> tuple[int, GridDims, list[Instance]]:
    try:
        doc = json.loads(text)
        dims = GridDims(int(doc["width"]), int(doc["height"]))
        if dims.npixels > MAX_FRAME_PIXELS:  # masks are decoded into crops of up to this many pixels
            raise FormatError(path, 0, f"{dims.width}x{dims.height} exceeds the {MAX_FRAME_PIXELS}-pixel limit")
        frame_id = int(doc["frame"])
        instances = [
            Instance(
                mask=rle_decode(entry["rle"], dims),
                predicted_center=(float(entry["predicted_center"][0]), float(entry["predicted_center"][1])),
                cls=entry["class"],
                score=float(entry["score"]),
            )
            for entry in doc["instances"]
        ]
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        offset = getattr(exc, "pos", 0)
        raise FormatError(path, offset, f"bad instance manifest: {exc}") from exc
    return frame_id, dims, instances


def write_manifest(path, frame_id: int, dims: GridDims, instances: list[Instance]) -> None:
    Path(path).write_text(manifest_dumps(frame_id, dims, instances))


def read_manifest(path) -> tuple[int, GridDims, list[Instance]]:
    return manifest_loads(Path(path).read_text(), path)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def tracks_csv_dumps(rows: list[tuple]) -> str:
    lines = [",".join(TRACKS_HEADER)]
    for frame, tid, cls, cx, cy, area, iou in rows:
        lines.append(
            ",".join([_fmt(frame), _fmt(tid), cls, _fmt(float(cx)), _fmt(float(cy)), _fmt(area), _fmt(iou if iou is None else float(iou))])
        )
    return "\n".join(lines) + "\n"


def tracks_csv_loads(text: str, path="<memory>") -> list[tuple]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != TRACKS_HEADER:
        raise FormatError(path, 0, "bad tracks header")
    rows = []
    for ln in lines[1:]:
        frame, tid, cls, cx, cy, area, iou = ln.split(",")
        rows.append(
            (int(frame), int(tid), cls, float(cx), float(cy), int(area), None if iou == "" else float(iou))
        )
    return rows


def metrics_csv_dumps(metrics: list[TrackMetrics]) -> str:
    lines = [",".join(METRICS_HEADER)]
    for m in metrics:
        lines.append(
            ",".join([
                str(m.track_id), repr(float(m.movement_px)), repr(float(m.avg_speed_px_s)),
                repr(float(m.body_pixel_size)), repr(float(m.space_usage)),
            ])
        )
    return "\n".join(lines) + "\n"


def metrics_csv_loads(text: str, path="<memory>") -> list[tuple]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != METRICS_HEADER:
        raise FormatError(path, 0, "bad metrics header")
    rows = []
    for ln in lines[1:]:
        tid, movement, speed, body, space = ln.split(",")
        rows.append((int(tid), float(movement), float(speed), float(body), float(space)))
    return rows


def heatmap_pgm_bytes(dims: GridDims, box: tuple[int, int, int, int], counts: np.ndarray) -> bytes:
    """Binary P5 graymap of visit counts, linearly rescaled to max 255.

    ``counts`` are the counts over ``box`` ``(row0, row1, col0, col1)``
    and every cell outside the box is 0; only the box is rescaled.
    """
    r0, r1, c0, c1 = box
    peak = int(counts.max()) if counts.size else 0
    scaled = np.zeros(dims.shape, dtype=np.uint8)
    if peak > 0:
        scaled[r0:r1, c0:c1] = np.rint(counts.astype(np.float64) * (255.0 / peak)).astype(np.uint8)
    return f"P5\n{dims.width} {dims.height}\n255\n".encode() + scaled.tobytes()


def counts_csv_dumps(dims: GridDims, box: tuple[int, int, int, int], counts: np.ndarray) -> bytes:
    """Visit counts as ASCII CSV bytes, one line per frame row.

    ``counts`` are the uint32 counts over ``box`` ``(row0, row1, col0,
    col1)`` and every cell outside the box is 0. Rows outside the box
    are one shared zero line, and the columns outside it constant runs
    of ``0,``; only the box's cells are formatted, by :func:`_box_csv`.
    """
    r0, r1, c0, c1 = box if counts.size else (0, 0, 0, 0)
    zero_row = b"0," * (dims.width - 1) + b"0\n"
    left, right = b"0," * c0, b",0" * (dims.width - c1) + b"\n"
    inner = b""
    if r1 > r0:
        inner = left + _box_csv(counts)[:-1].replace(b"\n", right + left) + right
    return b"".join((zero_row * r0, inner, zero_row * (dims.height - r1)))


def _box_csv(box: np.ndarray) -> bytes:
    """The cells of a non-empty uint32 array as CSV lines, each ending in a newline.

    Formatted in numpy, with no Python call per cell: each cell's byte
    width (digits, separator) gives its end in one buffer by a
    cumulative sum, and the digits are written right to left, one digit
    place at a time, for every cell that still has one.
    """
    mag = box.astype(np.uint32).ravel()  # a copy: the digit loop below consumes it
    top = int(mag.max())
    width = np.full(mag.size, 2)  # first digit, separator
    place = 10
    while place <= top:
        width += mag >= place
        place *= 10
    end = np.cumsum(width)
    buf = np.full(int(end[-1]), ord(","), dtype=np.uint8)
    buf[end[box.shape[1] - 1 :: box.shape[1]] - 1] = ord("\n")
    pos = end
    pos -= 2  # each cell's last digit
    while True:
        rest = mag // 10  # floor division by a constant is far cheaper than %
        mag -= rest * 10
        mag += ord("0")
        buf[pos] = mag
        more = rest > 0
        if not more.any():
            return buf.tobytes()
        mag, pos = rest[more], pos[more] - 1


# --- flat key=value files: pipeline configs -------------------------------


def parse_bool(value: str) -> bool:
    """``on/true/1`` or ``off/false/0``; anything else is a ValueError."""
    if value in ("on", "true", "1"):
        return True
    if value in ("off", "false", "0"):
        return False
    raise ValueError(f"expected on, off, true, false, 1 or 0, got {value!r}")


def _kv_load(text: str, path, kind: str, defaults: dict[str, object], required=()) -> dict[str, object]:
    """The keys a flat key=value file sets, each value parsed as the type of
    its key's default in ``defaults``: bool, int and str as themselves,
    anything else (``None`` included) as float.

    Keys outside ``defaults`` and missing ``required`` keys are
    FormatErrors at byte 0; a line that is not key=value, or a value its
    parser rejects, is one at the byte offset of its line.
    """
    raw: dict[str, tuple[str, int]] = {}
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            if "=" not in stripped:
                raise FormatError(path, offset, f"expected key=value, got {stripped!r}")
            key, value = stripped.split("=", 1)
            raw[key.strip()] = (value.strip(), offset)
        offset += len(line.encode())
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise FormatError(path, 0, f"unknown {kind} keys: {', '.join(unknown)}")
    for key in required:
        if key not in raw:
            raise FormatError(path, 0, f"missing {kind} key: {key}")
    out = {}
    for key, (value, offset) in raw.items():
        default = defaults[key]
        if isinstance(default, bool):
            parse = parse_bool
        elif isinstance(default, (int, str)):
            parse = type(default)
        else:
            parse = float
        try:
            out[key] = parse(value)
        except ValueError as exc:
            raise FormatError(path, offset, f"bad value for {key}: {exc}") from exc
    return out


def config_dumps(cfg: PipelineConfig) -> str:
    lines = []
    for f in fields(PipelineConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "on" if value else "off"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def config_loads(text: str, path="<config>") -> PipelineConfig:
    kwargs = _kv_load(text, path, "config", asdict(PipelineConfig()))
    try:
        return PipelineConfig(**kwargs)
    except ValueError as exc:
        raise FormatError(path, 0, str(exc)) from exc


def read_config(path) -> PipelineConfig:
    return config_loads(Path(path).read_bytes().decode(), path)


# --- scene spec files -------------------------------------------------------

# What a scene file may set besides width and height: SceneSpec fields,
# the SceneSpec (min, max) ranges as <name>_min and <name>_max, and the
# NoiseModel fields.
_SCENE_SCALARS = (
    "n_piglets", "seed", "sow", "sow_half_length", "sow_radius", "sow_min_visible_area",
    "n_random_occluders", "max_speed", "min_visible_area", "min_center_separation",
)
_SCENE_RANGES = ("piglet_a", "piglet_b", "occluder_width")
_SCENE_NOISE = ("flip_rate", "offset_sigma")


def scene_spec_loads(text: str, path="<scene>") -> SceneSpec:
    spec = SceneSpec(dims=GridDims(1, 1), n_piglets=0)
    defaults = asdict(spec.dims)
    defaults.update((name, getattr(spec, name)) for name in _SCENE_SCALARS)
    for name in _SCENE_RANGES:
        defaults[f"{name}_min"], defaults[f"{name}_max"] = getattr(spec, name)
    defaults.update((name, getattr(spec.noise, name)) for name in _SCENE_NOISE)
    vals = {**defaults, **_kv_load(text, path, "scene", defaults, required=("width", "height", "n_piglets"))}
    try:
        dims = GridDims(vals["width"], vals["height"])
        noise = NoiseModel(**{name: vals[name] for name in _SCENE_NOISE})
        return SceneSpec(
            dims=dims,
            noise=noise,
            **{name: vals[name] for name in _SCENE_SCALARS},
            **{name: (vals[f"{name}_min"], vals[f"{name}_max"]) for name in _SCENE_RANGES},
        )
    except ValueError as exc:
        raise FormatError(path, 0, str(exc)) from exc


def read_scene_spec(path) -> SceneSpec:
    return scene_spec_loads(Path(path).read_bytes().decode(), path)
