"""Bit-exact file formats.

Binary maps:
  semantic map  magic "CCSM" | version byte 1 | u32le width | u32le height
                | width*height class bytes, row-major
  offset map    magic "CCOF" | version byte 1 | u32le width | u32le height
                | width*height (dx, dy) pairs of f32le, row-major

Text artifacts: instance manifests are single-line JSON with sorted keys
(masks as run-length counts), tracks and metrics are CSV, heat maps are
binary P5 graymaps with counts rescaled to 255 (raw counts go to a CSV
alongside), configs are flat key=value files where unknown or repeated
keys are errors. Text files are read as strict UTF-8.

Manifest run lists are written and, when in the writer's form, read
with numpy: one digit formatter (shared with the counts CSV) writes all
of a manifest's runs, and the reader parses all of them in one pass.
Any other valid JSON is read with ``json``, with the same values and
the same errors.

Writers are deterministic: identical values produce identical bytes.
Read errors are FormatErrors naming the file and the byte offset of the
problem.

The map readers read a file into fresh memory placed so that its
13-byte header ends on a 16-byte boundary: the payload view is then
aligned, and numpy reads it without an aligned copy.
"""

from __future__ import annotations

import json
import os
import reprlib
import struct
from dataclasses import asdict, fields
from itertools import accumulate
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
        self.message = message
        super().__init__(f"{self.path}: byte {offset}: {message}")

    def __reduce__(self):
        # args holds the formatted text, not the three arguments __init__ takes
        return type(self), (self.path, self.offset, self.message)


def _parse_header(data, magic: bytes, bytes_per_pixel: int, path) -> GridDims:
    """Dimensions from the header of ``data`` (bytes or a byte memoryview),
    after checking that the payload holds exactly ``bytes_per_pixel``
    bytes per pixel."""
    if bytes(data[:4]) != magic:
        raise FormatError(path, 0, f"bad magic {bytes(data[:4])!r}, expected {magic!r}")
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


def _map_parts(m: SemanticMap | OffsetMap) -> tuple[bytes, np.ndarray]:
    """A binary map's 13-byte header and its payload: the map's array in
    the file's byte order and C order, a copy only if it is not so already."""
    if isinstance(m, SemanticMap):
        magic, payload = SEMANTIC_MAGIC, np.ascontiguousarray(m.labels, dtype="|u1")
    else:
        magic, payload = OFFSET_MAGIC, np.ascontiguousarray(m.vectors, dtype="<f4")
    return magic + bytes([FORMAT_VERSION]) + _HEADER.pack(m.dims.width, m.dims.height), payload


def _write_map(path, m: SemanticMap | OffsetMap) -> None:
    """Writes the header, then the payload's own buffer: no joined copy."""
    head, payload = _map_parts(m)
    with open(path, "wb") as f:
        f.write(head)
        f.write(payload)


def semantic_to_bytes(sm: SemanticMap) -> bytes:
    return b"".join(_map_parts(sm))


def semantic_from_bytes(data: bytes | memoryview, path="<memory>") -> SemanticMap:
    dims = _parse_header(data, SEMANTIC_MAGIC, 1, path)
    labels = np.frombuffer(data, dtype="|u1", offset=13).reshape(dims.shape)  # a read-only view of data
    try:
        return SemanticMap(dims, labels)
    except ValueError:  # the map's own range check
        bad = 13 + int(np.argmax(labels.ravel() > 2))
        raise FormatError(path, bad, "class byte outside {0, 1, 2}") from None


def offsets_to_bytes(om: OffsetMap) -> bytes:
    return b"".join(_map_parts(om))


def offsets_from_bytes(data: bytes | memoryview, path="<memory>") -> OffsetMap:
    dims = _parse_header(data, OFFSET_MAGIC, 8, path)
    vec = np.frombuffer(data, dtype="<f4", offset=13).reshape(*dims.shape, 2)  # a read-only view of data
    try:
        return OffsetMap(dims, vec)
    except ValueError:  # the map's own finiteness check
        raise FormatError(path, 13, "non-finite offset component") from None


def _read_map(path) -> memoryview:
    """The bytes of a map file as a read-only view of fresh numpy memory,
    placed so that the payload after the 13-byte header starts on a
    16-byte boundary. One byte more than the file's size is asked for, so
    a file that grew after its size was taken still fails the size check."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        buf = np.empty(size + 16, dtype=np.uint8)
        lead = (3 - buf.ctypes.data) % 16  # 3 bytes past a 16-byte boundary
        n = f.readinto(memoryview(buf)[lead : lead + size + 1])
    return memoryview(buf)[lead : lead + n].toreadonly()


def write_semantic(path, sm: SemanticMap) -> None:
    _write_map(path, sm)


def read_semantic(path) -> SemanticMap:
    return semantic_from_bytes(_read_map(path), path)


def write_offsets(path, om: OffsetMap) -> None:
    _write_map(path, om)


def read_offsets(path) -> OffsetMap:
    return offsets_from_bytes(_read_map(path), path)


def manifest_dumps(frame_id: int, dims: GridDims, instances: list[Instance]) -> str:
    """The manifest as one line of JSON with sorted keys.

    ``json.dumps`` writes every field but the run lists, each of which it
    leaves as the placeholder ``"rle":[]``: JSON escapes a ``"`` inside a
    string, so the placeholder appears nowhere else. All run lists are
    formatted in one numpy digit pass and spliced into the placeholders.
    """
    doc = {
        "frame": frame_id,
        "width": dims.width,
        "height": dims.height,
        "instances": [
            {
                "class": inst.cls,
                "score": inst.score,
                "predicted_center": [inst.predicted_center[0], inst.predicted_center[1]],
                "rle": [],
            }
            for inst in instances
        ],
    }
    pieces = json.dumps(doc, sort_keys=True, separators=(",", ":")).split('"rle":[]')
    if instances:
        runs = [rle_encode(inst.mask) for inst in instances]
        lines = _csv_lines(np.concatenate(runs), np.cumsum([r.size for r in runs]) - 1).decode()
        for i, run_list in enumerate(lines.split("\n")[:-1]):
            pieces[i] += f'"rle":[{run_list}]'
    return "".join(pieces) + "\n"


def manifest_loads(data: bytes | str, path="<memory>") -> tuple[int, GridDims, list[Instance]]:
    """Frame id, dims and instances of a manifest given as UTF-8 bytes or text.

    A manifest in the writer's form has its run lists parsed in numpy
    (see :func:`_writer_form_doc`); any other JSON goes through
    ``json.loads`` whole, so the two give the same instances or the same
    error. Values are checked, not converted: ``frame``, ``width`` and
    ``height`` are integers, ``instances`` a list, ``score`` a number and
    ``predicted_center`` a list of two numbers, where bools are not
    numbers. Errors are FormatErrors at the byte offset of the problem,
    or at byte 0 when it is in a value rather than in the JSON syntax.
    """
    if isinstance(data, str):
        text = data
        data = text.encode("utf-8", "surrogatepass")
    else:
        text = _utf8(data, path)
    try:
        doc = _writer_form_doc(data)
        if doc is None:
            doc = json.loads(text)
        dims = GridDims(_integer(doc["width"], "width"), _integer(doc["height"], "height"))
        if dims.npixels > MAX_FRAME_PIXELS:  # masks are decoded into crops of up to this many pixels
            raise FormatError(path, 0, f"{dims.width}x{dims.height} exceeds the {MAX_FRAME_PIXELS}-pixel limit")
        frame_id = _integer(doc["frame"], "frame")
        if type(doc["instances"]) is not list:
            raise ValueError(f"instances must be a list, got {reprlib.repr(doc['instances'])}")
        instances = [
            Instance(
                mask=rle_decode(entry["rle"], dims),
                predicted_center=_center(entry["predicted_center"]),
                cls=entry["class"],
                score=_number(entry["score"], "score"),
            )
            for entry in doc["instances"]
        ]
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        offset = len(text[: getattr(exc, "pos", 0)].encode("utf-8", "surrogatepass"))  # json counts characters
        raise FormatError(path, offset, f"bad instance manifest: {exc}") from exc
    return frame_id, dims, instances


def _integer(value, name: str) -> int:
    """``value``, which must be a JSON integer (``true`` and ``false`` are not)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return value


def _number(value, name: str) -> float:
    """``value`` as a float; it must be a JSON number, not a bool or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {reprlib.repr(value)}")
    return float(value)


def _center(value) -> tuple[float, float]:
    """A predicted center: a JSON list of exactly two numbers."""
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"predicted_center must be a list of two numbers, got {reprlib.repr(value)}")
    return _number(value[0], "predicted_center"), _number(value[1], "predicted_center")


_RLE_OPEN = b'"rle":['


def _writer_form_doc(data: bytes) -> dict | None:
    """The manifest's JSON document, each instance's ``"rle"`` an int64 array,
    or None when ``data`` is not in the writer's form.

    Each ``"rle":[`` opens a span that runs to the next ``]``. Every span
    must hold a run list as the writer formats it (see
    :func:`_writer_runs`), and the JSON left with each span emptied, the
    skeleton, must hold no backslash, so that every ``"`` delimits a
    string, and exactly one ``"rle"`` string per ``instances`` entry,
    which must be that entry's key. Each span is then the run list of
    its entry. When any of this fails the caller parses ``data`` with
    ``json`` instead, so this path decides nothing about what the file
    holds; it only parses faster what the writer wrote.
    """
    spans = []
    end = 0
    while (start := data.find(_RLE_OPEN, end)) >= 0:
        start += len(_RLE_OPEN)
        end = data.find(b"]", start)
        if end < 0:
            return None
        spans.append((start, end))
    if not spans:
        return None
    cuts = [0, *(i for span in spans for i in span), len(data)]
    skeleton = b"".join([data[a:b] for a, b in zip(cuts[::2], cuts[1::2])])
    if b"\\" in skeleton or skeleton.count(b'"rle"') != len(spans):
        return None
    runs = _writer_runs([data[a:b] for a, b in spans])
    if runs is None:
        return None
    try:
        doc = json.loads(skeleton.decode())
    except (ValueError, RecursionError):
        return None
    entries = doc.get("instances") if isinstance(doc, dict) else None
    if not (
        isinstance(entries, list)
        and len(entries) == len(spans)
        and all(isinstance(entry, dict) and "rle" in entry for entry in entries)
    ):
        return None
    for entry, entry_runs in zip(entries, runs):
        entry["rle"] = entry_runs
    return doc


def _writer_runs(lists: list[bytes]) -> list[np.ndarray] | None:
    """The run lengths of each of ``lists`` as an int64 array, or None unless
    every list is in the writer's form: decimal runs joined by commas, with
    no empty field, no leading zero and at most 9 digits per run (so no
    run can wrap int64).

    All lists are joined, checked with whole-array comparisons over their
    bytes and parsed in one ``np.fromstring`` pass.
    """
    body = b",".join(lists)
    if not body or body[0] == ord(",") or body[-1] == ord(","):  # an empty first or last field
        return None
    b = np.frombuffer(body, dtype=np.uint8)
    comma = b == ord(",")
    starts = list(accumulate((len(piece) + 1 for piece in lists[:-1]), initial=0))
    # each list's commas and the one after it, which is its number of runs; the last has none after it
    sizes = np.add.reduceat(comma, starts, dtype=np.intp)
    sizes[-1] += 1
    n_runs = int(sizes.sum())
    digit = (b - ord("0")) < 10  # uint8 arithmetic: bytes below "0" wrap above 9
    if np.count_nonzero(digit) + n_runs - 1 != b.size or (comma[1:] & comma[:-1]).any():
        return None  # a byte other than a digit or a comma, or an empty field
    zero_then_digit = (b[:-1] == ord("0")) & digit[1:]
    if (body[0] == ord("0") and b.size > 1 and digit[1]) or (zero_then_digit[1:] & comma[:-2]).any():
        return None  # a leading zero
    # dK[i] is set where bytes i to i + K - 1 are all digits
    d2 = digit[1:] & digit[:-1]
    d4 = d2[2:] & d2[:-2]
    d8 = d4[4:] & d4[:-4]
    if (d8[:-2] & d2[8:]).any():
        return None  # a run of 10 digits or more
    runs = np.fromstring(body, dtype=np.int64, count=n_runs, sep=",")
    bounds = np.cumsum(sizes).tolist()
    return [runs[lo:hi] for lo, hi in zip([0, *bounds], bounds)]


def write_manifest(path, frame_id: int, dims: GridDims, instances: list[Instance]) -> None:
    Path(path).write_text(manifest_dumps(frame_id, dims, instances))


def read_manifest(path) -> tuple[int, GridDims, list[Instance]]:
    return manifest_loads(Path(path).read_bytes(), path)


def _utf8(data: bytes, path) -> str:
    """``data`` decoded as strict UTF-8, or a FormatError at its first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(path, exc.start, f"not UTF-8: {exc.reason}") from None


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
    of ``0,``; only the box's cells are formatted, by :func:`_csv_lines`.
    """
    r0, r1, c0, c1 = box if counts.size else (0, 0, 0, 0)
    zero_row = b"0," * (dims.width - 1) + b"0\n"
    left, right = b"0," * c0, b",0" * (dims.width - c1) + b"\n"
    inner = b""
    if r1 > r0:
        cells = _csv_lines(counts.ravel(), np.arange(counts.shape[1] - 1, counts.size, counts.shape[1]))
        inner = left + cells[:-1].replace(b"\n", right + left) + right
    return b"".join((zero_row * r0, inner, zero_row * (dims.height - r1)))


def _csv_lines(values: np.ndarray, line_ends) -> bytes:
    """Non-negative integers below 2**32 as ASCII decimals, each followed by a
    comma, or by a newline at the indices ``line_ends`` (the last one's included).

    Formatted in numpy, with no Python call per value: the digits fill a
    right-aligned byte matrix, a row per value and a column per digit
    place, written a place at a time for all values at once. The places
    above a value's leading digit hold NUL bytes, which are then deleted.
    """
    top = int(values.max())
    if top > np.iinfo(np.uint32).max:
        raise ValueError(f"{top} is above the 32-bit range of the digit formatter")
    q = values.astype(np.uint32)  # a copy: the digit loop below consumes it
    rest, digit = np.empty_like(q), np.empty_like(q)
    places = len(str(top))
    rows = np.empty((q.size, places + 1), dtype=np.uint8)
    rows[:, places] = ord(",")
    rows[line_ends, places] = ord("\n")
    for col in range(places - 1, -1, -1):
        np.floor_divide(q, 10, out=rest)  # floor division by a constant is far cheaper than %
        np.multiply(rest, 10, out=digit)
        np.subtract(q, digit, out=digit)
        digit += ord("0")
        if col < places - 1:
            digit *= q > 0  # NUL above the leading digit; a lone 0 is kept
        rows[:, col] = digit
        q, rest = rest, q
    return rows.tobytes().translate(None, b"\0")


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
    anything else as float.

    Keys outside ``defaults`` and missing ``required`` keys are
    FormatErrors at byte 0; a line that is not key=value, a key set a
    second time, or a value its parser rejects, is one at the byte offset
    of its line.
    """
    raw: dict[str, tuple[str, int]] = {}
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            if "=" not in stripped:
                raise FormatError(path, offset, f"expected key=value, got {stripped!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in raw:
                raise FormatError(path, offset, f"repeated {kind} key: {key}")
            raw[key] = (value, offset)
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
    return config_loads(_utf8(Path(path).read_bytes(), path), path)


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
    return scene_spec_loads(_utf8(Path(path).read_bytes(), path), path)
