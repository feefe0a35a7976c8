"""Bit-exact file formats: binary maps, manifests, CSV, config files."""

import json
import pickle
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from centerseg import (
    BinaryMask,
    GridDims,
    Instance,
    NoiseModel,
    OffsetMap,
    PipelineConfig,
    SemanticMap,
    rle_decode,
    rle_encode,
)
from centerseg import formats
from centerseg.formats import (
    FormatError,
    config_dumps,
    config_loads,
    counts_csv_dumps,
    heatmap_pgm_bytes,
    manifest_dumps,
    manifest_loads,
    metrics_csv_dumps,
    metrics_csv_loads,
    offsets_from_bytes,
    offsets_to_bytes,
    read_config,
    read_manifest,
    read_offsets,
    read_scene_spec,
    read_semantic,
    scene_spec_loads,
    semantic_from_bytes,
    semantic_to_bytes,
    tracks_csv_dumps,
    tracks_csv_loads,
    write_offsets,
    write_semantic,
)
from centerseg.tracking import TrackMetrics


def random_semantic(rng, w, h):
    labels = rng.integers(0, 3, size=(h, w)).astype(np.uint8)
    return SemanticMap(GridDims(w, h), labels)


def random_offsets(rng, w, h):
    vec = rng.normal(0, 10, size=(h, w, 2)).astype(np.float32)
    return OffsetMap(GridDims(w, h), vec)


def test_semantic_layout():
    sm = SemanticMap(GridDims(2, 2), np.array([[0, 1], [2, 0]], dtype=np.uint8))
    data = semantic_to_bytes(sm)
    assert data[:4] == b"CCSM"
    assert data[4] == 1
    assert data[5:13] == (2).to_bytes(4, "little") * 2
    assert data[13:] == bytes([0, 1, 2, 0])


def test_offset_layout():
    vec = np.zeros((1, 2, 2), dtype=np.float32)
    vec[0, 0] = (1.0, -2.0)
    om = OffsetMap(GridDims(2, 1), vec)
    data = offsets_to_bytes(om)
    assert data[:4] == b"CCOF"
    got = np.frombuffer(data, dtype="<f4", offset=13)
    assert list(got) == [1.0, -2.0, 0.0, 0.0]


def test_semantic_round_trip_files(tmp_path):
    rng = np.random.default_rng(0)
    sm = random_semantic(rng, 17, 9)
    path = tmp_path / "m.ccsm"
    write_semantic(path, sm)
    assert read_semantic(path) == sm


def test_offsets_round_trip_files(tmp_path):
    rng = np.random.default_rng(1)
    om = random_offsets(rng, 13, 7)
    path = tmp_path / "m.ccof"
    write_offsets(path, om)
    assert read_offsets(path) == om


def test_map_writers_write_the_to_bytes_bytes(tmp_path):
    rng = np.random.default_rng(2)
    sm, om = random_semantic(rng, 23, 11), random_offsets(rng, 23, 11)
    # a strided view of each map too: the writer copies it into C order
    sm_view = SemanticMap(GridDims(11, 11), random_semantic(rng, 22, 11).labels[:, ::2])
    om_view = OffsetMap(GridDims(11, 11), random_offsets(rng, 22, 11).vectors[:, ::2])
    assert not sm_view.labels.flags.c_contiguous and not om_view.vectors.flags.c_contiguous
    for write, to_bytes, m in (
        (write_semantic, semantic_to_bytes, sm),
        (write_semantic, semantic_to_bytes, sm_view),
        (write_offsets, offsets_to_bytes, om),
        (write_offsets, offsets_to_bytes, om_view),
    ):
        path = tmp_path / "m.bin"
        write(path, m)
        assert path.read_bytes() == to_bytes(m)


def test_write_offsets_holds_no_copy_of_the_map(tmp_path):
    dims = GridDims(1280, 720)
    om = OffsetMap(dims, np.random.default_rng(3).normal(0, 10, size=(*dims.shape, 2)).astype(np.float32))
    tracemalloc.start()
    try:
        write_offsets(tmp_path / "m.ccof", om)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "m.ccof").stat().st_size == 13 + om.vectors.nbytes
    assert peak < 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB for a {om.vectors.nbytes / 2**20:.2f} MB map"


@pytest.mark.parametrize("width, height", [(1280, 720), (1, 1), (7, 5)])
def test_map_readers_return_aligned_read_only_arrays(tmp_path, width, height):
    rng = np.random.default_rng(width * height)
    maps = (
        (write_semantic, read_semantic, semantic_from_bytes, random_semantic(rng, width, height), "labels"),
        (write_offsets, read_offsets, offsets_from_bytes, random_offsets(rng, width, height), "vectors"),
    )
    for write, read, from_bytes, m, field in maps:
        path = tmp_path / "m.bin"
        write(path, m)
        got = read(path)
        assert got == from_bytes(path.read_bytes()) == m
        arr = getattr(got, field)
        assert arr.flags.aligned and arr.flags.c_contiguous and arr.ctypes.data % 16 == 0
        assert not arr.flags.writeable
        with pytest.raises(ValueError):  # the memory under the view is read-only too
            arr.flags.writeable = True


def test_map_readers_fail_as_the_byte_parsers_do(tmp_path):
    rng = np.random.default_rng(4)
    sem, off = semantic_to_bytes(random_semantic(rng, 7, 5)), offsets_to_bytes(random_offsets(rng, 7, 5))
    bad_class = bytearray(sem)
    bad_class[20] = 3
    nan = bytearray(off)
    nan[-4:] = np.float32(np.nan).tobytes()
    malformed = [b"", sem[:3], sem[:4], sem[:12], sem[:-1], sem + b"\0", b"XXSM" + sem[4:],
                 sem[:4] + b"\2" + sem[5:], sem[:5] + bytes(8) + sem[13:], bytes(bad_class)]
    cases = [(read_semantic, semantic_from_bytes, data) for data in malformed]
    cases += [(read_offsets, offsets_from_bytes, data) for data in (off[:-1], off + b"\0", sem, bytes(nan))]
    path = tmp_path / "m.bin"
    for read, from_bytes, data in cases:
        path.write_bytes(data)
        with pytest.raises(FormatError) as want:
            from_bytes(data, path)
        with pytest.raises(FormatError) as got:
            read(path)
        assert (got.value.offset, str(got.value)) == (want.value.offset, str(want.value))


def test_bad_magic_offset_zero():
    with pytest.raises(FormatError) as err:
        semantic_from_bytes(b"XXSM" + bytes(20), path="bad.ccsm")
    assert err.value.offset == 0
    assert "bad.ccsm" in str(err.value)


def test_format_error_survives_pickling():
    # an exception crosses a process boundary pickled
    err = FormatError(Path("x.ccsm"), 3, "truncated payload")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is FormatError
    assert (back.path, back.offset, back.message, str(back)) == ("x.ccsm", 3, "truncated payload", str(err))


def test_bad_version_offset_four():
    data = b"CCSM" + bytes([9]) + (2).to_bytes(4, "little") * 2 + bytes(4)
    with pytest.raises(FormatError) as err:
        semantic_from_bytes(data)
    assert err.value.offset == 4


def test_truncated_payload_reports_offset():
    data = b"CCSM" + bytes([1]) + (4).to_bytes(4, "little") + (4).to_bytes(4, "little") + bytes(3)
    with pytest.raises(FormatError) as err:
        semantic_from_bytes(data)
    assert err.value.offset == 16  # = length of the short file


def test_bad_class_byte():
    data = b"CCSM" + bytes([1]) + (2).to_bytes(4, "little") + (1).to_bytes(4, "little") + bytes([0, 7])
    with pytest.raises(FormatError) as err:
        semantic_from_bytes(data)
    assert err.value.offset == 14


def test_manifest_round_trip_and_determinism():
    rng = np.random.default_rng(2)
    dims = GridDims(12, 10)
    instances = []
    for k in range(3):
        mask = BinaryMask(dims, rng.random(dims.shape) < 0.3)
        instances.append(
            Instance(
                mask=mask,
                predicted_center=(float(rng.normal(5, 2)), float(rng.normal(5, 2))),
                cls="piglet" if k < 2 else "sow",
                score=float(rng.random()),
            )
        )
    text = manifest_dumps(7, dims, instances)
    frame_id, got_dims, got = manifest_loads(text)
    assert frame_id == 7 and got_dims == dims
    assert got == instances
    assert manifest_dumps(frame_id, got_dims, got) == text  # byte identical


def test_manifest_error_reporting():
    with pytest.raises(FormatError):
        manifest_loads("{not json", path="x.json")
    with pytest.raises(FormatError):
        manifest_loads('{"frame": 0}', path="x.json")
    huge = "1" + "0" * 400  # a JSON integer too large for a float
    with pytest.raises(FormatError, match="x.json: byte 0: bad instance manifest"):
        manifest_loads(
            f'{{"frame":0,"height":3,"instances":[{{"class":"piglet","predicted_center":[{huge},1.0],'
            f'"rle":[4,5],"score":0.5}}],"width":3}}',
            path="x.json",
        )


@pytest.mark.parametrize(
    "rle",
    ['["4","5"]', "[true,8]", "[8,true]", "[4.5,5.5]", "[4.0,5]", "[null,9]", '"45"',
     "[10,-1]", "[-1,10]", f"[0,{2**70},{9 - 2**70}]", f"[{2**64}]", "[0,10]", "[]"],
)
def test_manifest_rejects_bad_run_lengths(rle):
    # a 3x3 frame: good runs are JSON integers summing to 9
    text = (
        f'{{"frame":0,"height":3,"instances":[{{"class":"piglet","predicted_center":[1.0,1.0],'
        f'"rle":{rle},"score":0.5}}],"width":3}}'
    )
    manifest_loads(text.replace(rle, "[4,5]"))
    with pytest.raises(FormatError, match="x.json: byte 0: bad instance manifest: run length"):
        manifest_loads(text, path="x.json")


def test_manifest_header_bounds_the_frame(run_capped):
    manifest_loads('{"frame":0,"height":8192,"instances":[],"width":8192}')
    with pytest.raises(FormatError, match="x.json: byte 0: 8193x8192 exceeds"):
        manifest_loads('{"frame":0,"height":8192,"instances":[],"width":8193}', path="x.json")
    # one run over a 100000x100000 frame: rejected before any run is decoded
    huge = (
        '{"frame":0,"height":100000,"instances":[{"class":"piglet","predicted_center":[1.0,1.0],'
        '"rle":[0,10000000000],"score":0.9}],"width":100000}'
    )
    done = run_capped(
        "from centerseg.formats import FormatError, manifest_loads\n"
        "try:\n"
        f"    manifest_loads({huge!r}, path='huge.json')\n"
        "except FormatError as exc:\n"
        "    print(exc)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("huge.json: byte 0: 100000x100000 exceeds"), done.stdout


MANIFEST_3X3_INSTANCES = '[{"class":"piglet","predicted_center":[1.0,1.0],"rle":[4,5],"score":0.9}]'
MANIFEST_3X3 = '{"frame":0,"height":3,"instances":' + MANIFEST_3X3_INSTANCES + ',"width":3}'
MANIFEST_3X3_VALUES = {
    "frame": "0", "height": "3", "width": "3", "predicted_center": "[1.0,1.0]", "score": "0.9",
    "instances": MANIFEST_3X3_INSTANCES,
}


@pytest.mark.parametrize(
    "field, value",
    [("predicted_center", '"12"'), ("width", "3.7"), ("frame", "true"), ("score", '"0.9"'),
     ("frame", '"0"'), ("frame", "0.0"), ("height", "false"), ("width", "null"), ("score", "true"),
     ("predicted_center", "[1.0]"), ("predicted_center", "[1.0,1.0,1.0]"), ("predicted_center", '["1",1.0]'),
     ("predicted_center", "[1.0,false]"), ("predicted_center", '{"x":1.0,"y":1.0}'),
     ("instances", "{}"), ("instances", '""')],
)
def test_manifest_values_are_checked_not_coerced(field, value):
    text = MANIFEST_3X3.replace(f'"{field}":{MANIFEST_3X3_VALUES[field]}', f'"{field}":{value}')
    assert text != MANIFEST_3X3
    with pytest.raises(FormatError, match=f"x.json: byte 0: bad instance manifest: {field} must be"):
        manifest_loads(text, path="x.json")


def test_manifest_numbers_may_be_integers():
    text = MANIFEST_3X3.replace("[1.0,1.0]", "[1,2]").replace("0.9", "1")
    _, _, [inst] = manifest_loads(text)
    assert inst.predicted_center == (1.0, 2.0) and inst.score == 1.0
    assert type(inst.score) is float and all(type(v) is float for v in inst.predicted_center)


NON_UTF8_FILES = {
    "manifest": (read_manifest, b'{"frame":0,"height":3,"instances":[],"width":3\xff}\n', 46),
    "config": (read_config, b"eps=2\xff\n", 5),
    "scene": (read_scene_spec, b"width=10\nheight=10\nn_piglets=1\xff\n", 30),
}


@pytest.mark.parametrize("kind", sorted(NON_UTF8_FILES))
def test_non_utf8_file_fails_at_the_bad_byte(tmp_path, kind):
    read, data, offset = NON_UTF8_FILES[kind]
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: byte {offset}: not UTF-8") as err:
        read(path)
    assert err.value.offset == offset
    if kind == "manifest":
        with pytest.raises(FormatError, match="x.json: byte 1: not UTF-8"):
            manifest_loads(b"{\xc3(", path="x.json")


def test_manifest_syntax_error_offset_counts_bytes(tmp_path):
    # the two-byte character before the error moves it one byte past json's character index
    text = '{"frame":0,"height":3,"instances":[{"class":"piglét","predicted_center":[1.0,1.0],"rle":[4,5],"score":0.5}],"width":3,,}'
    path = tmp_path / "e.json"
    path.write_bytes(text.encode())
    byte = text.encode().index(b",,") + 1
    for load in (lambda: read_manifest(path), lambda: manifest_loads(text, path=path)):
        with pytest.raises(FormatError) as err:
            load()
        assert err.value.offset == byte == text.index(",,") + 2


def manifest_outcome(load):
    """What a manifest load gives: its values, or its FormatError's text and offset."""
    try:
        return load()
    except FormatError as exc:
        return ("FormatError", str(exc), exc.offset)


def json_path_outcome(data):
    """``manifest_loads`` with the numpy run-list path switched off."""
    with mock.patch.object(formats, "_writer_form_doc", return_value=None):
        return manifest_outcome(lambda: manifest_loads(data, path="m.json"))


def manifest_by_json(frame_id, dims, instances):
    """The writer the numpy run-list formatter replaced: ``json.dumps`` of every field."""
    doc = {
        "frame": frame_id, "width": dims.width, "height": dims.height,
        "instances": [
            {"class": i.cls, "score": i.score, "predicted_center": list(i.predicted_center), "rle": rle_encode(i.mask).tolist()}
            for i in instances
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@st.composite
def manifest_values(draw):
    """Frame id, dims and up to four instances on a frame of up to 9x9 pixels."""
    dims = GridDims(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    instances = []
    for _ in range(draw(st.integers(0, 4))):
        bits = draw(arrays(bool, dims.shape))
        bits[draw(st.integers(0, dims.height - 1)), draw(st.integers(0, dims.width - 1))] = True
        center = st.floats(-1e6, 1e6, allow_nan=False)
        instances.append(
            Instance(
                mask=BinaryMask(dims, bits),
                predicted_center=(draw(center), draw(center)),
                cls=draw(st.sampled_from(["piglet", "sow"])),
                score=draw(st.floats(0.0, 1.0)),
            )
        )
    return draw(st.integers(0, 10**6)), dims, instances


@settings(max_examples=200, deadline=None)
@given(values=manifest_values())
def test_manifest_writer_matches_json_dumps(values):
    assert manifest_dumps(*values) == manifest_by_json(*values)


def writer_manifests():
    return manifest_values().map(lambda values: manifest_dumps(*values))


RUN_LIST = re.compile(r'"rle":\[([0-9,]*)\]')
RUN = re.compile(r"[0-9]+")


def mutate_runs(text, draw, change):
    """``text`` with ``change(run_text)`` applied to one drawn run of one drawn run list."""
    lists = list(RUN_LIST.finditer(text))
    if not lists:
        return text
    span = draw(st.sampled_from(lists))
    runs = list(RUN.finditer(text, span.start(1), span.end(1)))
    run = draw(st.sampled_from(runs))
    return text[: run.start()] + change(run.group()) + text[run.end() :]


def mutate_list(text, draw, change):
    """``text`` with ``change(match)`` replacing one drawn ``"rle":[...]`` match."""
    lists = list(RUN_LIST.finditer(text))
    if not lists:
        return text
    span = draw(st.sampled_from(lists))
    return text[: span.start()] + change(span) + text[span.end() :]


VALUE = re.compile(r'"(?:frame|height|width|score)":([^,}]+)|"predicted_center":(\[[^\]]*\])')
INSTANCES = re.compile(r'"instances":(\[.*\]),"width":')
VALUES = [
    '"1"', '""', "true", "false", "null", "0", "1", "-1", "1.0", "0.5", "1e400", "{}",
    "[1.0,2.0]", "[1,2]", "[1.0]", "[]", "[1.0,2.0,3.0]", '["1",2.0]', "[true,1.0]", "[[1.0],2.0]",
]


def mutate_value(text, draw):
    """``text`` with one drawn header or instance value, or the whole
    ``instances`` list, replaced by a drawn JSON value."""
    spans = [match.span(match.lastindex) for match in VALUE.finditer(text)] + [INSTANCES.search(text).span(1)]
    start, end = draw(st.sampled_from(spans))
    return text[:start] + draw(st.sampled_from(VALUES)) + text[end:]


MUTATIONS = {
    "none": lambda text, draw: text,
    "space in a list": lambda text, draw: mutate_runs(text, draw, lambda r: draw(st.sampled_from([" ", "\n", "\t"])) + r),
    "space after a list": lambda text, draw: mutate_runs(text, draw, lambda r: r + " "),
    "space before a list": lambda text, draw: mutate_list(text, draw, lambda m: '"rle": [' + m.group(1) + "]"),
    "space inside the brackets": lambda text, draw: mutate_list(text, draw, lambda m: '"rle":[ ' + m.group(1) + " ]"),
    "leading zero": lambda text, draw: mutate_runs(text, draw, lambda r: "0" + r),
    "wide run": lambda text, draw: mutate_runs(
        text, draw, lambda r: str(draw(st.sampled_from([10**9, 10**9 + int(r), 2**63 + int(r), 2**64 + int(r), 10**25])))
    ),
    "sign": lambda text, draw: mutate_runs(text, draw, lambda r: draw(st.sampled_from("-+")) + r),
    "float": lambda text, draw: mutate_runs(text, draw, lambda r: r + draw(st.sampled_from([".0", "e0", ".5"]))),
    "literal": lambda text, draw: mutate_runs(text, draw, lambda r: draw(st.sampled_from(["true", "false", "null"]))),
    "nested": lambda text, draw: mutate_runs(text, draw, lambda r: "[" + r + "]"),
    "empty list": lambda text, draw: mutate_list(text, draw, lambda m: '"rle":[]'),
    "duplicate key": lambda text, draw: mutate_list(text, draw, lambda m: m.group() + ',"rle":[' + m.group(1) + "]"),
    "duplicate key, other runs": lambda text, draw: mutate_list(text, draw, lambda m: m.group() + ',"rle":[1,2]'),
    "duplicate key, spaced": lambda text, draw: mutate_list(
        text, draw, lambda m: m.group() + ',"rle" :[' + ",".join(reversed(m.group(1).split(","))) + "]"
    ),
    "duplicate key, spaced first": lambda text, draw: mutate_list(text, draw, lambda m: '"rle": [1,2],' + m.group()),
    "escaped key": lambda text, draw: mutate_list(text, draw, lambda m: '"\\u0072le":[' + m.group(1) + "]"),
    "quote inside a key": lambda text, draw: mutate_list(text, draw, lambda m: m.group() + ',"x\\"rle":[5]'),
    "rle at the top level": lambda text, draw: '{"rle":[' + draw(st.sampled_from(["1,2", "9", ""])) + "]," + text[1:],
    "rle in another value": lambda text, draw: text.replace(
        '"predicted_center":[', '"predicted_center":[{"rle":[3]},', 1
    ),
    "swapped lists": lambda text, draw: RUN_LIST.sub(lambda m: '"rle":[' + ",".join(reversed(m.group(1).split(","))) + "]", text),
    "non-ASCII class": lambda text, draw: text.replace('"class":"piglet"', '"class":"piglét"', 1),
    "escaped class": lambda text, draw: text.replace('"class":"sow"', '"class":"s\\u006fw"', 1),
    "value type": mutate_value,
}


@settings(max_examples=420, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=writer_manifests(), kind=st.sampled_from(sorted(MUTATIONS)), data=st.data())
def test_numpy_run_lists_read_as_json_does(text, kind, data):
    """Writer-form manifests, mutated, read the same through the numpy
    run-list path and through ``json``: the same instances, or a
    FormatError with the same message and offset."""
    if kind == "none":
        assert formats._writer_form_doc(text.encode()) is not None or '"rle"' not in text
    mutated = MUTATIONS[kind](text, data.draw)
    expected = json_path_outcome(mutated)
    assert manifest_outcome(lambda: manifest_loads(mutated, path="m.json")) == expected
    assert manifest_outcome(lambda: manifest_loads(mutated.encode(), path="m.json")) == expected


def test_writer_form_path_refuses_what_it_cannot_prove():
    middle = BinaryMask(GridDims(3, 3), np.arange(9).reshape(3, 3) == 4)
    text = manifest_dumps(0, GridDims(3, 3), [Instance(middle, (1.0, 1.0), "piglet", 0.5)])
    assert text == '{"frame":0,"height":3,"instances":[{"class":"piglet","predicted_center":[1.0,1.0],"rle":[4,1,4],"score":0.5}],"width":3}\n'
    assert formats._writer_form_doc(text.encode())["instances"][0]["rle"].tolist() == [4, 1, 4]
    for bad in ("[04,1,4]", "[4, 1,4]", "[4,1,4,]", "[,4,1,4]", "[4,,1,4]", "[4,-1,6]", "[1000000000,1]", "[]"):
        assert formats._writer_form_doc(text.replace("[4,1,4]", bad).encode()) is None, bad
    assert formats._writer_form_doc(text.replace("[4,1,4]", "[4,1,4],\"rle\":[9]").encode()) is None
    assert formats._writer_form_doc(text.replace('{"frame"', '{"rle":[9],"frame"').encode()) is None
    assert formats._writer_form_doc(text.replace('"piglet"', '"pig\\u006cet"').encode()) is None


def test_manifest_writer_refuses_runs_above_32_bits():
    dims = GridDims(70_000, 70_000)  # one pixel: the last run is above 2**32
    inst = Instance(rle_decode([5, 1, dims.npixels - 6], dims), (5.0, 0.0), "piglet", 0.5)  # no full frame
    with pytest.raises(ValueError, match="above the 32-bit range"):
        manifest_dumps(0, dims, [inst])


def test_rle_decode_array_input_is_checked_like_lists():
    dims = GridDims(3, 3)
    wrapping = [2**62, 2**62, 2**62, 2**62 + 9]  # sums to 2**64 + 9, which int64 would wrap to 9
    for runs in ([4, -1, 6], [-1, 10], [0, 10], [3, 2], [0, 10**12], wrapping, [2**63 - 1, 2**63 - 1, 2]):
        with pytest.raises(ValueError) as from_list:
            rle_decode(runs, dims)
        with pytest.raises(ValueError) as from_array:
            rle_decode(np.array(runs, dtype=np.int64), dims)
        assert str(from_array.value) == str(from_list.value), runs
    with pytest.raises(ValueError, match="run lengths sum to 18446744073709551625, expected 9"):
        rle_decode(np.array(wrapping, dtype=np.int64), dims)
    for runs in (np.array([4.0, 5.0]), np.array([True, False]), np.array([[4, 5]])):
        with pytest.raises(ValueError, match="1-D integer array"):
            rle_decode(runs, dims)
    for dtype in (np.int64, np.uint64, np.int32, np.uint8):
        assert rle_decode(np.array([4, 1, 4], dtype=dtype), dims) == rle_decode([4, 1, 4], dims)
    with pytest.raises(ValueError, match=f"run lengths sum to {2**63 + 9}, expected 9"):
        rle_decode(np.array([2**63 + 5, 4], dtype=np.uint64), dims)


def test_tracks_csv_round_trip():
    rows = [
        (0, 0, "piglet", 3.5, 4.25, 25, None),
        (0, 1, "sow", 10.0, 2.0, 400, None),
        (1, 0, "piglet", 4.5, 4.25, 24, 0.8125),
    ]
    text = tracks_csv_dumps(rows)
    assert text.splitlines()[0] == "frame,track_id,class,center_x,center_y,area,paired_iou"
    assert tracks_csv_loads(text) == rows
    assert tracks_csv_dumps(tracks_csv_loads(text)) == text


def test_metrics_csv_round_trip():
    metrics = [
        TrackMetrics(0, "piglet", 155.0, 38.75, 3375.0, 0.073),
        TrackMetrics(1, "sow", 0.0, 0.0, 158341.0, 0.269),
    ]
    text = metrics_csv_dumps(metrics)
    rows = metrics_csv_loads(text)
    assert rows[0] == (0, 155.0, 38.75, 3375.0, 0.073)
    assert rows[1][4] == 0.269


def test_pgm_header_and_scaling():
    counts = np.array([[0, 5], [10, 10]], dtype=np.uint32)
    data = heatmap_pgm_bytes(GridDims(2, 2), (0, 2, 0, 2), counts)
    assert data.startswith(b"P5\n2 2\n255\n")
    assert list(data[-4:]) == [0, 128, 255, 255]
    blank = heatmap_pgm_bytes(GridDims(2, 2), (0, 0, 0, 0), np.zeros((0, 0), dtype=np.uint32))
    assert list(blank[-4:]) == [0, 0, 0, 0]


def test_counts_csv():
    counts = np.array([[1, 2], [3, 4]], dtype=np.uint32)
    assert counts_csv_dumps(GridDims(3, 3), (1, 3, 0, 2), counts) == b"0,0,0\n1,2,0\n3,4,0\n"


def counts_csv_by_cells(counts):
    """The per-cell writer the bounding-box crop and the numpy digit writer replaced."""
    return ("\n".join(",".join(str(int(v)) for v in row) for row in np.asarray(counts)) + "\n").encode()


def pgm_over_full_frame(counts):
    """The full-frame graymap writer the bounding-box crop replaced."""
    counts = np.asarray(counts)
    h, w = counts.shape
    peak = int(counts.max()) if counts.size else 0
    if peak > 0:
        scaled = np.rint(counts.astype(np.float64) * (255.0 / peak)).astype(np.uint8)
    else:
        scaled = np.zeros_like(counts, dtype=np.uint8)
    return f"P5\n{w} {h}\n255\n".encode() + scaled.tobytes()


def tight_box(counts):
    rows, cols = np.nonzero(counts)
    if rows.size == 0:
        return (0, 0, 0, 0)
    return (int(rows.min()), int(rows.max()) + 1, int(cols.min()), int(cols.max()) + 1)


def writer_args(counts, box):
    """A track writer's arguments for full-frame ``counts`` given over ``box``."""
    r0, r1, c0, c1 = box
    return GridDims(counts.shape[1], counts.shape[0]), box, counts[r0:r1, c0:c1]


def boxes_to_try(counts):
    return [tight_box(counts), (0, counts.shape[0], 0, counts.shape[1])]


UINT32_MAX = int(np.iinfo(np.uint32).max)
SHAPES = st.tuples(st.integers(1, 7), st.integers(1, 7))
VISIT_COUNTS = arrays(
    np.uint32, SHAPES,
    elements=st.one_of(st.just(0), st.just(UINT32_MAX), st.integers(0, UINT32_MAX)),
)
# the last value with n digits and the first with n + 1, from 9 and 10 up
DIGIT_EDGES = [v for n in range(1, 10) for v in (10**n - 1, 10**n) if v <= UINT32_MAX]


@st.composite
def sparse_patch_counts(draw):
    """A frame of up to 40x40 zeros holding one patch of nonzero-prone visit counts."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    r1, c1 = draw(st.integers(r0 + 1, h)), draw(st.integers(c0 + 1, w))
    value = st.one_of(
        st.just(0), st.integers(0, 12), st.sampled_from(DIGIT_EDGES), st.just(UINT32_MAX), st.integers(0, UINT32_MAX),
    )
    counts = np.zeros((h, w), dtype=np.uint32)
    counts[r0:r1, c0:c1] = draw(arrays(counts.dtype, (r1 - r0, c1 - c0), elements=value))
    return counts


@st.composite
def counts_and_box(draw):
    """Visit counts and a box that holds every nonzero count: the tight box
    grown by a random margin on each side (an empty one when all are 0)."""
    counts = draw(st.one_of(VISIT_COUNTS, sparse_patch_counts()))
    (h, w), (r0, r1, c0, c1) = counts.shape, tight_box(counts)
    if r1 == r0:
        r1 = c1 = 0
    rows = (draw(st.integers(0, r0)), draw(st.integers(r1, h)))
    return counts, (*rows, draw(st.integers(0, c0)), draw(st.integers(c1, w)))


@settings(max_examples=300, deadline=None)
@given(case=counts_and_box())
def test_counts_csv_matches_per_cell_writer(case):
    counts, box = case
    for b in boxes_to_try(counts) + [box]:
        assert counts_csv_dumps(*writer_args(counts, b)) == counts_csv_by_cells(counts), b


@settings(max_examples=200, deadline=None)
@given(case=counts_and_box())
def test_pgm_matches_full_frame_writer(case):
    counts, box = case
    for b in boxes_to_try(counts) + [box]:
        assert heatmap_pgm_bytes(*writer_args(counts, b)) == pgm_over_full_frame(counts), b


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 6)])
def test_track_writers_on_all_zero_and_single_cells(shape):
    zeros = np.zeros(shape, dtype=np.uint32)
    cases = [zeros]
    for r, c in np.ndindex(*shape):
        cases.append(zeros.copy())
        cases[-1][r, c] = UINT32_MAX
    for counts in cases:
        for box in boxes_to_try(counts):
            assert counts_csv_dumps(*writer_args(counts, box)) == counts_csv_by_cells(counts)
            assert heatmap_pgm_bytes(*writer_args(counts, box)) == pgm_over_full_frame(counts)


def test_config_round_trip():
    cfg = PipelineConfig(t=18.5, min_pts=30, rc2m=False, algo="mean-shift")
    text = config_dumps(cfg)
    assert "rc2m=off" in text
    got = config_loads(text)
    assert got == cfg
    assert config_dumps(got) == text


def test_config_unknown_key_rejected():
    with pytest.raises(FormatError, match="unknown config keys"):
        config_loads("eps=2.5\nepz=3\n")


def test_config_repeated_key_rejected_at_its_second_line():
    with pytest.raises(FormatError, match="repeated config key: eps") as err:
        config_loads("eps=1\nmin_pts=9\n eps =3\n")
    assert err.value.offset == len("eps=1\nmin_pts=9\n")


def test_config_invalid_value_rejected():
    with pytest.raises(FormatError):
        config_loads("eps=-1\n")
    with pytest.raises(FormatError):
        config_loads("rc2m=maybe\n")


def test_config_comments_and_blank_lines():
    got = config_loads("# tuned for small scenes\n\neps=1.5\nmin_pts=12\n")
    assert got.eps == 1.5 and got.min_pts == 12


def test_scene_spec_parsing():
    spec = scene_spec_loads(
        "width=160\nheight=120\nn_piglets=6\nseed=3\nsow=off\nflip_rate=0.02\noffset_sigma=1.5\n"
    )
    assert spec.dims == GridDims(160, 120)
    assert spec.n_piglets == 6
    assert not spec.sow
    assert spec.noise.flip_rate == 0.02
    with pytest.raises(FormatError, match="unknown scene keys"):
        scene_spec_loads("width=10\nheight=10\nn_piglets=1\npigs=4\n")
    with pytest.raises(FormatError, match="missing scene key"):
        scene_spec_loads("width=10\nheight=10\n")


def test_scene_file_repeated_key_rejected_at_its_second_line(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text("width=10\nheight=10\nn_piglets=1\n# more\nn_piglets=2\n")
    with pytest.raises(FormatError, match="repeated scene key: n_piglets") as err:
        read_scene_spec(path)
    assert err.value.offset == len("width=10\nheight=10\nn_piglets=1\n# more\n")
    assert err.value.path == str(path)


def test_scene_file_sets_every_documented_key():
    # every key the README lists, each to a value other than its default
    spec = scene_spec_loads(
        "width=160\nheight=120\nn_piglets=6\nseed=3\nsow=off\n"
        "sow_half_length=20.5\nsow_radius=10\nsow_min_visible_area=120\n"
        "piglet_a_min=9\npiglet_a_max=14.5\npiglet_b_min=6\npiglet_b_max=9.5\n"
        "n_random_occluders=2\noccluder_width_min=2\noccluder_width_max=5.5\n"
        "max_speed=1.5\nmin_visible_area=90\nmin_center_separation=12\n"
        "flip_rate=0.02\noffset_sigma=1.5\n"
    )
    expected = {
        "dims": GridDims(160, 120), "n_piglets": 6, "seed": 3, "sow": False,
        "sow_half_length": 20.5, "sow_radius": 10.0, "sow_min_visible_area": 120,
        "piglet_a": (9.0, 14.5), "piglet_b": (6.0, 9.5),
        "n_random_occluders": 2, "occluder_width": (2.0, 5.5),
        "max_speed": 1.5, "min_visible_area": 90, "min_center_separation": 12.0,
        "noise": NoiseModel(flip_rate=0.02, offset_sigma=1.5),
    }
    for name, value in expected.items():
        got = getattr(spec, name)
        assert got == value, name
        assert type(got) is type(value), name
        if isinstance(value, tuple):
            assert [type(v) for v in got] == [float, float], name
    assert type(spec.dims.width) is int and type(spec.dims.height) is int
    assert type(spec.noise.flip_rate) is float and type(spec.noise.offset_sigma) is float
    for name in ("central_radius", "min_central_visible", "positions"):
        with pytest.raises(FormatError, match="unknown scene keys"):
            scene_spec_loads(f"width=10\nheight=10\nn_piglets=1\n{name}=1\n")
