"""End-to-end CLI runs against temp files."""

import json
import threading
import tracemalloc

import numpy as np
import pytest

from centerseg import GridDims, OffsetMap, PipelineConfig, SemanticMap, cli, segment_frame
from centerseg.cli import main
from centerseg.formats import (
    manifest_dumps,
    read_manifest,
    read_offsets,
    read_semantic,
    tracks_csv_loads,
    write_offsets,
    write_semantic,
)

SCENE = """
width=128
height=96
n_piglets=4
seed=5
sow=on
sow_half_length=16
sow_radius=9
sow_min_visible_area=100
n_random_occluders=1
"""


def write_scene(tmp_path, extra=""):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE + extra)
    return path


def test_synth_then_segment_then_eval(tmp_path, capsys):
    scene = write_scene(tmp_path)
    out = tmp_path / "frames"
    assert main(["synth", str(scene), "--out-dir", str(out), "--frames", "3"]) == 0
    assert sorted(p.name for p in out.glob("*.ccsm")) == [
        "frame_0000.ccsm", "frame_0001.ccsm", "frame_0002.ccsm",
    ]

    assert main([
        "segment", "--batch-dir", str(out), "--min-pts", "25", "--jobs", "2",
    ]) == 0
    manifests = sorted(out.glob("frame_*.json"))
    assert len(manifests) == 3
    frame_id, dims, instances = read_manifest(manifests[0])
    assert dims == GridDims(128, 96)
    assert sum(1 for i in instances if i.cls == "piglet") == 4

    gts = sorted(str(p) for p in out.glob("gt_*.json"))
    preds = sorted(str(p) for p in manifests)
    assert main(["eval", "--pred", *preds, "--gt", *gts]) == 0
    shown = capsys.readouterr().out
    assert "mAP = 1.000" in shown


def test_segment_single_pair_and_blank(tmp_path):
    dims = GridDims(32, 24)
    sem = SemanticMap(dims, np.zeros(dims.shape, dtype=np.uint8))
    off = OffsetMap(dims, np.zeros((*dims.shape, 2), dtype=np.float32))
    write_semantic(tmp_path / "a.ccsm", sem)
    write_offsets(tmp_path / "a.ccof", off)
    out = tmp_path / "a.json"
    code = main([
        "segment", str(tmp_path / "a.ccsm"), str(tmp_path / "a.ccof"), "--out", str(out),
    ])
    assert code == 0
    _, _, instances = read_manifest(out)
    assert instances == []


def test_segment_dimension_mismatch_exit_2(tmp_path):
    sem = SemanticMap(GridDims(32, 24), np.zeros((24, 32), dtype=np.uint8))
    off = OffsetMap(GridDims(33, 24), np.zeros((24, 33, 2), dtype=np.float32))
    write_semantic(tmp_path / "a.ccsm", sem)
    write_offsets(tmp_path / "a.ccof", off)
    code = main([
        "segment", str(tmp_path / "a.ccsm"), str(tmp_path / "a.ccof"),
        "--out", str(tmp_path / "a.json"),
    ])
    assert code == 2


def test_segment_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ccsm"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    (tmp_path / "bad.ccof").write_bytes(b"")
    code = main([
        "segment", str(bad), str(tmp_path / "bad.ccof"), "--out", str(tmp_path / "o.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.ccsm" in err and "byte 0" in err


def test_track_pipeline(tmp_path):
    scene = write_scene(tmp_path, "max_speed=2\n")
    frames_dir = tmp_path / "frames"
    assert main(["synth", str(scene), "--out-dir", str(frames_dir), "--frames", "5"]) == 0
    assert main(["segment", "--batch-dir", str(frames_dir), "--min-pts", "25"]) == 0
    manifests = sorted(str(p) for p in frames_dir.glob("frame_*.json"))
    out = tmp_path / "tracks"
    assert main(["track", *manifests, "--out-dir", str(out)]) == 0
    rows = tracks_csv_loads((out / "tracks.csv").read_text())
    assert {r[0] for r in rows} == {0, 1, 2, 3, 4}
    assert (out / "metrics.csv").exists()
    assert list(out.glob("track_*_heatmap.pgm"))
    assert list(out.glob("track_*_counts.csv"))


def test_track_missing_manifest_names_index(tmp_path, capsys):
    code = main(["track", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "t")])
    assert code == 2
    assert "frame 0" in capsys.readouterr().err
    # frame 0 is tracked before frame 1 is read; still no output is written
    ok = tmp_path / "ok.json"
    ok.write_text('{"frame":0,"height":4,"instances":[],"width":4}\n')
    code = main(["track", str(ok), str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "t")])
    assert code == 2
    assert "frame 1: missing manifest" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_eval_misaligned_exit_2(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text('{"frame":0,"height":4,"instances":[],"width":4}\n')
    code = main(["eval", "--pred", str(a), "--gt", str(a), str(a)])
    assert code == 2


def test_gradcheck_cli(capsys):
    assert main(["gradcheck", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "focal" in out and "offset" in out and "pass" in out
    assert main(["gradcheck", "--n", "4", "--corrupt"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "component" in out


def test_zero_counts_are_bad_arguments(tmp_path, capsys):
    # zero cases would check nothing and print pass; zero frames would write nothing
    synth = ["synth", str(write_scene(tmp_path)), "--out-dir", str(tmp_path / "out")]
    for argv, flag in (
        (["gradcheck", "--n", "0"], "--n"),
        (["gradcheck", "--corrupt", "--n", "0"], "--n"),
        (["gradcheck", "--n", "-3"], "--n"),
        ([*synth, "--frames", "0"], "--frames"),
        ([*synth, "--frames", "-1"], "--frames"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert f"argument {flag}: expected an integer of at least 1, got '{argv[-1]}'" in captured.err, argv
        assert "pass" not in captured.out, argv
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_a_bad_argument(capsys):
    # numpy would refuse a negative seed only once the checks run, as a runtime error
    for seed in ("-1", "x"):
        assert main(["gradcheck", "--n", "1", "--seed", seed]) == 2, seed
        captured = capsys.readouterr()
        assert f"argument --seed: expected an integer of at least 0, got '{seed}'" in captured.err, seed
        assert "pass" not in captured.out, seed
    assert main(["gradcheck", "--n", "1", "--seed", "0"]) == 0


def test_eval_instances_not_a_list_exit_2_names_file(tmp_path, capsys):
    # iterating either would read as an empty frame and print mAP = 1.000
    for value in ("{}", '""'):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"frame":0,"height":3,"instances":{value},"width":3}}\n')
        assert main(["eval", "--pred", str(bad), "--gt", str(bad)]) == 2, value
        captured = capsys.readouterr()
        assert f"error: {bad}: byte 0: bad instance manifest: instances must be a list" in captured.err, value
        assert "mAP" not in captured.out, value


def test_config_file_plus_flag_overrides(tmp_path):
    cfg_path = tmp_path / "pipe.cfg"
    cfg_path.write_text("eps=2.0\nmin_pts=9\n")
    dims = GridDims(16, 16)
    sem = SemanticMap(dims, np.zeros(dims.shape, dtype=np.uint8))
    off = OffsetMap(dims, np.zeros((*dims.shape, 2), dtype=np.float32))
    write_semantic(tmp_path / "a.ccsm", sem)
    write_offsets(tmp_path / "a.ccof", off)
    code = main([
        "segment", str(tmp_path / "a.ccsm"), str(tmp_path / "a.ccof"),
        "--out", str(tmp_path / "o.json"), "--config", str(cfg_path), "--eps", "3.5",
    ])
    assert code == 0


def test_unknown_config_key_exit_2(tmp_path):
    cfg_path = tmp_path / "pipe.cfg"
    cfg_path.write_text("epz=2.0\n")
    dims = GridDims(16, 16)
    write_semantic(tmp_path / "a.ccsm", SemanticMap(dims, np.zeros(dims.shape, dtype=np.uint8)))
    write_offsets(tmp_path / "a.ccof", OffsetMap(dims, np.zeros((*dims.shape, 2), dtype=np.float32)))
    code = main([
        "segment", str(tmp_path / "a.ccsm"), str(tmp_path / "a.ccof"),
        "--out", str(tmp_path / "o.json"), "--config", str(cfg_path),
    ])
    assert code == 2


def test_repeated_config_key_exit_2_names_file_and_offset(tmp_path, capsys):
    cfg_path = tmp_path / "pipe.cfg"
    cfg_path.write_text("eps=1\nmin_pts=9\neps=3\n")
    segment = ["segment", str(tmp_path / "a.ccsm"), str(tmp_path / "a.ccof"), "--out", str(tmp_path / "o.json")]
    assert main([*segment, "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: byte 16: repeated config key: eps\n"


@pytest.mark.parametrize("line", ["ms_max_iter=300", "shift_tol=0.001", "merge_radius=1"])
def test_removed_config_keys_exit_2(tmp_path, capsys, line):
    cfg_path = tmp_path / "pipe.cfg"
    cfg_path.write_text(f"eps=2.5\n{line}\n")
    segment = ["segment", str(tmp_path / "a.ccsm"), str(tmp_path / "a.ccof"), "--out", str(tmp_path / "o.json")]
    assert main([*segment, "--config", str(cfg_path)]) == 2
    key = line.split("=")[0]
    assert f"error: {cfg_path}: byte 0: unknown config keys: {key}" in capsys.readouterr().err


def test_naive_dbscan_is_not_a_backend(tmp_path, capsys):
    segment = ["segment", str(tmp_path / "a.ccsm"), str(tmp_path / "a.ccof"), "--out", str(tmp_path / "o.json")]
    assert main([*segment, "--algo", "dbscan-naive"]) == 2
    assert "argument --algo: invalid choice: 'dbscan-naive'" in capsys.readouterr().err
    cfg_path = tmp_path / "pipe.cfg"
    cfg_path.write_text("algo=dbscan-naive\n")
    assert main([*segment, "--config", str(cfg_path)]) == 2
    assert f"error: {cfg_path}: byte 0: algo must be one of ('dbscan', 'mean-shift')" in capsys.readouterr().err


def test_eval_grid_mismatch_names_frame_and_files(tmp_path, capsys):
    def manifest(path, width, height):
        rle = [0, 8] + [width * height - 8]  # one 8-pixel instance at the start
        path.write_text(
            f'{{"frame":0,"height":{height},"instances":[{{"class":"piglet",'
            f'"predicted_center":[1.0,0.5],"rle":{rle},"score":0.9}}],"width":{width}}}\n'
        )
        return str(path)

    ok = manifest(tmp_path / "ok.json", 8, 4)
    pred = manifest(tmp_path / "pred.json", 8, 4)
    gt = manifest(tmp_path / "gt.json", 4, 8)
    code = main(["eval", "--pred", ok, pred, "--gt", ok, gt])
    assert code == 2
    captured = capsys.readouterr()
    assert "frame 1" in captured.err
    assert "pred.json" in captured.err and "gt.json" in captured.err
    assert "mAP" not in captured.out


def test_bad_config_value_exit_2_names_file_and_offset(tmp_path, capsys):
    for line in ("min_pts=abc", "eps=wide", "rc2m=maybe"):
        cfg_path = tmp_path / "pipe.cfg"
        # CRLF lines and a two-byte character: the offset counts bytes
        cfg_path.write_bytes(f"# réglé\r\neps=2.0\r\n{line}\r\n".encode())
        code = main([
            "segment", str(tmp_path / "a.ccsm"), str(tmp_path / "a.ccof"),
            "--out", str(tmp_path / "o.json"), "--config", str(cfg_path),
        ])
        assert code == 2, line
        assert f"{cfg_path}: byte 20:" in capsys.readouterr().err, line


def test_bad_scene_value_exit_2_names_file_and_offset(tmp_path, capsys):
    scene = tmp_path / "scene.cfg"
    scene.write_text("width=10\nheight=x\nn_piglets=1\n")
    assert main(["synth", str(scene), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{scene}: byte 9:" in capsys.readouterr().err


def test_batch_names_the_failing_frame(tmp_path, capsys):
    for name, off_dims in (("a", GridDims(16, 16)), ("b", GridDims(17, 16))):
        sem_dims = GridDims(16, 16)
        write_semantic(tmp_path / f"{name}.ccsm", SemanticMap(sem_dims, np.zeros(sem_dims.shape, dtype=np.uint8)))
        write_offsets(tmp_path / f"{name}.ccof", OffsetMap(off_dims, np.zeros((*off_dims.shape, 2), dtype=np.float32)))
    code = main(["segment", "--batch-dir", str(tmp_path), "--jobs", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'b.ccsm'}: " in err
    assert "a.ccsm" not in err
    # frame a succeeded, but a failing batch publishes none of its manifests
    assert not (tmp_path / "a.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ccof", "a.ccsm", "b.ccof", "b.ccsm"]


def test_batch_runs_frames_in_order_on_the_main_thread_until_one_fails(tmp_path, capsys, monkeypatch):
    sem_dims = GridDims(16, 16)
    for name, off_dims in (("a", sem_dims), ("b", GridDims(17, 16)), ("c", sem_dims)):
        write_semantic(tmp_path / f"{name}.ccsm", SemanticMap(sem_dims, np.zeros(sem_dims.shape, dtype=np.uint8)))
        write_offsets(tmp_path / f"{name}.ccof", OffsetMap(off_dims, np.zeros((*off_dims.shape, 2), dtype=np.float32)))
    segment_frame = cli.segment_frame
    threads = []

    def recorded(semantic, offsets, cfg):
        threads.append(threading.get_ident())
        return segment_frame(semantic, offsets, cfg)

    monkeypatch.setattr(cli, "segment_frame", recorded)
    assert main(["segment", "--batch-dir", str(tmp_path), "--jobs", "2"]) == 2
    assert f"{tmp_path / 'b.ccsm'}: " in capsys.readouterr().err
    # a ran, b failed and c was never reached: --jobs starts no worker
    assert threads == [threading.main_thread().ident] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ccof", "a.ccsm", "b.ccof", "b.ccsm", "c.ccof", "c.ccsm"]


def test_batch_out_of_memory_exit_1_names_the_frame(tmp_path, capsys, monkeypatch):
    dims = GridDims(16, 16)
    for name in ("a", "b"):
        write_semantic(tmp_path / f"{name}.ccsm", SemanticMap(dims, np.zeros(dims.shape, dtype=np.uint8)))
        write_offsets(tmp_path / f"{name}.ccof", OffsetMap(dims, np.zeros((*dims.shape, 2), dtype=np.float32)))
    segment_frame = cli.segment_frame
    calls = []

    def short_of_memory(semantic, offsets, cfg):  # the first frame fails, so the second is never reached
        calls.append(semantic)
        if len(calls) == 1:
            raise MemoryError()
        return segment_frame(semantic, offsets, cfg)

    monkeypatch.setattr(cli, "segment_frame", short_of_memory)
    assert main(["segment", "--batch-dir", str(tmp_path), "--jobs", "1"]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'a.ccsm'}: out of memory\n"
    assert len(calls) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ccof", "a.ccsm", "b.ccof", "b.ccsm"]

    def unable(semantic, offsets, cfg):  # numpy's message follows the path
        raise MemoryError("Unable to allocate 9.31 GiB")

    monkeypatch.setattr(cli, "segment_frame", unable)
    assert main(["segment", "--batch-dir", str(tmp_path), "--jobs", "2"]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'a.ccsm'}: Unable to allocate 9.31 GiB\n"


def test_unplaceable_scene_exit_1_names_file(tmp_path, capsys):
    scene = tmp_path / "tiny.cfg"
    scene.write_text("width=64\nheight=48\nn_piglets=2\n")  # the default sow does not fit
    assert main(["synth", str(scene), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scene}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # the scene is placed before any frame is written


def test_synth_memory_does_not_grow_with_frames(tmp_path, capsys):
    # each frame is written before the next is made: 12 frames peak like 2
    scene = tmp_path / "scene.cfg"
    scene.write_text("width=320\nheight=240\nn_piglets=5\nseed=3\nsow=off\nmax_speed=2\noffset_sigma=1\n")
    assert main(["synth", str(scene), "--out-dir", str(tmp_path / "warm"), "--frames", "2"]) == 0
    peaks = {}
    for frames in (2, 12):
        tracemalloc.start()
        try:
            assert main(["synth", str(scene), "--out-dir", str(tmp_path / str(frames)), "--frames", str(frames)]) == 0
            peaks[frames] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(list((tmp_path / "12").glob("frame_*.ccof"))) == 12
    assert peaks[12] < 1.2 * peaks[2], peaks


def test_missing_input_file_exit_2_names_it(tmp_path, capsys):
    # a missing input is a bad argument, like a missing manifest to track
    dims = GridDims(16, 16)
    sem, off = tmp_path / "a.ccsm", tmp_path / "a.ccof"
    write_semantic(sem, SemanticMap(dims, np.zeros(dims.shape, dtype=np.uint8)))
    write_offsets(off, OffsetMap(dims, np.zeros((*dims.shape, 2), dtype=np.float32)))
    good = tmp_path / "good.json"
    good.write_text('{"frame":0,"height":3,"instances":[],"width":3}\n')
    missing, out = tmp_path / "missing", tmp_path / "out"
    for argv in (
        ["eval", "--pred", missing, "--gt", good],
        ["eval", "--pred", good, "--gt", missing],
        ["segment", missing, off, "--out", out],
        ["segment", sem, missing, "--out", out],
        ["segment", sem, off, "--out", out, "--config", missing],
        ["track", good, "--out-dir", out, "--config", missing],
        ["synth", missing, "--out-dir", out],
    ):
        assert main([str(a) for a in argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {missing}: "), argv
        assert "Traceback" not in captured.err and "mAP" not in captured.out, argv
    assert not out.exists()


def test_nan_config_values_fail_before_any_frame_is_read(tmp_path, capsys):
    # the maps do not exist: a bound checked only later would fail on them
    segment = ["segment", str(tmp_path / "a.ccsm"), str(tmp_path / "a.ccof"), "--out", str(tmp_path / "o.json")]
    track = ["track", str(tmp_path / "a.json"), "--out-dir", str(tmp_path / "t")]
    for argv, flag in (
        (segment, "--eps"), (segment, "--t"), (segment, "--bandwidth"), (track, "--fps"), (track, "--min-iou"),
    ):
        for value in ("nan", "-1"):
            assert main([*argv, flag, value]) == 2, (flag, value)
            name = flag[2:].replace("-", "_")
            assert f"error: {name} must be " in capsys.readouterr().err, (flag, value)
    for key in ("eps", "t", "bandwidth"):
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text(f"{key}=nan\n")
        assert main([*segment, "--config", str(cfg_path)]) == 2, key
        assert f"{cfg_path}: byte 0: {key} must be > 0" in capsys.readouterr().err, key


def test_segment_mean_shift_then_eval(tmp_path, capsys):
    # offset noise leaves votes that DBSCAN calls noise and mean-shift groups, so the backends differ
    frames = tmp_path / "frames"
    assert main(["synth", str(write_scene(tmp_path, "offset_sigma=3\n")), "--out-dir", str(frames)]) == 0
    sem, off, out = frames / "frame_0000.ccsm", frames / "frame_0000.ccof", tmp_path / "ms.json"
    flags = ["--algo", "mean-shift", "--bandwidth", "6", "--min-neighbors", "5"]
    assert main(["segment", str(sem), str(off), "--out", str(out), *flags]) == 0
    assert main(["eval", "--pred", str(out), "--gt", str(frames / "gt_0000.json")]) == 0
    assert "mAP = " in capsys.readouterr().out
    cfg = PipelineConfig(algo="mean-shift", bandwidth=6.0, min_neighbors=5)
    semantic, offsets = read_semantic(sem), read_offsets(off)
    result = segment_frame(semantic, offsets, cfg)
    assert sum(1 for i in result.instances if i.cls == "piglet") == 4
    assert result.instances != segment_frame(semantic, offsets, PipelineConfig(min_neighbors=5)).instances
    assert out.read_text() == manifest_dumps(0, semantic.dims, result.instances)


def test_rc2m_flag_matches_config_file(tmp_path, capsys):
    # offset noise leaves votes for rc2m to reassign, so on and off differ
    scene = write_scene(tmp_path, "offset_sigma=3\n")
    frames = tmp_path / "frames"
    assert main(["synth", str(scene), "--out-dir", str(frames)]) == 0
    cfg_path = tmp_path / "pipe.cfg"
    cfg_path.write_text("rc2m=off\n")
    segment = ["segment", str(frames / "frame_0000.ccsm"), str(frames / "frame_0000.ccof"), "--min-pts", "25"]
    outs = {}
    for name, extra in (
        ("default", []),
        ("file_off", ["--config", str(cfg_path)]),
        ("flag_off", ["--rc2m", "off"]),
        ("flag_true", ["--config", str(cfg_path), "--rc2m", "true"]),
    ):
        out = tmp_path / f"{name}.json"
        assert main([*segment, "--out", str(out), *extra]) == 0, name
        outs[name] = out.read_bytes()
    assert outs["flag_off"] == outs["file_off"]
    assert outs["flag_true"] == outs["default"]
    assert outs["flag_off"] != outs["default"]
    assert main([*segment, "--out", str(tmp_path / "bad.json"), "--rc2m", "maybe"]) == 2
    err = capsys.readouterr().err
    assert "--rc2m" in err and "expected on, off, true, false, 1 or 0, got 'maybe'" in err


def test_bad_arguments_return_2_and_help_returns_0(tmp_path, capsys):
    manifest = str(tmp_path / "a.json")
    batch = ["segment", "--batch-dir", str(tmp_path)]
    evaluate = ["eval", "--pred", manifest, "--gt", manifest]
    for argv in (
        [*batch, "--jobs", "0"],
        [*batch, "--jobs", "-5"],
        [*batch, "--jobs", "two"],
        [*evaluate, "--jobs", "0"],
        ["bench"],
        ["track", manifest, "--out-dir", str(tmp_path / "t"), "--eps", "1"],
        ["segment", "a.ccsm", "a.ccof", "--out", manifest, "--fps", "7"],
        ["segment", "a.ccsm", "a.ccof", "--out", manifest, "--seed", "1"],
        ["segment", "a.ccsm", "a.ccof", "--out", manifest, "--eps", "wide"],
        [*batch, "--out", manifest],
        [*batch, "--frame-id", "0"],
        [*batch, "a.ccsm", "a.ccof"],
    ):
        assert main(argv) == 2, argv
        assert "error: " in capsys.readouterr().err, argv
    assert main([*evaluate, "--jobs", "0"]) == 2
    assert "argument --jobs: expected an integer of at least 1, got '0'" in capsys.readouterr().err
    assert main(["segment", "--help"]) == 0
    assert "--min-pts" in capsys.readouterr().out
    (tmp_path / "a.json").write_text(
        '{"frame":0,"height":3,"instances":[{"class":"piglet","predicted_center":[1.0,1.0],'
        '"rle":[4,5],"score":0.9}],"width":3}\n'
    )
    assert main([*evaluate, "--jobs", "2"]) == 0
    assert "mAP = 1.000" in capsys.readouterr().out


def test_eval_bad_run_length_exit_2_names_file(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"frame":0,"height":3,"instances":[],"width":3}\n')
    for rle in ('["4","5"]', "[true,8]", "[4.5,5.5]", f"[0,{2**70}]"):
        bad = tmp_path / "bad.json"
        bad.write_text(
            f'{{"frame":0,"height":3,"instances":[{{"class":"piglet","predicted_center":[1.0,1.0],'
            f'"rle":{rle},"score":0.9}}],"width":3}}\n'
        )
        assert main(["eval", "--pred", str(bad), "--gt", str(good)]) == 2, rle
        captured = capsys.readouterr()
        assert f"error: {bad}: byte 0: bad instance manifest: run length" in captured.err, rle
        assert "mAP" not in captured.out


@pytest.mark.parametrize("kind", ["manifest", "config", "scene"])
def test_non_utf8_file_exit_2_names_file_and_offset(tmp_path, capsys, kind):
    good = tmp_path / "good.json"
    good.write_text('{"frame":0,"height":3,"instances":[],"width":3}\n')
    bad = tmp_path / "bad"
    if kind == "manifest":
        bad.write_bytes(b'{"frame":0,"height":3,"instances":[],"width":3\xff}\n')
        argv, offset = ["eval", "--pred", str(bad), "--gt", str(good)], 46
    elif kind == "config":
        bad.write_bytes(b"eps=2\xff\n")
        argv, offset = ["track", str(good), "--out-dir", str(tmp_path / "t"), "--config", str(bad)], 5
    else:
        bad.write_bytes(b"width=10\nheight=10\nn_piglets=1\xff\n")
        argv, offset = ["synth", str(bad), "--out-dir", str(tmp_path / "s")], 30
    assert main(argv) == 2
    assert f"error: {bad}: byte {offset}: not UTF-8: invalid start byte" in capsys.readouterr().err


def test_eval_oversized_header_exit_2_names_file(tmp_path, run_capped):
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"frame":0,"height":100000,"instances":[{"class":"piglet","predicted_center":[1.0,1.0],'
        '"rle":[0,10000000000],"score":0.9}],"width":100000}\n'
    )
    args = ["eval", "--pred", str(huge), "--gt", str(huge)]
    done = run_capped(f"import sys\nfrom centerseg.cli import main\nsys.exit(main({args!r}))\n")
    assert done.returncode == 2, done.stderr
    assert f"error: {huge}: byte 0: 100000x100000 exceeds" in done.stderr


def test_oversized_scene_exit_2_names_file(tmp_path, run_capped):
    # 100000 x 100000 would rasterise 9.31 GiB boolean frames; the capped child would fail on them
    scene = tmp_path / "huge.cfg"
    scene.write_text("width=100000\nheight=100000\nn_piglets=1\n")
    out = tmp_path / "frames"
    args = ["synth", str(scene), "--out-dir", str(out)]
    done = run_capped(f"import sys\nfrom centerseg.cli import main\nsys.exit(main({args!r}))\n")
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"error: {scene}: byte 0: 100000x100000 exceeds the 67108864-pixel limit\n"
    assert not out.exists()


SCENE_FLOAT_KEYS = (
    "sow_half_length", "sow_radius", "piglet_a_min", "piglet_a_max", "piglet_b_min", "piglet_b_max",
    "occluder_width_min", "occluder_width_max", "max_speed", "min_center_separation", "flip_rate", "offset_sigma",
)


def test_non_finite_scene_values_exit_2_names_file(tmp_path, capsys):
    base = dict(line.split("=") for line in SCENE.split())
    for sow in ("on", "off"):
        for key in SCENE_FLOAT_KEYS:
            for value in ("nan", "inf"):
                scene = tmp_path / "scene.cfg"  # each key once: a repeated key is an error of its own
                scene.write_text("".join(f"{k}={v}\n" for k, v in {**base, "sow": sow, key: value}.items()))
                out = tmp_path / "frames"
                assert main(["synth", str(scene), "--out-dir", str(out)]) == 2, (sow, key, value)
                assert f"error: {scene}: byte 0: {key} must" in capsys.readouterr().err, (sow, key, value)
                assert not out.exists()


def test_track_failed_write_publishes_nothing_and_leaves_no_temporary_file(tmp_path, capsys):
    scene = write_scene(tmp_path, "max_speed=2\n")
    frames = tmp_path / "frames"
    assert main(["synth", str(scene), "--out-dir", str(frames), "--frames", "2"]) == 0
    manifests = sorted(str(p) for p in frames.glob("gt_*.json"))
    out = tmp_path / "tracks"
    assert main(["track", *manifests, "--out-dir", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir())
    assert "track_001_counts.csv" in written and not any(n.endswith(".tmp") for n in written)

    # a directory in the way of one temporary file: that write fails, so no output is published
    fresh = tmp_path / "fresh"
    (fresh / "track_001_counts.csv.tmp").mkdir(parents=True)
    assert main(["track", *manifests, "--out-dir", str(fresh)]) == 1
    assert "track_001_counts.csv.tmp" in capsys.readouterr().err
    assert [p.name for p in fresh.iterdir()] == ["track_001_counts.csv.tmp"]

    # a directory in the way of one output: its rename fails, and no temporary file is left
    (out / "metrics.csv").unlink()
    (out / "metrics.csv").mkdir()
    assert main(["track", *manifests, "--out-dir", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == written
    assert (out / "metrics.csv").is_dir()


def test_successive_commands_parse_independently(tmp_path, capsys):
    # one parser serves every main call; no flag of one command reaches the next
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "frames"
    assert main(["synth", str(write_scene(tmp_path)), "--out-dir", str(out), "--frames", "1"]) == 0
    assert main(["segment", "--batch-dir", str(out), "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert main(["segment", "--batch-dir", str(out), "--min-pts", "100000"]) == 0
    no_piglets = (out / "frame_0000.json").read_text()
    assert main(["eval", "--pred", str(out / "frame_0000.json"), "--gt", str(out / "gt_0000.json")]) == 0
    assert main(["gradcheck", "--n", "0"]) == 2
    assert main(["segment", "--batch-dir", str(out)]) == 0
    expected = segment_frame(read_semantic(out / "frame_0000.ccsm"), read_offsets(out / "frame_0000.ccof"))
    # the defaults, not the earlier --min-pts
    assert (out / "frame_0000.json").read_text() == manifest_dumps(0, GridDims(128, 96), expected.instances) != no_piglets
    args = cli.build_parser().parse_args(["segment", "--batch-dir", str(out)])
    assert (args.command, args.rc2m, args.min_pts, args.jobs) == ("segment", None, None, None)


def write_blank_pair(directory, name, dims, offsets=True):
    """A piglet-free ``<name>.ccsm`` and, unless ``offsets`` is false, its ``<name>.ccof``."""
    write_semantic(directory / f"{name}.ccsm", SemanticMap(dims, np.zeros(dims.shape, dtype=np.uint8)))
    if offsets:
        write_offsets(directory / f"{name}.ccof", OffsetMap(dims, np.zeros((*dims.shape, 2), dtype=np.float32)))


STAGES = ["assemble", "cluster", "filter", "generate", "reassign", "sow", "total"]


def test_segment_timings_single_frame_and_batch(tmp_path, monkeypatch):
    # frames of distinct sizes, made out of name order
    batch = tmp_path / "batch"
    batch.mkdir()
    for name, width in (("c", 9), ("a", 7), ("b", 8)):
        write_blank_pair(batch, name, GridDims(width, 5))
    one = tmp_path / "one.json"
    segment = ["segment", str(batch / "a.ccsm"), str(batch / "a.ccof"), "--out", str(tmp_path / "o.json")]
    assert main([*segment, "--timings", str(one)]) == 0
    timing = json.loads(one.read_text())
    assert sorted(timing) == STAGES and all(v >= 0 for v in timing.values())

    real = cli.segment_frame
    calls = []

    def recorded(semantic, offsets, cfg):
        result = real(semantic, offsets, cfg)
        calls.append((semantic.dims.width, result.timings))
        return result

    monkeypatch.setattr(cli, "segment_frame", recorded)
    listed = tmp_path / "batch.json"
    assert main(["segment", "--batch-dir", str(batch), "--timings", str(listed)]) == 0
    # one object per frame, in name order
    assert [width for width, _ in calls] == [7, 8, 9]
    assert json.loads(listed.read_text()) == [t for _, t in calls]
    assert all(sorted(t) == STAGES for _, t in calls)


def assert_exit_2(capsys, argv, message):
    assert main([str(a) for a in argv]) == 2, argv
    assert capsys.readouterr().err == f"error: {message}\n", argv


def test_segment_without_frames_or_out_exit_2_publishes_nothing(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "a.ccof").write_bytes(b"")
    assert_exit_2(capsys, ["segment", "--batch-dir", empty], f"no .ccsm files in {empty}")
    assert [p.name for p in empty.iterdir()] == ["a.ccof"]

    # b has no offset map, so the batch fails before frame a is segmented
    batch = tmp_path / "batch"
    batch.mkdir()
    write_blank_pair(batch, "a", GridDims(8, 6))
    write_blank_pair(batch, "b", GridDims(8, 6), offsets=False)
    assert_exit_2(capsys, ["segment", "--batch-dir", batch], f"missing offset file for {batch / 'b.ccsm'}")
    assert sorted(p.name for p in batch.iterdir()) == ["a.ccof", "a.ccsm", "b.ccsm"]

    need = "segment needs SEMANTIC OFFSETS --out OUT (or --batch-dir)"
    assert_exit_2(capsys, ["segment", batch / "a.ccsm", batch / "a.ccof"], need)
    assert sorted(p.name for p in batch.iterdir()) == ["a.ccof", "a.ccsm", "b.ccsm"]


def test_track_manifests_of_two_sizes_exit_2(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"frame":0,"height":4,"instances":[],"width":4}\n')
    b.write_text('{"frame":1,"height":4,"instances":[],"width":5}\n')
    assert_exit_2(capsys, ["track", a, b, "--out-dir", tmp_path / "t"], "frame 1 is 5x4, expected 4x4")
    assert not (tmp_path / "t").exists()


def test_config_line_without_equals_exit_2_names_its_offset(tmp_path, capsys):
    cfg_path = tmp_path / "pipe.cfg"
    cfg_path.write_text("eps=2\nmin_pts 9\n")
    segment = ["segment", tmp_path / "a.ccsm", tmp_path / "a.ccof", "--out", tmp_path / "o.json"]
    assert_exit_2(capsys, [*segment, "--config", cfg_path], f"{cfg_path}: byte 6: expected key=value, got 'min_pts 9'")


def test_manifest_ending_inside_a_run_list_exit_2_names_its_offset(tmp_path, capsys):
    text = '{"frame":0,"height":3,"instances":[{"class":"piglet","predicted_center":[1.0,1.0],"rle":[4,5'
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["eval", "--pred", str(bad), "--gt", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: byte {len(text)}: bad instance manifest: ")
    assert "mAP" not in captured.out


def test_eval_warns_of_detections_against_an_empty_ground_truth(tmp_path, capsys):
    gt, pred = tmp_path / "gt.json", tmp_path / "pred.json"
    gt.write_text('{"frame":0,"height":3,"instances":[],"width":3}\n')
    pred.write_text(
        '{"frame":0,"height":3,"instances":[{"class":"piglet","predicted_center":[1.0,1.0],'
        '"rle":[4,5],"score":0.9}],"width":3}\n'
    )
    with pytest.warns(UserWarning, match="no ground-truth instances"):
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "mAP = 0.000\n"
    assert captured.err == "warning: detections against an empty ground truth\n"
    with pytest.warns(UserWarning, match="no ground-truth instances"):  # nothing to find, nothing found
        assert main(["eval", "--pred", str(gt), "--gt", str(gt)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "mAP = 1.000\n" and captured.err == ""
