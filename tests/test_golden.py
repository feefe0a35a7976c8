"""Golden outputs of ``segment``, ``track --out-dir`` and ``eval`` on seeded sequences.

``GOLDEN`` pins a desk-scale sequence through ``track`` and ``eval``. Its
digests were generated by ``golden_digests`` at the commit before the
bounding-box mask kernels (cropped IoU, occupancy and counts-CSV
writer), so they pin that those kernels changed no byte.

``FULLRES_GOLDEN`` pins two 1280x720 frames at the production settings
``t=20 eps=2.5 min_pts=50``: the ground-truth manifests, and for each
vote filter with rc2m on and off the ``segment`` manifests, the ``eval``
stdout and the ``track`` outputs. Its digests were generated by
``fullres_digests`` at the commit before the numpy manifest codec, so
they pin that the codec changed no byte.

Regenerate them with ``PYTHONPATH=src python tests/test_golden.py`` only
for a change that is meant to alter the outputs.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from centerseg.cli import main

SCENE = """
width=192
height=144
n_piglets=8
seed=11
sow=on
n_random_occluders=2
max_speed=3
flip_rate=0.02
offset_sigma=1.5
"""

# 12 piglets of the paper's size and a sow on a 1280x720 frame
FULLRES_SCENE = """
width=1280
height=720
n_piglets=12
seed=5
sow=on
sow_half_length=150
sow_radius=70
sow_min_visible_area=6000
piglet_a_min=60
piglet_a_max=80
piglet_b_min=35
piglet_b_max=45
n_random_occluders=2
occluder_width_min=10
occluder_width_max=20
max_speed=4
min_visible_area=3000
min_center_separation=160
flip_rate=0.02
offset_sigma=1.5
"""

FULLRES_CONFIGS = [(f, rc2m) for f in ("density", "offset-magnitude") for rc2m in ("on", "off")]

GOLDEN = {
    'metrics.csv': '8ecb973d83e2c1b13a26543e8a80170284450b89d0772963a1d7824cb00792e5',
    'track_000_counts.csv': 'd576094615ec97bb42ed530daf4b8d6bc9140f7da01092eb0cece7b5de5ca389',
    'track_000_heatmap.pgm': '8f1ce8aefabcfe51c0189f06eb25e79d2f4ee13be42010d98ddc3fb659b25d4d',
    'track_001_counts.csv': 'fd22408ae921c2e03174281487d26cecf7631af095b839aa2832b8577ca6ddf6',
    'track_001_heatmap.pgm': 'eaebc69fa6844d733326246ec3b3c928364d06717a12da6d4c7a7c4193a6b92f',
    'track_002_counts.csv': 'b6ec502ad78c0b42829c0556f054a1054b3def62a9ac9793f06eb7a5f3aa9ab1',
    'track_002_heatmap.pgm': '0dedaa83c51913c07b639c53d70a11a1fadbcaebf70e06401d49383cd4ae001b',
    'track_003_counts.csv': '6ec9feb4449e6d3966b60c1a00e29c92959a67dcf71e9394fd3f58ef2404825b',
    'track_003_heatmap.pgm': 'e490e9700cf6e97132f729d09d3f764570a9c50224e950b1004f5e1c1e91b8e0',
    'track_004_counts.csv': '8c1afef2611b5c93675716f3f4130897d2bc4b3865f2c6fc447f086ea26dac14',
    'track_004_heatmap.pgm': '3d54e0ec33bcec28b4ab61d74414a576190a0c427bbae4b1b5122560a689851d',
    'track_005_counts.csv': '7a7b0a079913cce2e2d212826db0fbfd5f407b7c257cb124b94a19db4f23ccca',
    'track_005_heatmap.pgm': '60637afb8c3cd90147837d152843ca47ed4e0d7f78df77bf806f440b300b1137',
    'track_006_counts.csv': '148d324096487b4a79aab9f4fdef8608722e469d4b3b26d19fc6d8908ca02c00',
    'track_006_heatmap.pgm': 'ab73426e1fd05663cf3ba2c7e91bcef462f2740bbe4eaeedeb6e3788f1775300',
    'track_007_counts.csv': '668f0b15c342ebfb43f1666c7e80207f1c0816b74784271c7ab31f75344eea29',
    'track_007_heatmap.pgm': 'fcee7f1d2eb4d7aa154a0265ada063d1cfd992d5905698a4a4ff6648ea18458d',
    'track_008_counts.csv': 'ef78232eb8484b18b31ca5a14f87e0be04b0dc431112cf00dc2ccd8f354f58da',
    'track_008_heatmap.pgm': '5b2a2d3ec77f2e802a77d10baffd3b9bb19641a92b7877291c441011d7230579',
    'tracks.csv': '598b24a96df01986d8e59c64b8a1272b75b901ca22cafd0c0afc47fdfbc339fd',
    'eval.stdout': '4b6c657aa8683ab616e3c9295272dabec42420c33c58db01ca6c573d77609e51',
}


FULLRES_GOLDEN = {
    'gt_0000.json': 'b36e6348d3d200f90f9198079f6ffef59588b65964e1b30e1af5496ba845ac3e',
    'gt_0001.json': '8c263fd1d1cb937b85007ab42670acf30b4c461a9b93ed3dfc8df0c01e925634',
    'density-rc2m-on_0000.json': '466f3eb342f7995ad19939ca1975da2f83b4fdd6126fe7ae6bdb338b45aa8334',
    'density-rc2m-on_0001.json': '256a9a9ebfdd9818757101f57b0dc6d3c2c51b5e0e53f2968ee00954cff96c40',
    'density-rc2m-on_eval.stdout': 'afa118d404ccb4b2409365dbbe01577ef6e4273cb3936351807aca8a8cad14c2',
    'density-rc2m-on_tracks': 'cb45a6cdd698fd9f6e147347fb8cc2c2d2c17c351217e8d06ff407fafdef6c7a',
    'density-rc2m-off_0000.json': 'b8a06d5234331f6a3d038dc3b6fa34384f6fcc30192ea94fc9474da328e1cd77',
    'density-rc2m-off_0001.json': '782500798205f3b2ffc19d04d00cbe3754898845cb28055e90d2b6acddbcd914',
    'density-rc2m-off_eval.stdout': 'd7a5cbcd2df6d42047ac0fef55a439dabe5298f31c582d6a2c3c7d06f14db771',
    'density-rc2m-off_tracks': 'a0bad640e635eb72be681fe0067b125b4de5641454d76d080689c288698b6dbe',
    'offset-magnitude-rc2m-on_0000.json': '64cd79e52874fdc58e666cdc38c627441fa8ead04909286f38a66af9b0b26e41',
    'offset-magnitude-rc2m-on_0001.json': '1f1f45f78c326a7480549351ca456eee9b6d17dfacfcb0d961deda996984c4bb',
    'offset-magnitude-rc2m-on_eval.stdout': '0951fa172346423cc9900d3356ceba5c2ac6af81c100999642f12b3ad2b0dffb',
    'offset-magnitude-rc2m-on_tracks': '9835a313c5cbaaa38ade6cdfdf7d82e4dd989a6c936da76c2a48762f8435e32a',
    'offset-magnitude-rc2m-off_0000.json': '0d1718dabe5d96cf28c090d9ece5963a43b3ccd682eff3206aa8fa30cd758944',
    'offset-magnitude-rc2m-off_0001.json': 'dbb68187bd9c10247f2393eab04ab841790a88ab8dd092e8acf7c1c5f3da998c',
    'offset-magnitude-rc2m-off_eval.stdout': '0c1e8bad35629d594587a8288402bac0c3345fd1a604c31d7331a105ea66a326',
    'offset-magnitude-rc2m-off_tracks': 'c031a2c5db212c80fa5d8c5670d9267c1d27d66b468b3cb6307d7fea33f812e5',
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def golden_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every ``track`` output file and of the ``eval`` stdout."""
    scene = root / "scene.cfg"
    scene.write_text(SCENE)
    frames = root / "frames"
    _run(["synth", str(scene), "--out-dir", str(frames), "--frames", "8"])
    _run(["segment", "--batch-dir", str(frames), "--min-pts", "25"])
    preds = sorted(str(p) for p in frames.glob("frame_*.json"))
    gts = sorted(str(p) for p in frames.glob("gt_*.json"))
    shown = _run(["eval", "--pred", *preds, "--gt", *gts])
    out = root / "tracks"
    _run(["track", *preds, "--out-dir", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    digests["eval.stdout"] = hashlib.sha256(shown.encode()).hexdigest()
    return digests


def _dir_digest(root: Path) -> str:
    """SHA-256 over the names and bytes of every file in ``root``, in name order."""
    h = hashlib.sha256()
    for p in sorted(root.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def fullres_digests(root: Path) -> dict[str, str]:
    """SHA-256 of the full-scale ground-truth manifests and, per
    ``FULLRES_CONFIGS`` entry, of its ``segment`` manifests, ``eval``
    stdout and ``track`` outputs (one digest over the output directory)."""
    scene = root / "scene.cfg"
    scene.write_text(FULLRES_SCENE)
    frames = root / "frames"
    _run(["synth", str(scene), "--out-dir", str(frames), "--frames", "2"])
    sems = sorted(frames.glob("frame_*.ccsm"))
    gts = sorted(frames.glob("gt_*.json"))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in gts}
    for filt, rc2m in FULLRES_CONFIGS:
        name = f"{filt}-rc2m-{rc2m}"
        preds = []
        for i, sem in enumerate(sems):
            preds.append(root / f"{name}_{i:04d}.json")
            _run([
                "segment", str(sem), str(sem.with_suffix(".ccof")), "--out", str(preds[-1]), "--frame-id", str(i),
                "--t", "20", "--eps", "2.5", "--min-pts", "50", "--rc2m", rc2m, "--filter-strategy", filt,
            ])
            digests[preds[-1].name] = hashlib.sha256(preds[-1].read_bytes()).hexdigest()
        shown = _run(["eval", "--pred", *map(str, preds), "--gt", *map(str, gts)])
        digests[f"{name}_eval.stdout"] = hashlib.sha256(shown.encode()).hexdigest()
        _run(["track", *map(str, preds), "--out-dir", str(root / name)])
        digests[f"{name}_tracks"] = _dir_digest(root / name)
    return digests


def test_fullres_outputs_match_golden(tmp_path):
    assert fullres_digests(tmp_path) == FULLRES_GOLDEN


def test_track_and_eval_outputs_match_golden(tmp_path):
    assert golden_digests(tmp_path) == GOLDEN


if __name__ == "__main__":
    for label, digests in (("GOLDEN", golden_digests), ("FULLRES_GOLDEN", fullres_digests)):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"{label} = {{")
            for name, digest in digests(Path(tmp)).items():
                print(f"    {name!r}: {digest!r},")
            print("}")
