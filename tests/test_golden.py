"""Golden outputs of ``track --out-dir`` and ``eval`` on a seeded sequence.

The digests below were generated by this module's ``golden_digests`` at
the commit before the bounding-box mask kernels (cropped IoU, occupancy
and counts-CSV writer), so they pin that those kernels changed no byte.
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


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def golden_digests(root: Path, jobs: str = "1") -> dict[str, str]:
    """SHA-256 of every ``track`` output file and of the ``eval`` stdout,
    segmenting the frames on ``jobs`` worker threads."""
    scene = root / "scene.cfg"
    scene.write_text(SCENE)
    frames = root / "frames"
    _run(["synth", str(scene), "--out-dir", str(frames), "--frames", "8"])
    _run(["segment", "--batch-dir", str(frames), "--min-pts", "25", "--jobs", jobs])
    preds = sorted(str(p) for p in frames.glob("frame_*.json"))
    gts = sorted(str(p) for p in frames.glob("gt_*.json"))
    shown = _run(["eval", "--pred", *preds, "--gt", *gts])
    out = root / "tracks"
    _run(["track", *preds, "--out-dir", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    digests["eval.stdout"] = hashlib.sha256(shown.encode()).hexdigest()
    return digests


def test_track_and_eval_outputs_match_golden(tmp_path):
    assert golden_digests(tmp_path) == GOLDEN


def test_thread_pool_outputs_match_golden(tmp_path):
    assert golden_digests(tmp_path, jobs="2") == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in golden_digests(Path(tmp)).items():
            print(f"    {name!r}: {digest!r},")
