"""The gallery scripts that write no files, run as a reader runs them:
an API change breaks here rather than in the reader's hands.  Scripts
01, 02, 03, 05 and 06 write into gallery/out/ and stay out."""

import runpy
from pathlib import Path

import pytest

GALLERY = Path(__file__).resolve().parents[1] / "gallery"


@pytest.mark.parametrize("script, expect", [
    ("04_arm_and_elbow.py", "swinging the elbow 0.6 rad, hand pinned"),
    ("07_ceiling_tile_run.py", "insertion: reached"),
])
def test_gallery_script_runs(script, expect, capsys):
    runpy.run_path(str(GALLERY / script), run_name="__main__")
    assert expect in capsys.readouterr().out
