"""Smoke test of ``scripts/engine_diff.py``: two ``tiny`` cells of its
grid, this checkout against ``HEAD``, match."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "engine_diff.py"
CELLS = ("tiny/fence/dab-srr", "tiny/tiny_atomic_sum/gpudet/s2")


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, check=False)
    return probe.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_two_tiny_cells_match_head():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "HEAD", "--cells", ",".join(CELLS)],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ("2 cells against HEAD: 0 drifted, 0 failed alike on both trees"
            in proc.stdout)


def test_grid_lists_matrix_and_extra_cells():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--list"],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    names = proc.stdout.split()
    assert set(CELLS) <= set(names)
    assert len(names) == len(set(names))
