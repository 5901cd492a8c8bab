"""The suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_misspelt_marker_fails_at_collection(tmp_path):
    # Without strict markers a slow gate marked "slwo" would run in the fast suite.
    (tmp_path / "test_misspelt.py").write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_gate():\n    pass\n")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "'slwo' not found in `markers`" in done.stdout
