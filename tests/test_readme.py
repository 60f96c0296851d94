import os
import re
import subprocess
import sys
from pathlib import Path

from chanest import errors

ROOT = Path(__file__).resolve().parents[1]


def test_python_examples_run():
    # each ```python block of the README, as a user would paste it
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in blocks:
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def test_status_table_names_status_classes():
    # each failure row of the README status table: `status` | `Class` | ...
    rows = re.findall(r"^\| `([a-z-]+)` \| `(\w+)` \|",
                      (ROOT / "README.md").read_text(), re.M)
    assert [status for status, _ in rows] == [
        "insufficient-data", "degenerate-fit", "numerical-failure"]
    for status, name in rows:
        assert getattr(errors, name).status == status
