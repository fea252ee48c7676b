"""``tools/run_hashes.py --check`` refuses a file it cannot check.

Every case exits before a round runs, so the tests stay fast.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HASH = "0" * 64


@pytest.mark.parametrize(
    "text",
    [
        None,
        "",
        "\n",
        f"tdtsp-ensemble 1 {HASH}\ntdtsp-ensemble 1\n",
        f"tdtsp-ensemble one {HASH}\n",
        f"no-such-workload 1 {HASH}\n",
        f"tdtsp-ensemble 1 {HASH} ok\n",
    ],
    ids=["missing", "empty", "blank-line", "short-line", "bad-seed", "bad-workload",
         "long-line"],
)
def test_check_refuses_a_file_without_checkable_lines(text, tmp_path):
    hashes = tmp_path / "hashes.txt"
    if text is not None:
        hashes.write_text(text)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "run_hashes.py"), "--check", str(hashes)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "error:" in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""
