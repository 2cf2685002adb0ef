"""The Python blocks of README.md run as written and print what they say.

The blocks share one namespace (the weight reduction example reuses the
quickstart's bundle), so they run in order as one script. Each
``print(...)  # value`` line must print the value in its comment; text
after a comma in the comment is a remark.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_print_their_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    source = "\n".join(re.findall(r"```python\n(.*?)```", readme, re.S))
    expected = [
        comment.split(",")[0].strip()
        for comment in re.findall(r"^print\(.*\)\s+# (.*)$", source, re.M)
    ]
    assert expected == ["252 4", "10", "DecodeSuccess.VERIFIED", "5", "4"]
    run = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected
