"""The README's Python snippets run as written, in order, from the repo root."""

import re
import subprocess
import sys

from conftest import REPO_ROOT, src_env

PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_readme_python_snippets_run():
    blocks = PYTHON_BLOCK.findall((REPO_ROOT / "README.md").read_text(encoding="utf-8"))
    assert blocks, "README.md has no ```python blocks"
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        cwd=REPO_ROOT, env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
