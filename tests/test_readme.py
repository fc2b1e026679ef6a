"""Every Python code block in README.md runs, so the library sketch cannot
drift from the API, and so does every line of its CLI examples."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python code block"
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})


def test_readme_cli_examples_run(tmp_path):
    # the bash block after "Examples:"; its lines run in order in one
    # directory, so a later line may read a file an earlier one wrote
    block = re.search(r"^Examples:\n\n```bash\n(.*?)^```", README.read_text(), re.M | re.S)
    assert block, "README.md has no CLI examples block"
    lines = block.group(1).splitlines()
    assert lines and all(line.startswith("graphquery ") for line in lines)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for line in lines:
        argv = [sys.executable, "-m", "graphquery", *shlex.split(line)[1:]]
        done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, f"{line}: {done.stderr}"
