"""Smoke test: every library demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aad

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = Path(aad.__file__).resolve().parents[1]


def test_every_demo_is_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()


def test_readme_library_surface_imports():
    """Every name the README's library surface lists is importable from ``aad``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library surface"):]
    block = section[section.index("```python\n") + 10:section.index("```\n", 10)]
    assert block.lstrip().startswith("from aad import (")
    exec(compile(block, "README.md", "exec"), {})
