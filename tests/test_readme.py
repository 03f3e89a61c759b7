"""The README's examples run as written."""

import os
import re
import subprocess
import sys

import pytest

import bifurcation

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
SRC = os.path.dirname(os.path.dirname(bifurcation.__file__))


def _python_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_readme_has_python_examples():
    assert _python_blocks()


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_python_block_runs(index):
    code = _python_blocks()[index]
    exec(compile(code, "README.md python block %d" % index, "exec"), {})


def test_module_entry_point_runs_the_cli():
    # ``python -m bifurcation`` goes through __main__.py
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "bifurcation", "minimax", "--h", "3"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7\n"
