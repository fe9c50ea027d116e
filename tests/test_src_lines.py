"""tools/src_lines.py on a sample file: docstrings, comments and blank
lines are left out of the code lines; other strings, brackets and
``else:`` count."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLE = '''"""Module docstring,
on two lines."""

import os  # code with a comment

# a comment line


def f(x):
    """One-line docstring."""
    s = """a string over
two lines is code"""
    if x:
        return s
    else:
        return (
            # a comment in brackets
            os.sep
        )
'''


def test_counts_a_sample_file(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    out = subprocess.run(
        [sys.executable, "tools/src_lines.py", str(path), str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    # per copy: 19 raw lines; import, def, the string's 2, if, return,
    # else, return (, os.sep and ) are code
    assert out.stdout.startswith("38 raw lines, 20 code lines ")
