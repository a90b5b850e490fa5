"""Snippets run in a new interpreter, whose memory readings the test
process's own imports, caches and earlier tests cannot blur."""

import os
import subprocess
import sys

import metabdc


def traced_numbers(snippet: str) -> list[int]:
    """Run `snippet` in a new Python process that imports this checkout's
    metabdc, and return the integers it prints: its tracemalloc readings."""
    src = os.path.dirname(os.path.dirname(metabdc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True, text=True, check=True)
    return [int(word) for word in out.stdout.split()]
