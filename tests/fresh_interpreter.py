"""Snippets run in a new interpreter: its memory readings cannot be blurred
by the test process's own imports, caches and earlier tests, and settings
read once at load time (such as a forced BLAS kernel) can differ per run."""

import os
import subprocess
import sys

import metabdc


def run_snippet(snippet: str, **env: str) -> subprocess.CompletedProcess:
    """Run `snippet` in a new Python process, with `env` added to the
    environment, that imports this checkout's metabdc and these test modules."""
    path = [os.path.dirname(os.path.dirname(metabdc.__file__)), os.path.dirname(__file__), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True, text=True)


def traced_numbers(snippet: str) -> list[int]:
    """Run `snippet` in a new Python process and return the integers it
    prints: its tracemalloc readings."""
    out = run_snippet(snippet)
    out.check_returncode()
    return [int(word) for word in out.stdout.split()]
