"""Training and decoding give the same bits on every supported CPython.

tests/same_bits.py prints the model, decode and objective digests of
make_suite(0). Under the running interpreter its output has a pinned
sha256, which also holds the grid objectives' exact bits. It runs under each
other CPython >= 3.10 found on PATH (as python3.N) or under pyenv's versions
directory, and must print what it prints under the running interpreter.
pytest need not be installed there.
"""

import glob
import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).with_name("same_bits.py")
PROBE = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3])"
PYENV_ROOT = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
PINNED = "e221517ba70b055b06447ca0e7975c67fb3d076e033ee9bc27257e6cb8e63d4e"


def _other_interpreters() -> list[tuple[str, tuple[int, ...]]]:
    """Each other CPython >= 3.10 found, once per version."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(glob.glob(os.path.join(PYENV_ROOT, "versions", "*", "bin", "python3")))
    seen = {sys.version_info[:3]}
    found = []
    for path in filter(None, candidates):
        try:
            probe = subprocess.run([path, "-c", PROBE], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        # A pyenv shim for a version that is not selected exits 127.
        if probe.returncode != 0:
            continue
        name, *version = probe.stdout.split()
        version = tuple(map(int, version))
        if name == "CPython" and version >= (3, 10) and version not in seen:
            seen.add(version)
            found.append((path, version))
    return found


def _run(python: str) -> str:
    done = subprocess.run([python, "-I", str(SCRIPT)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def expected() -> str:
    return _run(sys.executable)


def test_training_and_decoding_give_the_pinned_bits(expected):
    # -I leaves the hash seed random, and no output depends on it.
    assert len(expected.splitlines()) == 5
    assert hashlib.sha256(expected.encode("utf-8")).hexdigest() == PINNED


def test_training_and_decoding_agree_across_interpreters(expected):
    others = _other_interpreters()
    if not others:
        pytest.skip(
            f"no CPython >= 3.10 other than {platform.python_version()} as python3.N"
            f" on PATH or in {PYENV_ROOT}/versions/*/bin/python3"
        )
    for python, version in others:
        assert _run(python) == expected, version
