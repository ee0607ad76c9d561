"""The allocator-threshold helper: once per process, a no-op without mallopt."""

import os
import platform
import subprocess
import sys
from types import SimpleNamespace

import pytest

import repro
from repro.perf import malloc


def _libc(result=1):
    """A stand-in C library whose ``mallopt`` records its calls."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return result

    return SimpleNamespace(mallopt=mallopt), calls


@pytest.fixture
def unpinned(monkeypatch):
    monkeypatch.setattr(malloc, "_pinned", False)


def test_pins_both_thresholds_once(monkeypatch, unpinned):
    libc, calls = _libc()
    monkeypatch.setattr(malloc, "_libc", lambda: libc)
    assert malloc.pin_thresholds() is True
    assert calls == [
        (malloc.M_MMAP_THRESHOLD, 32 << 20),
        (malloc.M_TRIM_THRESHOLD, 64 << 20),
    ]
    assert malloc.pin_thresholds() is True  # idempotent: no second mallopt
    assert len(calls) == 2


def test_no_mallopt_is_a_no_op(monkeypatch, unpinned):
    monkeypatch.setattr(malloc, "_libc", lambda: object())
    assert malloc.pin_thresholds() is False
    assert malloc._pinned is False
    monkeypatch.setattr(malloc, "_libc", lambda: None)
    assert malloc.pin_thresholds() is False
    assert malloc._pinned is False


def test_rejected_mallopt_is_not_pinned(monkeypatch, unpinned):
    libc, _ = _libc(result=0)
    monkeypatch.setattr(malloc, "_libc", lambda: libc)
    assert malloc.pin_thresholds() is False
    assert malloc._pinned is False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_glibc_accepts_the_thresholds():
    assert malloc.pin_thresholds() is True
    assert malloc.pin_thresholds() is True


def test_only_an_engine_run_pins():
    """Importing the engines pins nothing (perfbench's hot_invoke and
    lease_cycle import them); the first engine run does."""
    code = (
        "import repro.experiments.scale as scale\n"
        "from repro.perf import malloc\n"
        "assert not malloc._pinned\n"
        "scale.run_scale(invocations=100, workers=8)\n"
        "print(malloc._pinned)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(platform.libc_ver()[0] == "glibc")
