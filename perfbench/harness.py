"""Process, timing and statistics helpers shared by the workloads.

Paths are relative to the current directory, which must be the root of a
qmink checkout: the program under test is imported from its `src/`
directory, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
BENCH_DIR = Path(__file__).resolve().parent

# The `qmink` console script, without depending on an installed entry point.
QMINK = [sys.executable, "-c",
         "import sys; from qmink.cli import main; sys.exit(main())"]

CHILD_TIMEOUT_S = 120.0


class CheckoutError(RuntimeError):
    """The current directory is not a qmink checkout."""


def require_checkout():
    if not (SRC / "qmink" / "__init__.py").is_file():
        raise CheckoutError(f"no qmink sources under {SRC}; run from the root "
                            f"of a qmink checkout")
    OUT.mkdir(exist_ok=True)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def monotonic():
    """System-wide clock, comparable between a parent and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stdout: bytes
    stderr: bytes


def run_child(argv, timeout=CHILD_TIMEOUT_S) -> Proc:
    """Run argv to completion; wall time, CPU and peak RSS of that child alone."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Proc(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode, out, err.read())


def setup_samples(builtins, reps, warm_up=False):
    """Wall times of fresh interpreters that import qmink and load the given
    builtins; with warm_up, one unmeasured run first fills the bytecode cache."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *builtins]
    samples = []
    for k in range(reps + warm_up):
        proc = run_child(argv)
        if proc.rc != 0:
            raise RuntimeError("set-up probe failed: "
                               + proc.stderr.decode(errors="replace"))
        if k or not warm_up:
            samples.append(proc.wall)
    return samples


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples above it (nearest
    rank); 50 when there are too few samples for any higher one."""
    for p in range(99, 50, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100) - 1, 0)]


def summarize(walls, cpus, rss_mb, setup_s):
    """The end-to-end metrics of one run, in BENCHMARK.json order."""
    tail_p = tail_percentile(len(walls))
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "op_s.tail": (percentile(walls, tail_p), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (max(rss_mb), "MB"),
    }
    return metrics, tail_p


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmink").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }
