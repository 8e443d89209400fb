"""Paths, child processes and small helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "phonon_forge"
WORK = ROOT / ".perfbench"           # scratch and results, inside the checkout

# The package is run with an explicit thread count; BLAS pools are pinned to
# one thread so the load never follows the number of cores.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170.0
RSS_SAMPLE_INTERVAL_S = 0.005


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PHONON_FORGE_THREADS")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def derive_seed(seed, *keys):
    """Independent 32-bit seed for (benchmark seed, key...), stable across runs."""
    text = "/".join(str(k) for k in (int(seed), *keys))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def median(values):
    return float(statistics.median(values))


def self_peak_rss_mb():
    """The process's high-water mark of resident memory, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RssSampler:
    """Peak resident memory of this process per window, in MB.

    The high-water mark only grows, so it gives one peak per process.  Two
    worker threads reach their scratch peaks in or out of step from one
    ensemble to the next, so the high-water mark of a run is its worst
    overlap: unsteady, and higher the more ensembles a run holds.  A thread
    reading /proc/self/statm every RSS_SAMPLE_INTERVAL_S gives one peak per
    window instead, and the median over windows is steady.
    """

    def __init__(self):
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20
        self._peak = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _current(self):
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._page_mb

    def _run(self):
        while not self._stop.wait(RSS_SAMPLE_INTERVAL_S):
            rss = self._current()
            with self._lock:
                self._peak = max(self._peak, rss)

    def take(self):
        """Peak since the previous call; the next window starts now."""
        rss = self._current()
        with self._lock:
            peak, self._peak = max(self._peak, rss), rss
        return peak


def run_child(cmd, cwd, stdout_path, stderr_path):
    """Run cmd to completion; return (exit code, wall seconds, peak RSS MB).

    The child is reaped with wait4 so its own peak RSS is known; a timer kills
    it if it outlives CHILD_TIMEOUT_S.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_python(args, workdir, tag):
    """Run a fresh interpreter with these arguments; also return its output."""
    out_path = Path(workdir) / f"{tag}.out"
    err_path = Path(workdir) / f"{tag}.err"
    rc, wall, rss = run_child([sys.executable, *args], ROOT, out_path, err_path)
    return rc, wall, rss, out_path.read_text(), err_path.read_text()


def last_json_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()
