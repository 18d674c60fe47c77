"""Child processes of the benchmark: timed runs and a managed server.

Every child is reaped with ``os.wait4``, which returns that one
process's peak resident set size; :class:`Children` kills and reaps
whatever is still running when a run ends, however it ends. Output goes
to files, not pipes, so reaping never races a reader.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(BENCH_DIR, "launch.py")


class Children:
    """Tracks spawned processes so none outlives the run."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self._live: List[subprocess.Popen] = []
        self._serial = 0
        self.last_cpu_s = 0.0

    def spawn(self, argv: Sequence[str], env: Dict[str, str],
              cwd: str) -> Tuple[subprocess.Popen, str, str]:
        """Start ``argv``; returns (process, stdout path, stderr path)."""
        self._serial += 1
        out_path = os.path.join(self.workdir, f"proc{self._serial}.out")
        err_path = os.path.join(self.workdir, f"proc{self._serial}.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(list(argv), env=env, cwd=cwd,
                                    stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
        self._live.append(proc)
        return proc, out_path, err_path

    def reap(self, proc: subprocess.Popen,
             timeout_s: Optional[float] = None) -> Tuple[int, float]:
        """Wait for ``proc`` (killing it after ``timeout_s``).

        Returns (exit code, peak RSS in MB); ``last_cpu_s`` holds the
        process's user plus system CPU seconds.
        """
        watchdog = None
        if timeout_s is not None:
            watchdog = threading.Timer(timeout_s, _kill, (proc,))
            watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if watchdog is not None:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_cpu_s = usage.ru_utime + usage.ru_stime
        self._live.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def stop(self, proc: subprocess.Popen,
             timeout_s: float = 20.0) -> Tuple[int, float]:
        """SIGTERM ``proc`` (a server stops cleanly on it), then reap."""
        proc.send_signal(signal.SIGTERM)
        return self.reap(proc, timeout_s)

    def close(self) -> None:
        for proc in list(self._live):
            _kill(proc)
            self.reap(proc)


def _kill(proc: subprocess.Popen) -> None:
    try:
        proc.kill()
    except ProcessLookupError:
        pass


def read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def repro_argv(args: Sequence[str], spans_path: Optional[str]) -> List[str]:
    """The command line of one ``repro`` process, traced or not."""
    if spans_path is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, LAUNCHER, spans_path, *args]


def run_timed(children: Children, args: Sequence[str], env: Dict[str, str],
              cwd: str, spans_path: Optional[str] = None,
              timeout_s: float = 120.0) -> Tuple[float, int, str, str, float]:
    """Run one ``repro`` process to completion.

    Returns (wall seconds from spawn to exit, exit code, stdout, stderr,
    peak RSS MB).
    """
    started = time.perf_counter()
    proc, out_path, err_path = children.spawn(
        repro_argv(args, spans_path), env, cwd
    )
    code, rss_mb = children.reap(proc, timeout_s)
    wall_s = time.perf_counter() - started
    return wall_s, code, read(out_path), read(err_path), rss_mb
