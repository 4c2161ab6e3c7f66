"""Spawning CLI processes and taking their wall time, CPU time and peak RSS.

One client, one process at a time (a closed loop): the next job starts
only after the previous one has exited.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

# Pin BLAS to one thread: the default two-thread BLAS doubles CPU for about
# 1.3x wall time and spreads single jobs by about 20%.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The console script `vesflex` does exactly this.
CLI_ENTRY = "import sys; from vesflex.cli import main; sys.exit(main())"


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


@dataclass(frozen=True)
class Spawned:
    """Outcome of one child: exit code, or None when it exceeded its cap."""

    code: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(
    argv: list[str], env: dict[str, str], cwd: str, cap_s: float,
    output_path: str = os.devnull,
) -> Spawned:
    """Run argv to completion, or kill it at cap_s, and reap it with wait4.

    stdout and stderr both go to output_path.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(output_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT
        )

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    # not proc.kill(): Popen would poll, and could reap
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(cap_s, 0.0), kill)
        timer.start()
        try:
            # wait for the exit without reaping, so a late kill() can only
            # ever signal this child's zombie, never a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    # wait4 reaped the child; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(
        code=None if state["killed"] else proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_ENTRY, *args]
