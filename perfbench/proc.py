"""Child processes of the benchmark: spawn, reap, account.

Every program process the benchmark starts goes through :class:`Child`,
which reaps it with ``os.wait4`` so its CPU time and peak RSS come from
the kernel (and include the grandchildren it reaped itself, such as
survey worker processes), and which kills it on every exit path.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for outputs, journals and artifacts; inside the checkout,
#: one directory per benchmark process.
WORK = ROOT / ".perfbench_work" / str(os.getpid())

_serial = itertools.count()


def program_env() -> dict[str, str]:
    """Environment that runs the program from this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def require_program() -> None:
    """Exit non-zero, without a result, when the program is not here."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Finished:
    """A reaped child: exit code, output, wall, CPU and peak RSS."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Child:
    """One program process; a context manager that never leaks it."""

    def __init__(self, argv: list[str], *, name: str) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        stem = f"{name}.{next(_serial)}"
        self._out_path = WORK / f"{stem}.out"
        self._err_path = WORK / f"{stem}.err"
        self._out = open(self._out_path, "w+b")
        self._err = open(self._err_path, "w+b")
        self.started = time.perf_counter()
        self.popen = subprocess.Popen(
            argv, cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=self._out, stderr=self._err)
        self.pid = self.popen.pid
        self._reaped: Finished | None = None

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()

    def read_stdout(self) -> str:
        """What the child has written to stdout so far."""
        return self._out_path.read_bytes().decode("utf-8", "replace")

    def wait(self, timeout_s: float) -> Finished:
        """Reap the child (killing it after ``timeout_s``)."""
        if self._reaped is not None:
            return self._reaped
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid == self.pid:
                break
            if time.monotonic() >= deadline:
                self.popen.kill()
                pid, status, usage = os.wait4(self.pid, 0)
                break
            time.sleep(0.005)
        wall = time.perf_counter() - self.started
        code = os.waitstatus_to_exitcode(status)
        self.popen.returncode = code
        self._reaped = Finished(
            returncode=code,
            stdout=self._read_and_close(self._out, self._out_path),
            stderr=self._read_and_close(self._err, self._err_path),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0)
        return self._reaped

    def terminate(self, timeout_s: float = 15.0) -> Finished:
        """SIGTERM (the daemon drains on it), then reap."""
        if self._reaped is None and self.popen.returncode is None:
            self.popen.send_signal(signal.SIGTERM)
        return self.wait(timeout_s)

    def kill(self) -> None:
        if self._reaped is None:
            try:
                self.popen.kill()
            except ProcessLookupError:
                pass
            self.wait(10.0)

    @staticmethod
    def _read_and_close(handle, path: Path) -> str:
        handle.close()
        text = path.read_bytes().decode("utf-8", "replace")
        path.unlink(missing_ok=True)
        return text


def run(argv: list[str], *, name: str, timeout_s: float = 170.0) -> Finished:
    """Run a program process to completion."""
    with Child(argv, name=name) as child:
        return child.wait(timeout_s)


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def process_cpu_s(pid: int) -> float:
    """User+sys time of a live process so far, in seconds.

    Read from ``/proc/<pid>/stat``, which keeps the time of threads that
    have already exited (a threaded server starts and ends one per
    connection).  It is counted in clock ticks, so read it across a
    stretch of work, not around one request.
    """
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
