"""Spawning, readiness and teardown of the service processes under test.

Every process is started in its own session, so its whole tree (the
coordinator, its spawned shard workers and the multiprocessing resource
tracker) shares one process group that :meth:`Service.kill` can reach
even when the coordinator died first.  Output goes to a log file in the
run directory; readiness is read from the listener line the CLI prints.
"""

from __future__ import annotations

import contextlib
import ctypes
import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from xbench.proctree import group_members, kill_tree

#: seconds a process gets to print its listeners and answer /healthz
READY_TIMEOUT = 60.0

#: seconds a SIGTERM'd process gets to drain before it is killed
STOP_TIMEOUT = 30.0

_SERVE_LINE = re.compile(
    r"serving ingest=(?P<host>[\d.]+):(?P<ingest>\d+) http=[\d.]+:(?P<http>\d+)"
    r"(?: publish=[\d.]+:(?P<publish>\d+))?"
)
_REPLICA_LINE = re.compile(r"replica http=(?P<host>[\d.]+):(?P<http>\d+)")

#: prctl option: signal delivered to this process when its parent exits
_PR_SET_PDEATHSIG = 1


class BenchError(RuntimeError):
    """A failed run: a process did not come up, or a check did not hold."""


def http_get(host: str, port: int, path: str,
             timeout: float = 30.0) -> Tuple[int, bytes]:
    """One blocking GET; ``(status, body)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _die_with_parent() -> None:
    """Runs in the child before exec: SIGTERM it if the benchmark dies.

    A benchmark killed outright (SIGKILL, no cleanup) must not leave a
    service running into the next run; SIGTERM lets it drain and close
    its own shard workers.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class Service:
    """One spawned CLI process (``repro serve`` or ``repro replica``)."""

    def __init__(self, argv: List[str], env: Dict[str, str], log: Path,
                 line: "re.Pattern"):
        self.log = log
        self._line = line
        self._log_handle = open(log, "wb")
        self.proc = subprocess.Popen(
            argv, stdout=self._log_handle, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=env, start_new_session=True,
            preexec_fn=_die_with_parent,
        )
        self.pid = self.proc.pid
        self.match: Optional[re.Match] = None

    def output(self) -> str:
        return self.log.read_text(encoding="utf-8", errors="replace")

    def wait_listening(self, deadline: float) -> re.Match:
        while time.monotonic() < deadline:
            match = self._line.search(self.output())
            if match is not None:
                self.match = match
                return match
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(
            f"{self.log.name}: no listener line (exit={self.proc.poll()}):\n"
            f"{self.output()[-2000:]}"
        )

    def wait_http(self, path: str, deadline: float) -> bytes:
        """Poll ``path`` on this process's HTTP port until it answers 200."""
        port = int(self.match.group("http"))
        while time.monotonic() < deadline:
            try:
                status, body = http_get("127.0.0.1", port, path)
            except OSError:
                status, body = 0, b""
            if status == 200:
                return body
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(f"{self.log.name}: {path} never answered 200")

    def stop(self) -> int:
        """SIGTERM, wait for the drain, then make sure the group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = -1
        self.kill()
        return code

    def kill(self) -> None:
        """SIGKILL the whole process group and wait until it has ended."""
        members = group_members(self.pid)
        if self.proc.poll() is None:
            members.append(self.pid)
        kill_tree(members)
        deadline = time.monotonic() + STOP_TIMEOUT
        self.proc.wait(timeout=STOP_TIMEOUT)
        while group_members(self.pid) and time.monotonic() < deadline:
            kill_tree(group_members(self.pid))
            time.sleep(0.01)
        if not self._log_handle.closed:
            self._log_handle.close()


def python_env(root: Path) -> Dict[str, str]:
    """Environment for the spawned CLIs: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def cli_argv(root: Path, traced_spans: Optional[Path], args: List[str]) -> List[str]:
    """``python -m repro <args>``, or the tracing bootstrap around it."""
    if traced_spans is None:
        return [sys.executable, "-m", "repro", *args]
    boot = root / "perfbench" / "xbench" / "boot.py"
    return [sys.executable, str(boot), str(traced_spans), *args]


def start_primary(root: Path, run_dir: Path, serve_args: List[str],
                  spans: Optional[Path]) -> Service:
    """Spawn ``repro serve`` and wait until it is ready.

    Ready: the listener line is printed, ``/healthz`` answers 200, and one
    engine round-trip (``/stats?engine=1``) has come back -- without it
    the shard workers are still importing when the first frames land.
    """
    deadline = time.monotonic() + READY_TIMEOUT
    service = Service(
        cli_argv(root, spans, ["serve", *serve_args]), python_env(root),
        run_dir / f"serve-{time.monotonic_ns()}.log", _SERVE_LINE,
    )
    try:
        service.wait_listening(deadline)
        service.wait_http("/healthz", deadline)
        service.wait_http("/stats?engine=1", deadline)
    except BaseException:
        service.kill()
        raise
    return service


def start_replica(root: Path, run_dir: Path, publish: Tuple[str, int],
                  spans: Optional[Path]) -> Service:
    """Spawn ``repro replica`` and wait until its first sync has landed."""
    deadline = time.monotonic() + READY_TIMEOUT
    service = Service(
        cli_argv(root, spans, [
            "replica", "--subscribe", f"{publish[0]}:{publish[1]}",
        ]),
        python_env(root), run_dir / f"replica-{time.monotonic_ns()}.log",
        _REPLICA_LINE,
    )
    try:
        service.wait_listening(deadline)
        service.wait_http("/healthz", deadline)
    except BaseException:
        service.kill()
        raise
    return service
