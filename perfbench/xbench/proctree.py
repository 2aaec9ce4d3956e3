"""CPU time and peak memory of a process tree, read from ``/proc``.

``psutil`` is not a dependency of the project, so the benchmark reads
``/proc/<pid>/stat`` (user + system ticks, parent pid) and
``/proc/<pid>/status`` (``VmHWM``) itself.  Any process may exit between
listing ``/proc`` and opening its files; such a pid is skipped, never
an error, so a sample taken while a worker restarts still completes.
"""

from __future__ import annotations

import os
import signal
from typing import Dict, Iterable, List, Optional, Set, Tuple

PROC = "/proc"

_CLK_TCK = os.sysconf("SC_CLK_TCK")

_GONE = (FileNotFoundError, ProcessLookupError)


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="ascii", errors="replace") as handle:
            return handle.read()
    except _GONE:
        return None


def _stat_fields(pid: int, proc: str) -> Optional[List[str]]:
    """Fields after the ``(comm)`` of ``/proc/<pid>/stat``; None if gone."""
    text = _read(f"{proc}/{pid}/stat")
    if not text or ")" not in text:
        return None
    # comm may hold spaces and parentheses; the last ')' ends it.
    return text[text.rindex(")") + 2:].split()


def parent_map(proc: str = PROC) -> Dict[int, int]:
    """``pid -> ppid`` for every process still alive while it was read."""
    parents: Dict[int, int] = {}
    try:
        entries = os.listdir(proc)
    except _GONE:
        return parents
    for entry in entries:
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry), proc)
        if fields is not None and len(fields) > 1:
            parents[int(entry)] = int(fields[1])
    return parents


def group_members(pgid: int, proc: str = PROC) -> List[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    members = []
    for entry in os.listdir(proc):
        if entry.isdigit():
            fields = _stat_fields(int(entry), proc)
            if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
                members.append(int(entry))
    return members


def tree_pids(roots: Iterable[int], proc: str = PROC) -> Set[int]:
    """``roots`` and all their live descendants."""
    children: Dict[int, List[int]] = {}
    parents = parent_map(proc)
    for pid, ppid in parents.items():
        children.setdefault(ppid, []).append(pid)
    found: Set[int] = set()
    stack = [pid for pid in roots if pid in parents]
    while stack:
        pid = stack.pop()
        if pid in found:
            continue
        found.add(pid)
        stack.extend(children.get(pid, ()))
    return found


def cpu_seconds(pids: Iterable[int], proc: str = PROC) -> Dict[int, float]:
    """User + system CPU seconds per pid (pids that exited are omitted)."""
    out: Dict[int, float] = {}
    for pid in pids:
        fields = _stat_fields(pid, proc)
        if fields is None or len(fields) < 13:
            continue
        out[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return out


def peak_rss_mb(pids: Iterable[int], proc: str = PROC) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        text = _read(f"{proc}/{pid}/status")
        if text is None:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


class TreeSampler:
    """CPU samples and peak memory of the tree under ``roots``."""

    def __init__(self, roots: Iterable[int], proc: str = PROC):
        self.roots = list(roots)
        self.proc = proc

    def pids(self) -> Set[int]:
        return tree_pids(self.roots, self.proc)

    def sample(self) -> Dict[int, float]:
        """CPU seconds so far of every live process in the tree."""
        return cpu_seconds(self.pids(), self.proc)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids(), self.proc)


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU the tree used between two samples.

    A pid only in ``after`` counts from zero (it started in between); one
    only in ``before`` is dropped (it exited, and its last ticks are lost
    -- the kernel keeps no record to read).
    """
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def host_cpu_ticks(proc: str = PROC) -> Tuple[int, int]:
    """``(steal, total)`` ticks of all CPUs from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this machine
    had work; on a shared host it is what slows a run down.
    """
    fields = _read(f"{proc}/stat").splitlines()[0].split()[1:]
    ticks = [int(value) for value in fields]
    return ticks[7], sum(ticks)


def kill_tree(pids: Iterable[int]) -> None:
    """SIGKILL every pid in ``pids`` that still exists."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
