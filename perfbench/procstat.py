"""Host and per-process counters read from ``/proc``.

Every number here is read from outside the program under test, so the
benchmark measures the same thing whatever the program does inside:
CPU seconds of a process (user + system, steal excluded), its peak
resident set, the host's steal share, and the children of a process.
"""

from __future__ import annotations

import os
from pathlib import Path

TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process (its own, not its children)."""
    raw = Path(f"/proc/{pid}/stat").read_text()
    # The command name (field 2) may hold spaces; fields resume after ')'.
    fields = raw[raw.rindex(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / TICKS_PER_SECOND


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MB (2**20 bytes)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def children(pid: int) -> list[int]:
    """Direct child pids of ``pid``, forked from any of its threads."""
    found: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            found += [int(p) for p in (task / "children").read_text().split()]
        except FileNotFoundError:  # the thread ended while we looked
            continue
    return sorted(set(found))


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return raw[raw.rindex(")") + 2] != "Z"


def host_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the whole host from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already folded into user/nice, so it is not re-added.
    total = sum(fields[:8])
    return fields[7], total


class HostWindow:
    """Host steal share from construction to :meth:`stop`."""

    def __init__(self) -> None:
        self._steal0, self._total0 = host_cpu_ticks()

    def stop(self) -> float:
        """The steal fraction of all host CPU time since construction."""
        steal, total = host_cpu_ticks()
        return (steal - self._steal0) / max(total - self._total0, 1)
