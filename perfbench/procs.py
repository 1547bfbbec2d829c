"""Serving processes of the benchmark and their memory, read from outside.

Every workload serves from a child process started with the ``spawn``
method, so the benchmark process (set-up, load generation, reference
replays) never shares an interpreter lock or a resident set with it.  The
child runs ``fn(channel, **kwargs)``; ``fn`` announces readiness with a
``("ready", info)`` message.  Peak memory is each process's ``VmHWM`` from
``/proc/<pid>/status``, summed over the child and its descendants (a socket
host's shard workers).

The benchmark process makes itself the reaper of its orphaned descendants
(:func:`adopt_orphans`), so that on its way out :func:`stop_strays` can end
and wait for every process the run left behind: ``multiprocessing``'s
resource tracker, and any worker whose parent exited first.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import List

#: prctl option that makes orphaned descendants re-parent to the caller
PR_SET_CHILD_SUBREAPER = 36


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found.extend(int(child) for child in (task / "children").read_text().split())
        except OSError:
            continue
    return found


def process_tree(pid: int) -> List[int]:
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pid`` and its descendants."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class ServingProcess:
    """One spawned serving child and the pipe the benchmark drives it with."""

    def __init__(self, fn, **kwargs) -> None:
        context = multiprocessing.get_context("spawn")
        self.channel, child_end = context.Pipe()
        self.process = context.Process(target=_child_main, args=(child_end, fn, kwargs))
        self.process.start()
        child_end.close()

    @property
    def pid(self) -> int:
        return self.process.pid

    def receive(self, timeout_s: float):
        if not self.channel.poll(timeout_s):
            raise TimeoutError(f"serving process {self.pid} sent nothing for {timeout_s:.0f}s")
        kind, payload = self.channel.recv()
        if kind == "error":
            raise RuntimeError(f"serving process {self.pid} failed:\n{payload}")
        return kind, payload

    def send(self, message) -> None:
        self.channel.send(message)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def stop(self, timeout_s: float = 10.0) -> None:
        """Ask the child to exit, then make sure it and its descendants did."""
        members = process_tree(self.pid) if self.process.is_alive() else []
        try:
            self.channel.send("exit")
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout_s)
        for member in members[1:]:
            try:
                os.kill(member, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.channel.close()


def adopt_orphans() -> None:
    """Re-parent descendants whose parent exits to this process (Linux)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap(pids: List[int]) -> List[int]:
    """Reap whichever of ``pids`` have exited; returns those still running."""
    running = []
    for pid in pids:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        if not done:
            running.append(pid)
    return running


def stop_strays(timeout_s: float = 5.0) -> None:
    """End and wait for every child this process still has.

    The resource tracker exits when its pipe closes; other children get
    SIGTERM, then SIGKILL after ``timeout_s``.  Repeats until no child is
    left, since a child that dies hands its own children to this process.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    for _ in range(8):
        children = _children(os.getpid())
        if not children:
            return
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout_s
        while children and time.monotonic() < deadline:
            children = _reap(children)
            if children:
                time.sleep(0.02)
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _child_main(channel, fn, kwargs) -> None:
    import traceback

    try:
        fn(channel, **kwargs)
    except Exception:
        channel.send(("error", traceback.format_exc()))
        raise
