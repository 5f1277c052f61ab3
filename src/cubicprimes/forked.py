"""Counts computed in forked worker processes.

split_counts takes a list of items, a function that gives each item's
integer count and a function that gives its size. It shares the items out
in contiguous runs of about equal size, one per process, and counts the
first run in this process. A child forked for each other run counts it
and writes each count to a pipe as an int64 as soon as it has it. The
counts come back in item order, so no result depends on the sharing.

fork, not spawn: a spawned worker would import numpy and the package
again (about 0.27 s), as long as the work it takes over. Children inherit
the parent's tables. A child runs numpy ufuncs only, no BLAS, whose
threads exist before the fork.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ResourceError


def cpus() -> int:
    """Processes the counts may use: one per CPU this process may run on,
    or one where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shares(items: list, size, unit: int) -> list[list]:
    """The items in contiguous runs of about equal total size(item) >= 1:
    one run per cpus(), but no more runs than the total size in units,
    rounded up, so a job of one unit or less stays in this process. Each
    item joins the run its middle falls in."""
    sizes = [size(item) for item in items]
    total = sum(sizes)
    workers = min(cpus(), -(-total // unit))
    runs = [[] for _ in range(workers)]
    start = 0
    for item, s in zip(items, sizes):
        runs[(2 * start + s - 1) * workers // (2 * total)].append(item)
        start += s
    return [run for run in runs if run]


def _fork(count, share: list, inherited: list[int]):
    """(pid, read end of a pipe) of a forked child that writes count(item)
    for each item of share to the pipe, or None when os.pipe or os.fork
    fails. The child closes the inherited read ends of the earlier
    children's pipes, so each pipe has one reader, this process. The child
    never returns: it leaves by os._exit, with status 0 only after its last
    count. Once this process closes the read end, or is gone, the child's
    next write fails and it exits within one item."""
    fds = ()
    try:
        fds = read, write = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        for fd in (read, *inherited):
            os.close(fd)
        for item in share:
            os.write(write, np.int64(count(item)).tobytes())
        status = 0
    finally:
        os._exit(status)


def _read(fd: int, items: int) -> list[int]:
    """The int64 counts a child writes to the pipe fd, read to its end;
    ResourceError unless there is one per item."""
    data = b""
    while chunk := os.read(fd, 8 * items + 1):
        data += chunk
    if len(data) != 8 * items:
        raise ResourceError(
            f"a count worker ended after {len(data) // 8} of its {items} counts")
    return np.frombuffer(data, dtype=np.int64).tolist()


def split_counts(count, items: list, size, unit: int) -> tuple[list[int], int]:
    """count(item) for each of the items, in order, and the number of
    processes that made them (_shares). Each run but the first goes to a
    forked child, or is counted here when the fork fails. Every child is
    reaped before this returns or raises: on a raise, all read ends close
    first, so every child stops within one item. A child that exits
    nonzero raises ResourceError."""
    shares = _shares(items, size, unit)
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(count, share, [fd for _, fd in filter(None, children)]))
        counts = [count(item) for item in shares[0]] if shares else []
        for share, child in zip(shares[1:], children):
            if child is None:
                counts += [count(item) for item in share]
            else:
                counts += _read(child[1], len(share))
    finally:
        forked = list(filter(None, children))
        for _, fd in forked:
            os.close(fd)
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in forked]
    if any(statuses):
        raise ResourceError(f"a count worker exited with status {max(statuses, key=abs)}")
    return counts, 1 + len(statuses)
