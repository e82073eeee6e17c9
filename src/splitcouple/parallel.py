"""The machine's parallelism: how many CPUs a run spreads over, and the one
mechanism that spreads a driver's replicas over them.

Every Monte Carlo driver hands ``run_parts`` a *part function*, which draws
the streams of a contiguous replica range and runs the engine or simulator
on it; the first part runs in this process and every other in a forked
child, which returns its result through a pipe with ``pickle``.  Processes,
not threads: scipy's ``ndtr`` and ``ndtri``, where the split-mapping
inversion spends its time, hold the GIL (two threads each running ``ndtr``
over 2M elements took 0.099 s against 0.091 s one after the other), and so
does the overhead of the short numpy calls of ``logvol-sim``'s and the SDE's
stepping loops.  Every replica's stream and path is independent of how the
batch is cut, so no bit of any artifact changes.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable

import numpy as np

from .errors import RunError

WORKERS = 2  # CPUs a run spreads over: the processes of a split run
# Fewest replica-steps a process is given.  Forking, pickling a part's result
# and reaping the child costs about 4.0 ms beside a 78 MiB parent, what the
# cheapest replica-step (a grid step of an exponential-kernel SDE: its draws,
# its share of the scan and the Euler steps of two states, about 38 ns)
# takes over 105,000; rounded up to 2^17, so no run is cut into parts that
# could make it slower.
MIN_PART = 131_072


def part_ranges(replicas: int, steps: int) -> list[range]:
    """The contiguous replica ranges a run of ``replicas`` replicas of
    ``steps`` steps each is cut into: ``WORKERS`` ranges whose sizes differ
    by at most one, or the one range of every replica when a part would hold
    fewer than ``MIN_PART`` replica-steps or the platform cannot fork."""
    if replicas * steps < WORKERS * MIN_PART or not hasattr(os, "fork"):
        return [range(replicas)]
    cuts = [replicas * w // WORKERS for w in range(WORKERS + 1)]
    return [range(a, z) for a, z in zip(cuts, cuts[1:])]


def run_parts(part: Callable[[range], object], replicas: int, steps: int):
    """``part`` of every replica range of ``part_ranges(replicas, steps)``,
    joined along the replica axis, each array's last: a record array, an
    array, or a dict of arrays key by key.  The joined arrays are allocated
    once, and each part is dropped as soon as it is copied into its slice.

    The first range runs in this process and every other in a forked child,
    which ends with ``os._exit`` and never returns into the caller; each
    process starts its range on a CPU of its own (``_settle``).  A child's
    exception is raised here with its type and message, once every child has
    been reaped; one that does not pickle becomes a ``RunError`` naming its
    type, and a child that ends without its result a ``RunError`` naming its
    exit status.  When this process's own part fails, each child's pipe is
    closed, so a child still writing stops, and each child is reaped before
    the exception goes on.
    """
    first, *rest = part_ranges(replicas, steps)
    children: list[tuple[range, int, int]] = []  # (rows, pid, read end) of each child
    try:
        for rows in rest:
            children.append(_fork(part, rows, children))
        _settle(0)
        joined = part(first)
        if children:
            joined = _place(None, joined, first, replicas)
        while children:
            rows, pid, fd = children.pop(0)
            joined = _place(joined, _collect(rows, pid, fd), rows, replicas)
    finally:
        for _, pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    return joined


def _place(joined, result, rows: range, replicas: int):
    """``joined`` with a part's ``result`` copied into its slice ``rows`` of the
    last axis, key by key for a dict; ``None`` is allocated first, shaped as
    ``result`` but ``replicas`` long on that axis."""
    if isinstance(result, dict):
        return {key: _place(None if joined is None else joined[key], value, rows, replicas)
                for key, value in result.items()}
    if joined is None:
        joined = np.empty_like(result, shape=result.shape[:-1] + (replicas,))
    joined[..., rows.start : rows.stop] = result
    return joined


def _fork(part, rows: range, siblings: list) -> tuple[range, int, int]:
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the child: it writes its result and exits, whatever happens
        code = 1
        try:
            os.close(read)
            for _, _, fd in siblings:  # so that a sibling sees its reader go
                os.close(fd)
            _settle(len(siblings) + 1)
            _send(write, part, rows)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return rows, pid, read


def _settle(index: int) -> None:
    """Move this process to the ``index``-th CPU it may run on, then let it
    run on every one of them again, so that each part starts on a CPU of its
    own.  After the machine has been idle, Linux often starts a forked child
    on its parent's CPU and can leave both there for a whole part, which then
    takes as long as the two parts one after the other.  Where the platform
    or its sandbox does not let a process choose its CPUs, the kernel's
    placement stands."""
    try:
        cpus = os.sched_getaffinity(0)
        if len(cpus) > 1:
            os.sched_setaffinity(0, {sorted(cpus)[index % len(cpus)]})
            os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no sched_setaffinity, or not allowed
        pass


def _send(fd: int, part, rows: range) -> None:
    """Write ``(True, result)`` of ``part(rows)`` to ``fd``, or ``(False, (type
    name, message, the pickled exception or None))`` when it raises."""
    try:
        payload = pickle.dumps((True, part(rows)), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:  # every failure goes to the parent, which raises it
        try:
            blob = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        except Exception:  # an exception that does not pickle is named
            blob = None
        payload = pickle.dumps((False, (type(exc).__name__, str(exc), blob)))
    with open(fd, "wb") as out:
        out.write(payload)


def _collect(rows: range, pid: int, fd: int):
    """The result of the child running ``rows``: its whole payload is read
    before the child is reaped."""
    try:
        with open(fd, "rb") as src:
            payload = src.read()
    finally:
        _, status = os.waitpid(pid, 0)
    where = f"replicas {rows.start}-{rows.stop - 1}"
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RunError(f"{where}: the forked process ended without a result ({how})")
    ok, value = pickle.loads(payload)  # bytes this program's own child wrote
    if ok:
        return value
    name, message, blob = value
    try:
        exc = pickle.loads(blob)
    except Exception:  # None, or an exception that does not unpickle
        raise RunError(f"{where}: {name}: {message}") from None
    raise exc
