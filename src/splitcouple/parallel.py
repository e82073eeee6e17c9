"""The machine's parallelism: how many CPUs a run spreads over, and the helper
that spreads an ar1 or logvol driver's replicas over forked processes.

``sde-sim`` spreads its noise over ``WORKERS`` threads (``fracvol``): numpy's
draws, transforms and ufuncs release the GIL.  The split-mapping inversion
of ``ar1-couple`` and ``logvol-couple`` spends its time in scipy's ``ndtr``
and ``ndtri``, which hold it (two threads each running ``ndtr`` over 2M
elements took 0.099 s against 0.091 s one after the other), and
``logvol-sim`` in short numpy calls on blocks of 1,024 replicas, whose
overhead holds it too.  So those drivers hand ``run_parts`` a *part
function*, which draws the streams of a contiguous replica range and runs
the engine or simulator on it, and ``run_parts`` runs the first part in this
process and every other part in a forked child, which returns its result
through a pipe with ``pickle``.  Every replica's stream and inversion is
independent of how the batch is cut, so no bit of any artifact changes.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable

import numpy as np

from .errors import RunError

WORKERS = 2  # CPUs a run spreads over: sde-sim's noise threads, an ar1 or logvol run's processes
# Fewest replicas a process is given.  Forking, pickling a part's records and
# reaping the child costs 3-5 ms, what the cheapest replica (the draws of a
# one-step ar1-couple or logvol-couple, about 4.3 us) takes over 700-1,200
# replicas, so no run is cut into parts that could make it slower.
MIN_PART = 1024


def part_ranges(replicas: int) -> list[range]:
    """The contiguous replica ranges a run of ``replicas`` is cut into:
    ``WORKERS`` ranges whose sizes differ by at most one, or the one range of
    every replica when a part would hold fewer than ``MIN_PART`` or the
    platform cannot fork."""
    if replicas < WORKERS * MIN_PART or not hasattr(os, "fork"):
        return [range(replicas)]
    cuts = [replicas * w // WORKERS for w in range(WORKERS + 1)]
    return [range(a, z) for a, z in zip(cuts, cuts[1:])]


def run_parts(part: Callable[[range], object], replicas: int):
    """``part`` of every replica range of ``part_ranges(replicas)``, joined in
    replica order: a record array end to end, or a dict of arrays key by key.

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
    first, *rest = part_ranges(replicas)
    children: list[tuple[range, int, int]] = []  # (rows, pid, read end) of each child
    try:
        for rows in rest:
            children.append(_fork(part, rows, children))
        _settle(0)
        results = [part(first)]
        while children:
            results.append(_collect(*children.pop(0)))
    finally:
        for _, pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    if len(results) == 1:
        return results[0]
    if isinstance(results[0], dict):
        return {key: np.concatenate([r[key] for r in results]) for key in results[0]}
    return np.concatenate(results).view(type(results[0]))


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
