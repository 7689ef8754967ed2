"""Forked helpers that share batches of work with their parent process.

Each helper runs its target on every share its parent sends it, until the
parent closes its pipe.  The fork hands it what the target holds by
copy-on-write, so only shares and results travel, pickled.
"""

import os
import pickle


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _other_cpus() -> list:
    """The usable CPUs but the one this process runs on (Linux).  A helper
    woken through its pipe is often queued on its parent's CPU while
    another idles, so each is pinned to one of these."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            now = int(fh.read().rsplit(")", 1)[1].split()[36])
        return sorted(os.sched_getaffinity(0) - {now})
    except (AttributeError, OSError, ValueError, IndexError):
        return []


def _send(fd: int, value) -> None:
    data = memoryview(pickle.dumps(value))
    while data:
        data = data[os.write(fd, data):]


def _receive(reader) -> tuple:
    """``(value,)`` of the next value on ``reader``; ``()`` at its end."""
    try:
        return (pickle.load(reader),)
    except (EOFError, pickle.UnpicklingError):
        return ()


class Helpers:
    """A helper per usable CPU beside this process, ``processes - 1`` at
    most; with one CPU or without ``os.fork``, none.  ``map`` runs
    ``target`` on each process's share of the items.  Leaving the ``with``
    block closes every helper's pipe and waits for the helper to end."""

    def __init__(self, target, processes: int):
        self.target, self.pipes = target, []    # (pid, request fd, results)
        cpus = min(processes, _usable_cpus() if hasattr(os, "fork") else 1)
        spare = _other_cpus() if cpus > 1 else []
        try:
            for w in range(cpus - 1):
                self._fork(spare[w % len(spare)] if spare else None)
        except BaseException:
            self.close()
            raise

    @property
    def processes(self) -> int:
        return len(self.pipes) + 1

    def _fork(self, cpu) -> None:
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:        # leaves by os._exit: never flushes the parent's stdio
                os.close(request_w)
                os.close(result_r)
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                with open(request_r, "rb") as requests:
                    while share := _receive(requests):
                        _send(result_w, self.target(*share))
                code = 0
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(result_w)
        self.pipes.append((pid, request_w, open(result_r, "rb")))

    def map(self, items: list) -> list:
        """``target``'s result for each item, in order, from ``target`` on
        each share of the items dealt round-robin: the first share here."""
        k = self.processes
        for w, (_, request_w, _) in enumerate(self.pipes, 1):
            _send(request_w, items[w::k])
        results = [None] * len(items)
        results[::k] = self.target(items[::k])
        for w, (pid, _, result_r) in enumerate(self.pipes, 1):
            share = _receive(result_r)
            if not share:
                raise RuntimeError(f"helper process {pid} ended early")
            results[w::k] = share[0]
        return results

    def close(self) -> None:
        """A later helper holds an earlier one's pipe ends by the fork and
        ends first, so every pipe is closed before any helper is waited for."""
        pipes, self.pipes = self.pipes, []
        for _, request_w, result_r in pipes:
            os.close(request_w)
            result_r.close()
        for pid, _, _ in pipes:
            os.waitpid(pid, 0)

    def __enter__(self) -> "Helpers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
