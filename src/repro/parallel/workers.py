"""Long-lived worker processes with a duplex message channel: the one
worker-process layer.

The sweep fabric (:mod:`repro.parallel.fabric`) runs cells on a pool of
handles; the shard tier (:mod:`repro.shard`) runs one per shard, holding
its table partition.  A worker answers requests over its pipe through
:func:`serve`, and :class:`WorkerHandle` turns its failure modes into two
exceptions the caller can act on:

* :class:`WorkerCrashed` -- the process died (killed, crashed hard, or
  closed its end of the pipe).  The caller may :meth:`~WorkerHandle.respawn`
  the handle and resend work; the worker's in-process state is rebuilt by
  its entry point.
* :class:`WorkerUnresponsive` -- the process is alive but produced no
  response within the timeout (a stuck request).  The only safe recovery
  is :meth:`~WorkerHandle.respawn` (kill + restart): the pipe may carry a
  late response for the stuck request, so it must not be reused.

Entry points run as ``target(conn, *args)`` with ``conn`` the worker's end
of the pipe.  Under the fork start method -- requested explicitly when
available -- workers inherit the parent's memory copy-on-write, so
datasets generated in the parent before :meth:`~WorkerHandle.start` need
not be regenerated per worker; where fork is unavailable the entry point
and its arguments are pickled, so they must be module-level.  Workers are
daemon processes: a request may not start processes of its own."""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import Connection
from typing import Any, Callable

__all__ = ["WorkerCrashed", "WorkerHandle", "WorkerUnresponsive", "serve"]


class WorkerCrashed(Exception):
    """The worker process died; its pipe returned EOF or refused a send."""


class WorkerUnresponsive(Exception):
    """The worker is alive but sent no response within the timeout."""


def serve(conn: Connection, answer: Callable[[Any], Any]) -> None:
    """The worker side of a handle: reply ``answer(request)`` to each
    request, in order, until the parent sends ``None`` or closes the pipe."""
    while True:
        try:
            request = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if request is None:  # orderly shutdown
            return
        conn.send(answer(request))


def _context():
    """Prefer fork (copy-on-write dataset inheritance); else the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-POSIX


class WorkerHandle:
    """One long-lived worker process plus the parent's end of its pipe."""

    def __init__(self, target, args: tuple = (), name: str = "worker"):
        self.target = target
        self.args = tuple(args)
        self.name = name
        self.process: multiprocessing.Process | None = None
        self.conn: Connection | None = None
        #: processes started over this handle's lifetime (1 after start();
        #: +1 per respawn) -- the shard metrics report it as respawn count
        self.generation = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.process is not None and self.process.is_alive():
            raise RuntimeError(f"{self.name} is already running")
        ctx = _context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=self.target,
            args=(child_conn, *self.args),
            name=self.name,
            daemon=True,
        )
        self.process.start()
        # The child holds its own copy; keeping the parent's reference open
        # would mask worker death (no EOF while any writer exists).
        child_conn.close()
        self.conn = parent_conn
        self.generation += 1

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    # ------------------------------------------------------------------
    def send(self, obj: Any) -> None:
        """Ship one picklable request; raises :class:`WorkerCrashed` if the
        worker is gone (the request was not delivered)."""
        if self.conn is None:
            raise RuntimeError(f"{self.name} was never started")
        try:
            self.conn.send(obj)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise WorkerCrashed(f"{self.name} (pid {self.pid}) is gone: {exc}") from exc

    def recv(self, timeout: float | None = None) -> Any:
        """Wait for the next response.

        Raises :class:`WorkerUnresponsive` after ``timeout`` seconds with
        the process still alive, :class:`WorkerCrashed` on EOF / death."""
        if self.conn is None:
            raise RuntimeError(f"{self.name} was never started")
        try:
            if not self.conn.poll(timeout):
                if self.alive:
                    raise WorkerUnresponsive(
                        f"{self.name} (pid {self.pid}): no response within {timeout:g}s"
                    )
                raise WorkerCrashed(
                    f"{self.name} (pid {self.pid}) died with no response "
                    f"(exitcode {self.process.exitcode})"
                )
            return self.conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError) as exc:
            raise WorkerCrashed(
                f"{self.name} (pid {self.pid}) died mid-response: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Terminate the process (escalating to SIGKILL) and close the
        pipe.  Idempotent; safe on an already-dead worker."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        proc = self.process
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=5)
        self.process = None

    def respawn(self) -> None:
        """Kill whatever is left of the worker and start a fresh process
        (with a fresh pipe -- stale in-flight responses cannot leak in)."""
        self.kill()
        self.start()
