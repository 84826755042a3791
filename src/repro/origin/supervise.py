"""Task ownership: every coroutine the origin spawns has a supervisor.

A bare ``asyncio.create_task`` is how streaming servers rot: the task
outlives its creator, its exception is logged (at best) at interpreter
shutdown, and cancellation during teardown leaks queues and sockets.
The origin therefore funnels *all* task creation through
:class:`Supervisor` — the only module where ``asyncio.create_task`` is
legal under the HDVB170 lint rule:

* every spawned task is tracked until it finishes;
* a task that dies with anything other than ``CancelledError`` or a
  normalised :class:`~repro.errors.ReproError` is recorded as an
  **unhandled escape** — the serve gate requires that list to be empty;
* :meth:`Supervisor.drain` and :meth:`Supervisor.cancel_all` give
  teardown a single place that provably reaps everything.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Coroutine, Dict, List, Optional, Set

from repro.errors import ReproError
from repro.telemetry import flightrec
from repro.telemetry.events import correlation_scope, emit
from repro.telemetry.trace import enabled


@dataclass
class TaskFailure:
    """One task that escaped with a raw (non-taxonomy) exception."""

    name: str
    error: BaseException

    def __str__(self) -> str:
        return f"{self.name}: {self.error!r}"


@dataclass
class Supervisor:
    """Owns every asyncio task of one origin instance."""

    name: str = "origin"
    _tasks: Set["asyncio.Task[Any]"] = field(default_factory=set)
    #: tasks that escaped with a raw exception (gate: must stay empty)
    unhandled: List[TaskFailure] = field(default_factory=list)
    #: tasks that ended in a ReproError the spawner did not consume
    failed: Dict[str, ReproError] = field(default_factory=dict)

    def spawn(self, coro: Coroutine[Any, Any, Any],
              name: str) -> "asyncio.Task[Any]":
        """Create and track a task; its outcome can never go unobserved."""
        task = asyncio.create_task(coro, name=f"{self.name}:{name}")
        self._tasks.add(task)
        task.add_done_callback(self._reap)
        return task

    def _reap(self, task: "asyncio.Task[Any]") -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        error = task.exception()
        if error is None:
            return
        if isinstance(error, ReproError):
            self.failed[task.get_name()] = error
        else:
            self.unhandled.append(TaskFailure(task.get_name(), error))
            if enabled():
                # An escape is exactly what the flight recorder exists
                # for: dump the ring before anything else runs.
                with correlation_scope(task=task.get_name()):
                    emit("origin.escape", task=task.get_name(),
                         error=repr(error))
                    flightrec.recorder.dump(
                        "supervisor.escape", error=error,
                        extra={"task": task.get_name()})

    @property
    def active(self) -> int:
        return len(self._tasks)

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Wait for every tracked task to finish (outcomes go to _reap)."""
        while self._tasks:
            pending = list(self._tasks)
            done, _ = await asyncio.wait(pending, timeout=timeout)
            if not done and timeout is not None:
                await self.cancel_all()
                return

    async def cancel_all(self) -> None:
        """Cancel and await every tracked task; cancellation is clean."""
        pending = list(self._tasks)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
