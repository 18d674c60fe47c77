"""Open-loop HTTP/1.1 load generator over real keep-alive sockets.

A dispatcher thread releases each request at its scheduled time into
the event loop's queue, whatever the server is doing; one worker per
connection sends the queue's head and waits for the answer. Latency is
counted from the scheduled time, so a stall also charges the requests
that queued behind it. The dispatcher records how late it released each
request, and the queue length when the phase's window closes is the
phase's backlog.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import time
from typing import List, Optional, Sequence, Tuple

from benchstats import Phase
from mix import Request, encode

#: A request unanswered this long counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: Requests still queued this long after a phase's window closes are
#: abandoned (by default; see :meth:`OpenLoopClient.run_phase`).
DRAIN_TIMEOUT_S = 10.0


class Answer:
    __slots__ = ("status", "body", "due", "sent", "done")

    def __init__(self, status: Optional[int], body: bytes, due: float,
                 sent: float, done: float) -> None:
        self.status = status
        self.body = body
        self.due = due
        self.sent = sent
        self.done = done

    @property
    def ok(self) -> bool:
        return self.status == 200

    def json(self) -> object:
        return json.loads(self.body)


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def roundtrip(self, payload: bytes) -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
        assert self.reader is not None
        self.writer.write(payload)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


class OpenLoopClient:
    """``connections`` keep-alive sockets to one server."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self._conns = [_Connection(host, port) for _ in range(connections)]

    async def call(self, request: Request) -> Answer:
        """One request on the first connection, outside any schedule."""
        return await self._send(self._conns[0], encode(request),
                                time.perf_counter())

    async def _send(self, conn: _Connection, payload: bytes,
                    due: float) -> Answer:
        sent = time.perf_counter()
        try:
            status, body = await asyncio.wait_for(
                conn.roundtrip(payload), REQUEST_TIMEOUT_S
            )
            return Answer(status, body, due, sent, time.perf_counter())
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError, IndexError):
            conn.close()  # reconnect on next use
            return Answer(None, b"", due, sent, time.perf_counter())

    async def run_phase(self, name: str, rate_rps: float,
                        schedule: Sequence[Tuple[float, Request]],
                        duration_s: float, drain_s: float = DRAIN_TIMEOUT_S,
                        ) -> Tuple[Phase, List[Answer]]:
        """Send ``schedule`` ((offset s, request) pairs, sorted, every
        offset under ``duration_s``) open-loop.

        Requests still queued ``drain_s`` after the window closes are
        abandoned: their answers have no status and they count as failed
        in the phase.
        """
        payloads = [encode(request) for _, request in schedule]
        answers: List[Optional[Answer]] = [None] * len(schedule)
        queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
        late_s: List[float] = []
        window_s: List[float] = []
        loop = asyncio.get_running_loop()
        start = time.perf_counter() + 0.01

        def dispatch() -> None:
            # A thread, not a task: the event loop's timers round up to
            # whole milliseconds, which would make every request late.
            for i, (offset, _) in enumerate(schedule):
                due = start + offset
                delay = due - time.perf_counter()
                while delay > 0:
                    time.sleep(delay)
                    delay = due - time.perf_counter()
                late_s.append(-delay)
                loop.call_soon_threadsafe(queue.put_nowait, (i, due))
            delay = start + duration_s - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            window_s.append(time.perf_counter() - start)

        async def work(conn: _Connection) -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                i, due = item
                answers[i] = await self._send(conn, payloads[i], due)

        workers = [asyncio.ensure_future(work(c)) for c in self._conns]
        # The generator's own collector pauses would read as server
        # latency; nothing it allocates in a phase forms cycles.
        gc.disable()
        try:
            # The executor's completion callback queues behind every put.
            await loop.run_in_executor(None, dispatch)
            backlog = queue.qsize()
            drain_deadline = time.perf_counter() + drain_s
            while queue.qsize() and time.perf_counter() < drain_deadline:
                await asyncio.sleep(0.005)
            while not queue.empty():  # abandoned
                queue.get_nowait()
            for _ in workers:
                queue.put_nowait(None)
            await asyncio.gather(*workers)
        finally:
            gc.enable()
        latencies = []
        for i, answer in enumerate(answers):
            if answer is None:
                due = start + schedule[i][0]
                answers[i] = answer = Answer(None, b"", due, due, math.inf)
            latencies.append(answer.done - answer.due if answer.ok
                             else math.inf)
        phase = Phase(name, rate_rps, latencies, backlog, late_s, window_s[0])
        return phase, [a for a in answers if a is not None]

    def close(self) -> None:
        for conn in self._conns:
            conn.close()
