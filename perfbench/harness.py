"""Server process control and the closed-loop measurement window.

One ``repro serve --threads 2`` subprocess per set-up; its address comes
from the ready line on stdout (no health polling).  The window runs one
thread per client, each sending its pre-encoded bodies back to back over
its own keep-alive :class:`~repro.api.ServiceClient` and storing the raw
responses; nothing is decoded until the window has closed.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPException
from pathlib import Path

from workloads import IN_SESSION, OPENS, SID

SERVER_THREADS = 2
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SID_KEY = b'"session_id": "'


class Server:
    """A running ``repro serve`` subprocess."""

    def __init__(self, root: Path, journal_dir=None, spans_path=None):
        serve_flags = ["--port", "0", "--threads", str(SERVER_THREADS)]
        if journal_dir is not None:
            serve_flags += ["--journal", str(journal_dir)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_flags]
        else:
            launcher = Path(__file__).resolve().parent / "serve_traced.py"
            command = [sys.executable, str(launcher), str(spans_path),
                       *serve_flags]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        try:
            self.host, self.port = self._read_address()
        except BaseException:
            self.stop()
            raise

    def _read_address(self) -> "tuple[str, int]":
        from repro.cluster import ADDRESS_RE

        deadline = time.monotonic() + READY_TIMEOUT_S
        buffered = b""
        while b"\n" not in buffered:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            if not ready:
                raise RuntimeError("repro serve printed no ready line in time")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"repro serve exited before its ready line "
                    f"(code {self.proc.poll()})"
                )
            buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        match = ADDRESS_RE.search(line)
        if match is None:
            raise RuntimeError(f"unexpected ready line: {line!r}")
        return match.group(1), int(match.group(2))

    def client(self):
        from repro.api import ServiceClient

        return ServiceClient(self.host, self.port)

    def stats(self) -> dict:
        with self.client() as client:
            status, body = client.request_raw(
                json.dumps({"api_version": 1, "type": "stats"}).encode()
            )
        if status != 200:
            raise RuntimeError(f"stats answered HTTP {status}: {body[:200]!r}")
        return json.loads(body)

    def cpu_s(self) -> float:
        """utime + stime of the server process, in seconds."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the serve loop's clean shutdown), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_script(client, ops: list) -> list:
    """Send ``ops`` in order on one client; returns raw records.

    A record is ``(start_ns, end_ns, status, response, session_id)``;
    status ``-1`` marks a transport failure.
    """
    records = []
    run_ops(client, ops, None, records)
    return records


def run_ops(client, ops: list, deadline_ns, records: list) -> bool:
    """The closed loop: next op only after the previous reply.

    Stops at ``deadline_ns`` (``None``: run every op).  Returns ``True``
    when the ops ran out before the deadline.
    """
    clock = time.perf_counter_ns
    request = client.request_raw
    sid = b""
    for body, kind in ops:
        start = clock()
        if deadline_ns is not None and start >= deadline_ns:
            return False
        if kind == IN_SESSION:
            body = body.replace(SID, sid)
        try:
            status, data = request(body)
        except (OSError, HTTPException):
            status, data = -1, b""
        end = clock()
        if kind == OPENS:
            at = data.find(_SID_KEY)
            if at < 0:
                sid = b""
            else:
                at += len(_SID_KEY)
                sid = data[at : data.index(b'"', at)]
        records.append((start, end, status, data, sid))
    return deadline_ns is not None


def window(server: Server, scripts: list, seconds: float) -> dict:
    """Run every client script concurrently for ``seconds``."""
    clients = [server.client() for _ in scripts]
    for client in clients:
        client.conn.connect()
    records = [[] for _ in scripts]
    exhausted = [False] * len(scripts)
    gate = threading.Barrier(len(scripts) + 1)
    deadline = [0]

    def loop(i: int) -> None:
        gate.wait()
        exhausted[i] = run_ops(clients[i], scripts[i], deadline[0], records[i])

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(scripts))]
    for thread in threads:
        thread.start()
    # This process allocates only response records in the window; keep its
    # collector from walking the pre-built inputs meanwhile.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        cpu_before = server.cpu_s()
        start = time.perf_counter_ns()
        deadline[0] = start + int(seconds * 1e9)
        gate.wait()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
        gc.unfreeze()
    end = max((r[-1][1] for r in records if r), default=start)
    cpu_after = server.cpu_s()
    for client in clients:
        client.close()
    return {
        "records": records,
        "exhausted": any(exhausted),
        "start_ns": start,
        "end_ns": end,
        "cpu_s": cpu_after - cpu_before,
    }
