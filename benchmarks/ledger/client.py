"""The load generator's side of the socket: the served child process
(real ``python -m repro.cli``), CPU pinning, ``/proc`` accounting and a
minimal raw-socket HTTP/1.1 client.

No ``http.client`` and no JSON decoding happen inside a timed region:
requests are pre-encoded bytes, responses are split into status and body
bytes and inspected after the clock has stopped.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[2]
SRC = CHECKOUT / "src"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def pin_plan() -> dict:
    """Which CPU the generator and the server tree get.

    Generator on the first allowed CPU, server tree on the last; with a
    single CPU nothing is pinned (and the ledger says so)."""
    allowed = sorted(os.sched_getaffinity(0))
    pinned = len(allowed) >= 2
    return {
        "nproc": os.cpu_count(),
        "affinity": allowed,
        "pinned": pinned,
        "generator_cpu": allowed[0] if pinned else None,
        "server_cpu": allowed[-1] if pinned else None,
    }


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("LOTUSX_FAULT_SPEC", None)
    return env


def run_cli(args: list[str], cpu: int | None) -> None:
    """Run one ``lotusx`` subcommand to completion on ``cpu``."""
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=cli_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        preexec_fn=_pinner(cpu),
    )


def _pinner(cpu: int | None):
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``lotusx serve`` child in its own process group."""

    def __init__(self, serve_args: list[str], cpu: int | None, log_path: Path) -> None:
        self.port = free_port()
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", *serve_args,
                "--port", str(self.port),
            ],
            env=cli_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
            preexec_fn=_pinner(cpu),
        )

    def wait_ready(self, timeout: float = 60.0) -> "Connection":
        """Block until ``GET /api/stats`` answers 200; returns the
        keep-alive connection that got the answer."""
        request = encode_get("/api/stats")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before serving"
                )
            try:
                connection = Connection(self.port)
            except OSError:
                time.sleep(0.002)
                continue
            try:
                status, _ = connection.roundtrip(request)
            except OSError:
                connection.close()
                time.sleep(0.002)
                continue
            if status == 200:
                return connection
            connection.close()
        raise RuntimeError("server did not answer /api/stats in time")

    def tree(self) -> list[int]:
        """The server pid and every live descendant."""
        pids = [self.process.pid]
        for pid in pids:
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for task in tasks:
                try:
                    children = Path(f"/proc/{pid}/task/{task}/children").read_text()
                except OSError:
                    continue
                pids.extend(int(child) for child in children.split())
        return pids

    def cpu_seconds(self) -> float:
        """user+sys CPU of the whole tree, reaped children included."""
        total = 0
        for pid in self.tree():
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue
            # Fields after the parenthesised command name; utime, stime,
            # cutime, cstime are fields 14-17 of the full line.
            fields = stat.rsplit(")", 1)[1].split()
            total += sum(int(fields[i]) for i in (11, 12, 13, 14))
        return total / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the tree, in MB."""
        total_kb = 0
        for pid in self.tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def kill(self) -> None:
        """SIGKILL the whole process group and reap the server."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._log.close()


def encode_get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: ledger\r\n\r\n".encode("latin-1")


class Connection:
    """One keep-alive connection; ``roundtrip`` is the timed primitive."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def roundtrip(self, request: bytes) -> tuple[int, bytes]:
        """Send ``request``; return ``(status, body bytes)``."""
        sock = self._sock
        sock.sendall(request)
        buffer = self._buffer
        while True:
            head_end = buffer.find(b"\r\n\r\n")
            if head_end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head = buffer[:head_end]
        mark = head.find(b"Content-Length: ")
        if mark < 0:
            raise ConnectionError("response without Content-Length")
        length = int(head[mark + 16 : head.find(b"\r\n", mark)])
        end = head_end + 4 + length
        while len(buffer) < end:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buffer += chunk
        self._buffer = buffer[end:]
        return int(head[9:12]), buffer[head_end + 4 : end]

    def close(self) -> None:
        self._sock.close()
