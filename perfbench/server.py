"""A ``repro serve`` child process and a newline-JSON client for it."""

from __future__ import annotations

import json
import os
import re
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

_READY = re.compile(rb"on (\S+):(\d+)\s*$")
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class Server:
    """``python -m repro serve --index INDEX --port 0`` at the default
    cache size; stopped (and waited for) by :meth:`stop`."""

    def __init__(self, index: Path, source: Path, timeout: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--index", str(index),
             "--port", "0"],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], timeout)
            line = self.process.stdout.readline() if ready else b""
            found = _READY.search(line)
            if found is None:
                raise RuntimeError(
                    f"repro serve did not come up: {line!r}"
                )
        except BaseException:
            self.stop()
            raise
        self.host = found.group(1).decode()
        self.port = int(found.group(2))

    def _proc(self, name: str) -> str:
        return Path(f"/proc/{self.process.pid}/{name}").read_text()

    def cpu_s(self) -> float:
        """User plus system CPU time of the server so far."""
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * _TICK_S

    def peak_rss_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def connect(self) -> "Client":
        return Client(self.host, self.port)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Client:
    """One persistent connection; requests and replies are JSON lines."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def receive(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def request(self, payload: dict) -> dict:
        self.send(encode(payload))
        return json.loads(self.receive())

    def timed(self, line: bytes) -> tuple[bytes, float]:
        """Send *line*, wait for the reply; returns it and the ms taken."""
        started = time.perf_counter()
        self.send(line)
        reply = self.receive()
        return reply, (time.perf_counter() - started) * 1000.0

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def encode(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


def as_wire(payload: dict) -> dict:
    """*payload* as it reads back from the wire (tuples become lists)."""
    return json.loads(json.dumps(payload))
