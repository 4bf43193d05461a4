"""The benchmark's open-loop HTTP client, its request mixes and a null server.

One process drives a few keep-alive connections.  Every request has a
scheduled send time drawn from a Poisson process; a writer thread per
connection sends each request when it comes due (never waiting for
replies) and a reader thread matches replies in order.  Latency is
completion minus *scheduled* send, so a stall is charged to every
request queued behind it, and ``sent - scheduled`` measures how late
the generator itself ran.  Each reply body is hashed so the caller can
check it against an oracle.

This is deliberately a copy of ``repro.serve.loadgen``'s open-loop
machinery and endpoint mix, not a use of it: the oracle needs every
reply's body digest, which ``loadgen`` does not keep; the benchmark
needs a second mix (``LOOKUP_MIX``); and the measuring instrument must
not change when the code it measures (``src/``) changes, or a
"speed-up" could come from the client.  Do not merge it back.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import socket
import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LOADGEN_MIX",
    "LOOKUP_MIX",
    "Mix",
    "NullServer",
    "OpenLoop",
    "OpenRun",
    "build_targets",
    "derive_seed",
    "poisson_schedule",
]

#: Status recorded for a request lost to a transport failure.
TRANSPORT_ERROR = 599


def derive_seed(seed: int, label: str) -> int:
    """Independent stream seed for one phase of a run."""
    return (seed * 7_368_787 + zlib.crc32(label.encode())) & 0x7FFFFFFF


@dataclass(frozen=True)
class Mix:
    """Endpoint weights plus the Zipf exponent of entity/host/rank picks."""

    weights: tuple[tuple[str, float], ...]
    zipf: float


#: The repo load generator's mix (``repro.serve.loadgen``): reads
#: dominate, set cover is the expensive tenth.
LOADGEN_MIX = Mix(
    (("entity", 40), ("site", 20), ("coverage", 15), ("demand", 15), ("setcover", 10)),
    1.1,
)
#: Lookups only, flatter popularity: most requests miss the response
#: cache and reach the store.
LOOKUP_MIX = Mix((("entity", 40), ("site", 20), ("coverage", 15), ("demand", 15)), 0.5)

_SETCOVER_BUDGETS = (5, 10, 20, 50)
_REVIEW_COUNTS = (0, 1, 2, 4, 8, 16, 64, 256, 1024)
_DEMAND_SOURCES = ("search", "browse")


def build_targets(summary: dict, mix: Mix, seed: int, count: int) -> list[str]:
    """``count`` request targets drawn from a ``/healthz`` summary."""
    rng = np.random.default_rng(seed)
    pairs = summary["pairs"]
    sites = summary["traffic_sites"]
    names = [name for name, __ in mix.weights]
    weights = np.asarray([w for __, w in mix.weights], dtype=np.float64)
    endpoints = rng.choice(len(names), size=count, p=weights / weights.sum())
    pair_of = rng.integers(len(pairs), size=count)
    uniform = rng.random(count)
    small = rng.integers(1 << 30, size=(count, 2))
    cdfs: dict[int, np.ndarray] = {}

    def zipf_rank(n: int, u: float) -> int:
        cdf = cdfs.get(n)
        if cdf is None:
            weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** mix.zipf
            cdf = cdfs[n] = np.cumsum(weights) / weights.sum()
        return min(int(np.searchsorted(cdf, u, side="right")), n - 1)

    targets: list[str] = []
    for i in range(count):
        endpoint = names[int(endpoints[i])]
        pair = pairs[int(pair_of[i])]
        domain, attribute = pair["domain"], pair["attribute"]
        a, b = int(small[i, 0]), int(small[i, 1])
        if endpoint == "entity":
            entity = zipf_rank(pair["n_entities"], uniform[i])
            targets.append(f"/v1/entity/{domain}/{entity}/sites?attribute={attribute}")
        elif endpoint == "site":
            host = pair["top_hosts"][zipf_rank(len(pair["top_hosts"]), uniform[i])]
            targets.append(
                f"/v1/site/{host}/entities?domain={domain}&attribute={attribute}"
            )
        elif endpoint == "coverage":
            k = pair["ks"][a % len(pair["ks"])]
            top_t = zipf_rank(pair["n_sites"], uniform[i]) + 1
            targets.append(f"/v1/coverage/{domain}?attribute={attribute}&k={k}&t={top_t}")
        elif endpoint == "demand":
            site = sites[a % len(sites)]
            reviews = _REVIEW_COUNTS[b % len(_REVIEW_COUNTS)]
            source = _DEMAND_SOURCES[(a >> 8) % 2]
            targets.append(f"/v1/demand/{site}?n_reviews={reviews}&source={source}")
        else:
            budget = _SETCOVER_BUDGETS[b % len(_SETCOVER_BUDGETS)]
            targets.append(f"/v1/setcover/{domain}?attribute={attribute}&budget={budget}")
    return targets


def poisson_schedule(rate: float, count: int, seed: int) -> np.ndarray:
    """Arrival times (seconds from the start) of a Poisson process."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, count))


@dataclass
class OpenRun:
    """Per-request record of one open-loop phase (times in seconds)."""

    targets: list[str]
    scheduled: np.ndarray
    sent: np.ndarray = field(repr=False)
    done: np.ndarray = field(repr=False)
    status: np.ndarray = field(repr=False)
    digest: list[bytes | None] = field(repr=False)

    @property
    def latencies(self) -> np.ndarray:
        """Completion minus scheduled send, for completed requests."""
        ok = ~np.isnan(self.done)
        return (self.done - self.scheduled)[ok]

    @property
    def lags(self) -> np.ndarray:
        """Actual minus scheduled send, for requests that were sent."""
        ok = ~np.isnan(self.sent)
        return (self.sent - self.scheduled)[ok]

    @property
    def drain_ratio(self) -> float:
        """Span of the schedule over the span until the last reply."""
        if np.isnan(self.done).any():
            return 0.0
        finish = float(self.done.max()) - float(self.scheduled[0])
        return float(self.scheduled[-1] - self.scheduled[0]) / finish if finish > 0 else 0.0

    @property
    def achieved_rps(self) -> float:
        """Completed requests per second, first arrival to last reply."""
        completed = int((~np.isnan(self.done)).sum())
        if completed == 0:
            return 0.0
        return completed / (float(np.nanmax(self.done)) - float(self.scheduled[0]))


class _Replies:
    """In-order HTTP/1.1 response reader over one socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def next(self) -> tuple[int, bytes]:
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = bytes(self.buf[:end]).split(b"\r\n")
        del self.buf[: end + 4]
        length = 0
        for line in head[1:]:
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        while len(self.buf) < length:
            self._fill()
        body = bytes(self.buf[:length])
        del self.buf[:length]
        return int(head[0].split()[1]), body


class OpenLoop:
    """Keep-alive connections to one server, reused by every phase."""

    #: Seconds a socket operation may block, and the slack a phase may
    #: overrun its schedule by, before the phase counts as hung.
    TIMEOUT = 30.0

    def __init__(self, host: str, port: int, connections: int):
        """Open ``connections`` sockets to ``host:port``."""
        self.host = host
        self.sockets: list[socket.socket] = []
        self.replies: list[_Replies] = []
        try:
            for __ in range(connections):
                sock = socket.create_connection((host, port), timeout=self.TIMEOUT)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.sockets.append(sock)
                self.replies.append(_Replies(sock))
        except OSError:
            self.close()
            raise

    def close(self) -> None:
        """Close every connection."""
        for sock in self.sockets:
            sock.close()

    def __enter__(self) -> "OpenLoop":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, targets: list[str], scheduled: np.ndarray) -> OpenRun:
        """Send ``targets[i]`` at ``scheduled[i]``, round-robin over connections.

        A connection that breaks leaves its unanswered requests at
        ``TRANSPORT_ERROR``; later phases on it fail the same way.
        """
        n = len(targets)
        if len(scheduled) != n:
            raise ValueError("one scheduled time per target")
        run = OpenRun(
            targets=list(targets),
            scheduled=np.asarray(scheduled, dtype=np.float64),
            sent=np.full(n, np.nan),
            done=np.full(n, np.nan),
            status=np.full(n, TRANSPORT_ERROR, dtype=np.int32),
            digest=[None] * n,
        )
        count = len(self.sockets)
        lanes = [list(range(c, n, count)) for c in range(count)]
        payloads = [
            f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode("latin-1")
            for target in targets
        ]
        due = run.scheduled
        start = time.perf_counter()

        def writer(sock: socket.socket, lane: list[int]) -> None:
            j = 0
            try:
                while j < len(lane):
                    now = time.perf_counter() - start
                    wait = due[lane[j]] - now
                    if wait > 0:
                        time.sleep(min(0.002, wait))
                        continue
                    batch = bytearray()
                    while j < len(lane) and due[lane[j]] <= now:
                        run.sent[lane[j]] = now
                        batch += payloads[lane[j]]
                        j += 1
                    sock.sendall(batch)
            except OSError:
                pass  # the reader sees the broken connection and stops

        def reader(replies: _Replies, lane: list[int]) -> None:
            try:
                for i in lane:
                    status, body = replies.next()
                    run.done[i] = time.perf_counter() - start
                    run.status[i] = status
                    run.digest[i] = hashlib.sha256(body).digest()
            except (OSError, ConnectionError, ValueError, IndexError):
                pass  # unanswered requests keep TRANSPORT_ERROR

        threads = []
        for sock, replies, lane in zip(self.sockets, self.replies, lanes):
            threads.append(threading.Thread(target=writer, args=(sock, lane), daemon=True))
            threads.append(threading.Thread(target=reader, args=(replies, lane), daemon=True))
        # A cyclic collection over the growing records would stall every
        # writer at once; nothing here creates reference cycles.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(self.TIMEOUT + float(due[-1]) + 5.0)
        finally:
            if gc_was_enabled:
                gc.enable()
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("load generator threads did not finish")
        return run


# -- the null responder -----------------------------------------------------------


class NullApp:
    """Stub request handler: canned bytes, no work (generator calibration)."""

    worker_id = 0
    body = b'{"null":true}\n'

    def handle(self, target: str) -> tuple[int, bytes]:
        """Answer every target with the same 200 response."""
        return 200, self.body


def _serve_null(sock: socket.socket) -> None:
    from repro.serve.fasthttp import FastHTTPServer

    FastHTTPServer(NullApp(), sock).serve_forever()


class NullServer:
    """``FastHTTPServer`` around :class:`NullApp` in a forked process."""

    def __enter__(self) -> "NullServer":
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(512)
        self.port = self.sock.getsockname()[1]
        ctx = multiprocessing.get_context("fork")
        self.process = ctx.Process(target=_serve_null, args=(self.sock,), daemon=True)
        self.process.start()
        return self

    def __exit__(self, *exc) -> None:
        self.process.terminate()
        self.process.join(10.0)
        self.sock.close()
