"""The serve-mixed workload: an open-loop request stream against a
``python -m repro serve`` subprocess.

Requests go out on a fixed schedule whatever the replies do, over at most
``nproc`` connections, and each is timed from the moment it was due.  The
stream mixes first-sight programs (a cache miss: compile plus a disk
``put``) with repeats of a hot set (a hit: parse, key and ``get``).
``ServeClient`` allows one request in flight per connection, so the open
loop writes protocol lines itself with :mod:`repro.serve.protocol` and
uses ``ServeClient`` for warm-up, ``status`` and ``shutdown``.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

import repro.batch.driver as driver
from repro.batch.cache import ScheduleCache
from repro.core.display import disassemble
from repro.machine import WARP
from repro.serve import ServeClient
from repro.serve.protocol import decode_line, encode_line
from repro.workloads import generate_suite

from perfbench import layers
from perfbench.common import (
    PIPELINED,
    Outcome,
    Quality,
    compile_text,
    direct,
    latency_metrics,
    quality_metrics,
)
from perfbench.measure import (
    HostSpeed,
    Tracer,
    clock,
    median,
    percentile,
)


class Server:
    """One ``python -m repro serve`` subprocess with a fresh disk cache."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        # Relative to the checkout root, which is every process's working
        # directory, so the socket path stays short.
        self.socket = str(workdir.relative_to(root) / "serve.sock")
        self.cache_dir = str(workdir.relative_to(root) / "cache")
        self.process: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket, "--jobs", "1", "--backend", "thread",
             "--cache-dir", self.cache_dir],
            cwd=self.root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=lambda: os.sched_setaffinity(0, {SHARED_CPU}),
        )
        deadline = clock() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"compile server exited with {self.process.returncode}")
            try:
                with ServeClient(socket_path=self.socket, timeout=5.0) as c:
                    c.status()
                return
            except OSError:
                if clock() > deadline:
                    raise RuntimeError("compile server did not start")
                time.sleep(0.005)

    def client(self) -> ServeClient:
        return ServeClient(socket_path=self.socket, timeout=60.0)

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used (Linux
        ``/proc/<pid>/stat``)."""
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15; the split starts at field 3.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (Linux ``VmHWM``)."""
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                with self.client() as c:
                    c.shutdown()
                self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired, RuntimeError):
            self.process.kill()
            self.process.wait(timeout=30)
        finally:
            self.process = None
            shutil.rmtree(self.workdir, ignore_errors=True)


class Request:
    __slots__ = ("rid", "name", "source", "first_sight", "disasm", "due",
                 "sent", "done", "server_s", "ok", "error", "code_size",
                 "disasm_text")

    def __init__(self, rid: int, name: str, source: str, first_sight: bool,
                 disasm: bool) -> None:
        self.rid = rid
        self.name = name
        self.source = source
        self.first_sight = first_sight
        self.disasm = disasm
        self.due = self.sent = self.done = 0.0
        self.server_s = 0.0
        self.ok = False
        self.error: Optional[str] = None
        self.code_size = -1
        self.disasm_text: Optional[str] = None

    def payload(self) -> dict[str, Any]:
        body: dict[str, Any] = {"op": "compile", "id": self.rid,
                                "name": self.name, "source": self.source}
        if self.disasm:
            body["disasm"] = True
        return body


#: The core the server and the request generator share, so that the
#: generator's samples of the host's speed describe the server's core.
SHARED_CPU = min(os.sched_getaffinity(0))

#: The generator samples the host's speed only when it has this long left
#: before the next request is due, so a sample never makes a send late.
TICK_MARGIN_S = 0.004


def open_loop(sock_path: str, requests: list[Request], rate: float,
              connections: int, host: Optional[HostSpeed] = None,
              drain_timeout: float = 60.0) -> dict[str, Any]:
    """Send ``requests`` at ``rate`` per second, each on the connection
    with the fewest unanswered requests, and collect every reply.

    With ``host``, the generator samples the host's speed between sends
    while no request is unanswered, so that no reply waits on a sample."""
    lock = threading.Lock()
    idle = threading.Event()
    idle.set()
    outstanding = [0] * connections
    answered = [0]
    all_done = threading.Event()
    by_id = {request.rid: request for request in requests}
    socks = []
    for _ in range(connections):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(sock_path)
        socks.append(sock)

    def read(index: int) -> None:
        stream = socks[index].makefile("rb")
        try:
            for line in stream:
                now = clock()
                reply = decode_line(line)
                request = by_id.get(reply.get("id"))
                if request is None:
                    continue
                kind = reply.get("type")
                if kind == "result":
                    request.ok = bool(reply.get("ok"))
                    request.code_size = reply.get("code_size", -1)
                    request.disasm_text = reply.get("disasm")
                    if not request.ok:
                        request.error = str(reply.get("error"))
                    continue
                if kind == "done":
                    request.server_s = float(reply.get("seconds", 0.0))
                else:
                    request.ok = False
                    request.error = str(reply.get("message", reply))
                request.done = now
                with lock:
                    outstanding[index] -= 1
                    answered[0] += 1
                    if not any(outstanding):
                        idle.set()
                    if answered[0] == len(requests):
                        all_done.set()
        except (OSError, ValueError):
            pass
        finally:
            stream.close()

    readers = [threading.Thread(target=read, args=(i,), daemon=True)
               for i in range(connections)]
    for reader in readers:
        reader.start()
    backlog: list[int] = []
    start = clock() + 0.05
    try:
        for index, request in enumerate(requests):
            request.due = start + index / rate
            if host is not None and idle.wait(
                    max(0.0, request.due - clock() - TICK_MARGIN_S)):
                if request.due - clock() > TICK_MARGIN_S:
                    host.tick()
            delay = request.due - clock()
            if delay > 0:
                time.sleep(delay)
            with lock:
                idle.clear()
                target = min(range(connections), key=outstanding.__getitem__)
                outstanding[target] += 1
                backlog.append(sum(outstanding) - 1)
            request.sent = clock()
            socks[target].sendall(encode_line(request.payload()))
        sent_all = clock()
        all_done.wait(drain_timeout)
    finally:
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for reader in readers:
            reader.join(timeout=10)
    return {"backlog": backlog, "send_seconds": sent_all - start}


class ServeMixed:
    """A quarter first-sight programs, the rest repeats of a hot set, at a
    fixed offered rate.

    The hot set and the first-sight programs come from fixed suites and
    the seed sets the stream: where the first-sight requests fall, their
    order, and which hot program each repeat asks for.  A first-sight
    request compiles a program of its own, so with seeded programs the
    slow end of the latency distribution moved with the draw; fixed
    programs leave it to the server.
    """

    name = "serve-mixed"
    #: Offered load, requests per second: two thirds of the 60 requests/s
    #: a fine ladder measured as serve_max_rps on a 2-vCPU VM (README).
    rate = 40.0
    tail_q = 95
    miss_share = 0.25
    #: The hot set is the default 72-program suite, the programs the
    #: server's own ``suite`` request compiles.
    hot_programs = 72
    hot_seed = 1988
    fresh_seed = 4000
    #: The latency limit a request must meet to count as served.
    limit_s = 0.050
    #: Share of requests that ask for the disassembly, compared with an
    #: in-process compile of the same source.
    disasm_share = 0.05
    #: The generator is late, and the run invalid, beyond this.
    max_late_s = 0.010
    #: Host-speed samples taken just before and just after the window.
    edge_ticks = 10

    #: The rate ladder after the main window: multiples of ``rate``.  Each
    #: rung sends ``rung_requests`` requests and is judged by its
    #: ``ladder_q`` latency, which has ten samples beyond it.
    ladder = (1.25, 1.5, 1.75, 2.0, 2.5)
    rung_requests = 200
    ladder_q = 95

    def __init__(self, seed: int, seconds: float, root: Path,
                 tag: str = "main") -> None:
        self.rng = random.Random(seed)
        self.connections = max(1, min(2, os.cpu_count() or 1))
        self.hot = [
            (f"hot{index}", program.source)
            for index, program in enumerate(
                generate_suite(seed=self.hot_seed)[: self.hot_programs])
        ]
        self.requests = self.stream(round(self.rate * seconds), 0)
        self.server = Server(
            root, root / ".perfbench" / "work" / f"serve-{os.getpid()}-{tag}")

    def stream(self, count: int, part: int) -> list[Request]:
        """``count`` requests, a quarter of them first sight; ``part``
        keeps the first-sight programs of the main window and of each
        ladder rung apart."""
        count = max(1, count)
        misses = round(count * self.miss_share)
        first = self.fresh_seed + 100 * part
        fresh = [
            (f"new{suite}.{program.name}", program.source)
            for suite in range(first, first + misses // 72 + 1)
            for program in generate_suite(seed=suite)
        ][:misses]
        self.rng.shuffle(fresh)
        # One first-sight request at a seeded place in each stretch of
        # count / misses requests: placed freely, the draw decided how
        # often misses queued behind one another, and so the p95, which
        # spread 20% over ten seeds.
        edges = [round(k * count / misses) for k in range(misses + 1)]
        fresh_at = {self.rng.randrange(edges[k], edges[k + 1])
                    for k in range(misses)}
        requests = []
        for rid in range(count):
            disasm = self.rng.random() < self.disasm_share
            if rid in fresh_at:
                name, source = fresh.pop()
            else:
                name, source = self.rng.choice(self.hot)
            requests.append(
                Request(rid, name, source, rid in fresh_at, disasm))
        return requests

    def setup(self, stage: Callable[..., Any] = direct) -> None:
        """Start the server and send the hot set once, so that the window
        sees the hot set as hits.  Runs on the server's core, so that a
        timed set-up samples the host there."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {SHARED_CPU})
        try:
            stage(self.server.start)
            with self.server.client() as client:
                for name, source in self.hot:
                    reply = stage(client.compile, source, name=name)
                    if not reply.get("ok"):
                        raise RuntimeError(
                            f"warm-up compile of {name} failed")
        finally:
            os.sched_setaffinity(0, cpus)

    def close(self) -> None:
        self.server.stop()

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        outcome = Outcome()
        with self.server.client() as client:
            before = client.status()["stats"]
        cpu_before = self.server.cpu_seconds()
        polls: list[dict[str, Any]] = []
        stop_polling = threading.Event()
        poller = None
        if tracer is not None:
            poller = threading.Thread(target=self._poll,
                                      args=(polls, stop_polling), daemon=True)
            poller.start()
        # Samples of the host's speed: a few before and after the window,
        # the rest taken by the generator while the server is idle.
        host = HostSpeed()
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {SHARED_CPU})
        try:
            for _ in range(self.edge_ticks):
                host.tick()
            loop = open_loop(self.server.socket, self.requests, self.rate,
                             self.connections, host)
            for _ in range(self.edge_ticks):
                host.tick()
        finally:
            os.sched_setaffinity(0, cpus)
            stop_polling.set()
            if poller is not None:
                poller.join(timeout=10)
        with self.server.client() as client:
            after = client.status()["stats"]
        cpu = self.server.cpu_seconds() - cpu_before
        rss = self.server.peak_rss_mb()
        for problem in self._open_loop_problems(self.requests, loop,
                                                outcome.details):
            outcome.fail(problem)
        if tracer is None:
            window_tail = percentile(
                [r.done - r.due if r.ok and r.done else float("inf")
                 for r in self.requests], self.ladder_q)
            outcome.details["ladder"] = self._ladder(
                not outcome.failures and window_tail <= self.limit_s)
        self.close()

        outcome.attempted = len(self.requests)
        latencies = []
        for request in self.requests:
            if request.ok and request.done:
                # Rescaled by the samples the generator took on the shared
                # core just before the request was due and just after the
                # server went idle again.
                latencies.append(host.normalise(request.done - request.due,
                                                request.due))
            else:
                latencies.append(float("inf"))
                outcome.fail(f"request {request.rid} ({request.name}):"
                             f" {request.error or 'no reply'}")
        quality = self._check_code(outcome)

        # Requests answered per second the server spent on them (the
        # ``done`` reply's seconds, each rescaled like the latency): the
        # server's own cost per request, which the offered rate does not
        # set.  With one worker it bounds the rate the server can sustain.
        answered = [r for r in self.requests if r.ok and r.done]
        within = sum(1 for value in latencies if value <= self.limit_s)
        outcome.details["window"] = {
            "units": "requests", "offered_rate": self.rate,
            "requests": len(self.requests),
            "first_sight": sum(r.first_sight for r in self.requests),
            "within_limit": within, "limit_ms": self.limit_s * 1e3,
            "connections": self.connections,
            "server_cpu_s": round(cpu, 3),
        }
        outcome.details["host"] = host.summary()
        if tracer is None:
            busy = sum(host.normalise(r.server_s, r.sent) for r in answered)
            outcome.end_to_end["units_per_s"] = (
                len(answered) / max(busy, 1e-6), "1/s")
            latency_metrics(outcome, latencies, "requests, from due time",
                            self.tail_q)
            quality_metrics(outcome, quality)
            outcome.end_to_end["peak_rss_mb"] = (rss, "MB")
            return outcome

        outcome.details["quality"] = quality.summary()
        for request in answered:
            tracer.add("serve.request", request.due, request.done,
                       unit=request.rid)
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        replay = self._replay(seconds, tracer)
        late = [r.sent - r.due for r in self.requests]
        extra = {
            "core.code_words": quality.code_words,
            "core.ii_sum": quality.ii_sum,
            "batch.cache_hit_pct": 100.0 * hits / max(1, hits + misses),
            "batch.pool_utilization": (
                sum(p["pool"]["utilization"] for p in polls) / len(polls)
                if polls else 0.0),
            "serve.queue_depth_max": max(
                (p["queue_depth"] for p in polls), default=0),
            "serve.server_ms": median([r.server_s for r in answered]) * 1e3,
            "serve.transport_ms": median(
                [r.done - r.sent - r.server_s for r in answered]) * 1e3,
            "loadgen.late_p99_ms": percentile(late, 99) * 1e3,
            "obs.trace_overhead_pct": replay["overhead_pct"],
        }
        outcome.details["replay"] = replay
        outcome.details["phase_shares_pct"] = layers.phase_shares(tracer)
        outcome.layers = layers.metrics(tracer, replay["units"], extra)
        return outcome

    def _poll(self, polls: list[dict[str, Any]],
              stop: threading.Event) -> None:
        with self.server.client() as client:
            while not stop.wait(0.1):
                polls.append(client.status()["stats"])

    def _open_loop_problems(self, requests: list[Request],
                            loop: dict[str, Any],
                            report: dict[str, Any]) -> list[str]:
        """Why a window is not an honest open loop at its rate: the
        generator fell behind its schedule, or the backlog grew."""
        rate = len(requests) / max(1e-9, loop["send_seconds"])
        late_p99 = percentile([r.sent - r.due for r in requests], 99)
        backlog = loop["backlog"]
        third = max(1, len(backlog) // 3)
        first = sum(backlog[:third]) / third
        last = sum(backlog[-third:]) / third
        report["open_loop"] = {
            "late_p99_ms": round(late_p99 * 1e3, 3),
            "backlog_first_third": round(first, 2),
            "backlog_last_third": round(last, 2),
            "backlog_at_end": backlog[-1] if backlog else 0,
        }
        problems = []
        if late_p99 > self.max_late_s:
            problems.append(f"invalid run: the generator sent late (p99"
                            f" {late_p99 * 1e3:.1f} ms)")
        if last - first > max(2.0, rate * self.limit_s):
            problems.append(f"invalid run: the backlog grew from {first:.1f}"
                            f" to {last:.1f} at {rate:.0f} requests/s")
        return problems

    def _ladder(self, base_ok: bool) -> dict[str, Any]:
        """``serve_max_rps``: the highest rate, the main window's
        included, at which the ``ladder_q`` latency stays within the limit
        with no growing backlog.  The ladder stops at the first rung that
        misses."""
        rungs = []
        best = self.rate if base_ok else 0.0
        for part, factor in enumerate(self.ladder if base_ok else (), 1):
            rate = self.rate * factor
            requests = self.stream(self.rung_requests, part)
            loop = open_loop(self.server.socket, requests, rate,
                             self.connections)
            latencies = [r.done - r.due if r.ok and r.done else float("inf")
                         for r in requests]
            tail = percentile(latencies, self.ladder_q)
            detail: dict[str, Any] = {
                "rate": rate, f"p{self.ladder_q}_ms": tail * 1e3}
            problems = self._open_loop_problems(requests, loop, detail)
            ok = tail <= self.limit_s and not problems
            detail["ok"] = ok
            rungs.append(detail)
            if not ok:
                break
            best = rate
        return {"serve_max_rps": best, "rungs": rungs}

    def _check_code(self, outcome: Outcome) -> Quality:
        """Compile the hot set and every first-sight program in process:
        each served code size, and each sampled served disassembly, must
        equal the in-process result.  The quality metrics describe that
        code, the same set whatever order the seed gives the stream."""
        quality = Quality()
        local: dict[str, tuple[int, str]] = {}
        programs = dict(self.hot)
        programs.update((r.name, r.source) for r in self.requests)
        for name, source in programs.items():
            try:
                program, compiled = compile_text(source)
            except Exception as exc:
                outcome.fail(f"{name}: in-process compile failed:"
                             f" {type(exc).__name__}: {exc}")
                continue
            text = disassemble(compiled.code)
            quality.add(name, program, compiled, text)
            local[name] = (compiled.code_size, text)
        for request in self.requests:
            if not request.ok or request.name not in local:
                continue
            size, text = local[request.name]
            if request.code_size != size:
                outcome.fail(f"request {request.rid} ({request.name}): served"
                             f" {request.code_size} words, in-process {size}")
            elif request.disasm and request.disasm_text != text:
                outcome.fail(f"request {request.rid} ({request.name}): served"
                             " code differs from the in-process compile")
        return quality

    def _replay(self, seconds: float, tracer: Tracer) -> dict[str, Any]:
        """Replay the stream in process through ``compile_one``, each time
        against a fresh disk-backed ``ScheduleCache`` warmed with the hot
        set: in pairs, one untraced and one traced, alternating which goes
        first, until ``seconds`` have passed."""
        busy = {False: 0.0, True: 0.0}
        runs = {False: 0, True: 0}
        start = clock()
        pairs = 0
        while pairs < 1 or clock() - start < seconds:
            order = (False, True) if pairs % 2 == 0 else (True, False)
            for traced in order:
                busy[traced] += self._replay_once(tracer, traced)
                runs[traced] += 1
            pairs += 1
        return {
            "units": runs[True] * len(self.requests),
            "pairs": pairs,
            "untraced_s": round(busy[False], 4),
            "traced_s": round(busy[True], 4),
            "overhead_pct": (busy[True] / busy[False] - 1.0) * 100.0,
        }

    def _replay_once(self, tracer: Tracer, traced: bool) -> float:
        path = self.server.workdir.with_name(
            self.server.workdir.name + "-replay")
        shutil.rmtree(path, ignore_errors=True)
        cache = ScheduleCache(path)
        try:
            for name, source in self.hot:
                driver.compile_one(name, source, WARP, PIPELINED,
                                   cache=cache)
            if traced:
                layers.install(tracer)
            t0 = clock()
            try:
                for request in self.requests:
                    tracer.unit = request.rid
                    driver.compile_one(request.name, request.source,
                                       WARP, PIPELINED, cache=cache)
            finally:
                elapsed = clock() - t0
                tracer.restore()
            return elapsed
        finally:
            shutil.rmtree(path, ignore_errors=True)
