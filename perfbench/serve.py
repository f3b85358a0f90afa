"""The ``serve-mixed`` workload: an open loop against a live server process.

The server runs in its own process (``server_proc.py``, started through
the public ``repro.server.serve`` with two workers).  Two sessions each
hold a 2000-row Zipf ``emp`` and the prepared ``pick``/``pair`` program.
One connection per session carries pipelined requests matched by ``id``;
the blocking set-up, ``stats``, ``recent`` and ``shutdown`` requests go
over one more, a :class:`repro.server.client.ServerClient`.

The generator is one sender thread (the caller's) and one reader thread:
no more threads than the two cores it was sized for.  Requests are due on
an evenly spaced schedule at a fixed rate; 90% are ``run`` (``mode:
one``) and 10% ``assert_facts`` of one new row, drawn from the seed.
Latency is timed from when a request was due, so a stall charges every
request queued behind it; how late the sender ran is reported, and a run
whose sender fell behind is marked invalid.

The untraced run spends half its time at the reference rate (the latency
metrics) and half in bursts that queue more than the server can answer
(its capacity, ``queries_per_s``).  The traced run adds the latency-
limited max rate search as the per-layer ``server.max_rate_rps``.

The server is pinned to one CPU and the client to the others.  Times and
the capacity are reported at the reference host speed (see ``common``),
scaled by the speed of the server's CPU, which ``probe.py`` measures
next to every request and in the idle flanks of every phase.
"""

from __future__ import annotations

import gc
import json
import os
import random
import selectors
import socket
import subprocess
import sys
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter, sleep

from common import (BENCH_DIR, NOMINAL_KERNEL_S, PER_LAYER, SAMPLE_K,
                    SAMPLE_PROGRAM, Outcome, clean_env, median, out_path,
                    overhead_pct, percentile, query_seed, raw_note,
                    zipf_emp_rows)

from checks import SampleChecker, check_writes
from inproc import layer_probes
from spans import ROOT_LAYER, ledger_metrics

from repro.server.client import ServerClient
from repro.server.protocol import ServerError, decode, encode

#: Every set-up starts a new server process, so ``run.py`` repeats it in
#: this process; the client side holds nothing a set-up reuses.
SETUP_STARTS_SERVER = True
SETUP_REPEATS = 5
SESSIONS = 2
SESSION_ROWS = 2000
WRITE_SHARE = 0.10
#: The fixed rate the latency metrics are reported at: under half of what
#: two workers sustained on a 2-core x86 host, so that two evaluations
#: seldom overlap (overlapping ones share one interpreter lock and each
#: take twice as long).
REFERENCE_RATE = 10.0
#: Share of the run at the reference rate; the rest measures capacity.
REFERENCE_SHARE = 0.6
#: ``queries_per_s`` on this workload is the server's capacity: requests
#: answered per second with a backlog always waiting.  Bursts send
#: ``BURST_RATE`` requests/s for ``BURST_S``, more than the server answers
#: in that time, and each is followed by its drain and an idle flank.
BURST_RATE, BURST_S = 80.0, 0.25
MIN_BURSTS = 3
#: The traced run's ``server.max_rate_rps``: the highest rate on the grid
#: ``REFERENCE_RATE * GRID_STEP**j`` whose run p95 stays within the limit
#: with no growing backlog.  Adjacent grid rates are 7% apart, and
#: ``DOUBLING_STEPS`` grid steps double the rate.
LATENCY_LIMIT_MS = 100.0
GRID_STEP = 1.07
DOUBLING_STEPS = 10
MAX_PROBES = 5
#: A sender more than this late at p99 did not keep to the schedule.
MAX_LAG_P99_MS = 50.0
DRAIN_TIMEOUT_S = 30.0
RECENT_CAPACITY = 100_000
PROGRAM_NAME = "sample"
#: A request's host speed is the median probe sample taken from this long
#: before it was due to this long after it was answered (widened until
#: ``SPEED_MIN_SAMPLES`` samples fall inside).
SPEED_MARGIN_S = 0.1
SPEED_MIN_SAMPLES = 5
#: Idle time before and after each phase and each set-up, in which the
#: probe measures the host speed a whole phase is scaled by (a burst, or a
#: set-up, leaves the probe too little of the CPU to measure it inside).
FLANK_S = 0.1


def cpu_plan() -> tuple[int, set[int]]:
    """(the server's CPU, the client's CPUs); one CPU serves both."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1], set(cpus[:-1]) or {cpus[-1]}


class HostProbe:
    """``probe.py`` on the server's CPU, and the samples it took."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=clean_env())
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the host-speed probe did not start")
        self.ends: list[float] = []
        self.kernels: list[float] = []

    def collect(self) -> None:
        """Fetch the samples taken since the last call."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        for end, kernel in json.loads(self.proc.stdout.readline()):
            self.ends.append(end)
            self.kernels.append(kernel)

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel seconds the probe measured around ``start..end``."""
        margin = SPEED_MARGIN_S
        while True:
            lo = bisect_left(self.ends, start - margin)
            hi = bisect_right(self.ends, end + margin)
            if hi - lo >= SPEED_MIN_SAMPLES or margin > 60.0:
                break
            margin *= 2
        if hi == lo:
            raise RuntimeError("the host-speed probe took no samples")
        return median(self.kernels[lo:hi])

    def flank_kernel_s(self, start: float, end: float) -> float:
        """Median kernel seconds in the ``FLANK_S`` before ``start`` and
        after ``end``."""
        before = self.kernels[bisect_left(self.ends, start - FLANK_S):
                              bisect_right(self.ends, start)]
        after = self.kernels[bisect_left(self.ends, end):
                             bisect_right(self.ends, end + FLANK_S)]
        if not before + after:
            raise RuntimeError("the host-speed probe took no samples")
        return median(before + after)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class ServerProcess:
    """The server child and its probe: started, addressed, always stopped."""

    def __init__(self) -> None:
        self.cpu, client_cpus = cpu_plan()
        os.sched_setaffinity(0, client_cpus)
        self.probe = HostProbe(self.cpu)
        self.proc = None
        self.control = None
        self.peak_rss_mb = None

    def start(self) -> None:
        log = open(out_path("server.log"), "a", encoding="utf-8")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "server_proc.py"),
                 str(RECENT_CAPACITY), str(self.cpu)],
                stdout=subprocess.PIPE, stderr=log, text=True,
                env=clean_env())
        finally:
            log.close()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited before it was ready")
        self.port = json.loads(line)["port"]
        self.control = ServerClient.connect_tcp("127.0.0.1", self.port,
                                                timeout=60)

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def stop(self) -> None:
        """Shut the server down (or kill it); read its peak resident set."""
        if self.proc is None:
            self.probe.close()
            return
        if self.proc.poll() is None:
            try:
                if self.control is None:
                    raise OSError("no control connection")
                self.control.call("shutdown")
                self.proc.wait(timeout=15)
            except (OSError, ServerError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        if self.control is not None:
            self.control.close()
        lines = self.proc.stdout.read().splitlines()
        self.proc.stdout.close()
        self.probe.close()
        if self.proc.returncode == 0 and lines:
            #: The server process's peak resident set, in MiB.
            self.peak_rss_mb = json.loads(lines[-1])["peak_rss_mb"]


class Session:
    """One server session and what the client knows about its ``emp``."""

    def __init__(self, index: int, seed: int, sock: socket.socket) -> None:
        self.index = index
        self.sock = sock
        self.base = zipf_emp_rows(SESSION_ROWS, f"{seed}/{index}")
        #: Rows of sent writes, in send order (a row is unique per write).
        self.sent: list[tuple] = []
        #: Indexes into ``sent`` of acknowledged writes.
        self.acked: list[int] = []
        self.id = None

    def open(self, control: ServerClient) -> None:
        self.id = control.call("open_session")["session"]
        control.call("assert_facts", session=self.id,
                     facts={"emp": [list(r) for r in self.base]})
        control.call("prepare", session=self.id, name=PROGRAM_NAME,
                     program=SAMPLE_PROGRAM)


def run_fields(session: Session, seed: int, number: int,
               profile: bool = False) -> dict:
    """The fields of a ``run`` request (all but ``type`` and ``id``)."""
    fields = {"session": session.id, "prepared": PROGRAM_NAME,
              "mode": "one", "seed": query_seed(seed, number),
              "query": ["pick", "pair"]}
    if profile:
        fields["profile"] = True
    return fields


class Setup:
    """Server start, two loaded sessions and a first cold run on each.

    ``seconds`` is at the reference host speed; ``raw_seconds`` as timed.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server = ServerProcess()
        self.probe = self.server.probe
        try:
            sleep(FLANK_S)
            start = perf_counter()
            self.server.start()
            control = self.server.control
            self.sessions = [Session(i, seed, self.server.connect())
                             for i in range(SESSIONS)]
            for session in self.sessions:
                session.open(control)
            first = perf_counter()
            answers = [control.call("run", **run_fields(s, seed, -1))
                       for s in self.sessions]
            end = perf_counter()
            self.first_call_s = (end - first) / SESSIONS
            self.raw_seconds = end - start
            sleep(FLANK_S)
            self.probe.collect()
            self.seconds = self.raw_seconds * NOMINAL_KERNEL_S \
                / self.probe.flank_kernel_s(start, end)
        except BaseException:
            self.close()
            raise
        self.checkers = [SampleChecker(s.base, SAMPLE_K)
                         for s in self.sessions]
        self.first_problems = [
            problem for checker, result in zip(self.checkers, answers)
            for problem in checker.check(result["answers"]["pick"],
                                         result["answers"]["pair"])]

    def close(self) -> None:
        for session in getattr(self, "sessions", []):
            session.sock.close()
        self.server.stop()


class Request:
    __slots__ = ("number", "kind", "session", "due", "sent", "encode_s",
                 "received", "decode_s", "done", "bytes", "response",
                 "write_index", "acked_at_send", "sent_at_done", "scale")

    def __init__(self, number, kind, session, due):
        self.number, self.kind, self.session, self.due = \
            number, kind, session, due
        self.response = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def scaled_ms(self) -> float:
        """Latency at the reference host speed, in ms."""
        return self.latency_s * self.scale * 1000.0


class Phase:
    """The requests of one fixed-rate phase and the host speed it ran at.

    Each request is scaled by the probe samples around it; the phase as a
    whole by the samples in its idle flanks (``FLANK_S``).
    """

    def __init__(self, rate: float, requests: list[Request],
                 probe: HostProbe) -> None:
        self.rate = rate
        self.requests = requests
        probe.collect()
        for req in requests:
            req.scale = NOMINAL_KERNEL_S / probe.kernel_s(req.due, req.done)
        self.kernel_s = probe.flank_kernel_s(
            requests[0].due, max(r.done for r in requests))

    @property
    def scale(self) -> float:
        return NOMINAL_KERNEL_S / self.kernel_s

    def latencies_ms(self, kind: str, scaled: bool = True) -> list[float]:
        """Latencies, each at the reference host speed (or as timed)."""
        return [req.scaled_ms if scaled else req.latency_s * 1000.0
                for req in self.requests if req.kind == kind]


class LoadGenerator:
    """Sends on schedule from the calling thread; one thread reads."""

    def __init__(self, setup: Setup) -> None:
        self.setup = setup
        self.sessions = setup.sessions
        self.next_id = 100
        self.next_number = 0
        self.rng = random.Random(f"schedule/{setup.seed}")
        self.row_rng = random.Random(f"writes/{setup.seed}")
        self.write_no = 0

    def phase(self, rate: float, seconds: float, profile: bool = False,
              ) -> Phase:
        """Requests due every ``1/rate`` s for ``seconds``; all answered."""
        count = max(1, round(rate * seconds))
        by_id: dict[int, Request] = {}
        lock = threading.Lock()
        outstanding = [0]
        finished = threading.Event()
        sending_done = threading.Event()
        reader = threading.Thread(
            target=self._read, args=(by_id, lock, outstanding, finished,
                                     sending_done), daemon=True)
        # The client's cyclic collector would pause the sender for tens of
        # milliseconds once a phase's answers are resident; nothing the
        # generator builds is cyclic, so it is off while a phase runs.
        gc.collect()
        gc.disable()
        reader.start()
        start = perf_counter() + FLANK_S
        requests = []
        try:
            for i in range(count):
                session = self.sessions[i % SESSIONS]
                kind = "write" if self.rng.random() < WRITE_SHARE else "run"
                req = Request(self.next_number, kind, session,
                              start + i / rate)
                self.next_number += 1
                wait = req.due - perf_counter()
                if wait > 0:
                    sleep(wait)
                self._send(req, by_id, lock, outstanding, profile)
                requests.append(req)
        finally:
            sending_done.set()
            drained = finished.wait(DRAIN_TIMEOUT_S + seconds)
            reader.join(timeout=5)
            gc.enable()
        if not drained:
            raise RuntimeError("server did not answer every request")
        sleep(FLANK_S)
        return Phase(rate, requests, self.setup.probe)

    def _send(self, req: Request, by_id, lock, outstanding, profile) -> None:
        session = req.session
        self.next_id += 1
        if req.kind == "write":
            row = (f"w{self.setup.seed}_{self.write_no}",
                   self.row_rng.choice(session.base)[1])
            self.write_no += 1
            session.sent.append(row)
            request = {"type": "assert_facts", "session": session.id,
                       "facts": {"emp": [list(row)]}}
            req.write_index = len(session.sent) - 1
        else:
            request = {"type": "run", **run_fields(
                session, self.setup.seed, req.number, profile)}
            req.acked_at_send = tuple(session.acked)
        request["id"] = self.next_id
        with lock:
            by_id[self.next_id] = req
            outstanding[0] += 1
        req.sent = perf_counter()
        line = encode(request)
        req.encode_s = perf_counter() - req.sent
        session.sock.sendall(line)

    def _read(self, by_id, lock, outstanding, finished, sending_done) -> None:
        selector = selectors.DefaultSelector()
        buffers = {}
        for session in self.sessions:
            selector.register(session.sock, selectors.EVENT_READ, session)
            buffers[session.index] = b""
        try:
            while True:
                with lock:
                    idle = outstanding[0] == 0
                if idle and sending_done.is_set():
                    break
                for key, _ in selector.select(timeout=0.05):
                    session = key.data
                    chunk = session.sock.recv(1 << 20)
                    if not chunk:
                        raise ConnectionError("server closed a connection")
                    data = buffers[session.index] + chunk
                    *lines, buffers[session.index] = data.split(b"\n")
                    for line in lines:
                        self._receive(line, session, by_id, lock,
                                      outstanding)
            finished.set()
        finally:
            selector.close()

    def _receive(self, line: bytes, session: Session, by_id, lock,
                 outstanding) -> None:
        received = perf_counter()
        response = decode(line)
        decoded = perf_counter()
        with lock:
            req = by_id.pop(response.get("id"))
            outstanding[0] -= 1
        req.received = received
        req.decode_s = decoded - received
        req.bytes = len(line) + 1
        req.response = response
        if req.kind == "write" and response.get("ok"):
            session.acked.append(req.write_index)
        req.sent_at_done = len(session.sent)
        req.done = perf_counter()


def check_request(req: Request, checker: SampleChecker) -> list[str]:
    """Problems with one answered request (checked after the phase)."""
    response = req.response
    if not response.get("ok"):
        return [f"{req.kind} failed: {response.get('error')}"]
    if req.kind == "write":
        added = response["result"].get("added")
        return [] if added == 1 else [f"write added {added} rows, not 1"]
    session = req.session
    written = [session.sent[i] for i in req.acked_at_send]
    answers = response["result"]["answers"]
    return checker.check(answers["pick"], answers["pair"], written=written,
                         maybe_written=session.sent[:req.sent_at_done])


def _settle(setup: Setup, phase: Phase, outcome: Outcome) -> None:
    for req in phase.requests:
        outcome.record(check_request(req, setup.checkers[req.session.index]))
    lags = [(req.sent - req.due) * 1000.0 for req in phase.requests]
    if len(lags) >= 20 and percentile(lags, 99) > MAX_LAG_P99_MS:
        outcome.invalid(f"the generator ran {percentile(lags, 99):.1f} ms "
                        "late at p99; the schedule was not kept")


def _sustained(phase: Phase) -> bool:
    """Run p95 within the limit and no backlog growing over the phase,
    as timed."""
    latencies = phase.latencies_ms("run", scaled=False)
    if percentile(latencies, 95) > LATENCY_LIMIT_MS:
        return False
    quarter = max(1, len(latencies) // 4)
    first, last = latencies[:quarter], latencies[-quarter:]
    return median(last) <= 1.5 * median(first) + 10.0


def _capacity(setup: Setup, load: LoadGenerator, seconds: float,
              outcome: Outcome) -> tuple[float, float]:
    """Requests answered per second with a backlog always waiting.

    Bursts queue ``BURST_RATE * BURST_S`` requests, more than the server
    answers in ``BURST_S``; a burst's busy time runs from its first due
    request to its last answer, and is scaled by the host speed of its
    idle flanks.  Returns (at the reference host speed, as timed).
    """
    deadline = perf_counter() + seconds
    answered = busy_raw = busy_scaled = bursts = 0
    while perf_counter() < deadline or bursts < MIN_BURSTS:
        phase = load.phase(BURST_RATE, BURST_S)
        _settle(setup, phase, outcome)
        busy = max(r.done for r in phase.requests) - phase.requests[0].due
        answered += len(phase.requests)
        busy_raw += busy
        busy_scaled += busy * phase.scale
        bursts += 1
    return answered / busy_scaled, answered / busy_raw


def _max_rate(setup: Setup, load: LoadGenerator, reference: Phase,
              seconds: float, outcome: Outcome) -> float:
    """The highest sustained rate on the grid, as timed.

    Grid index 0 is the reference rate, which ``reference`` sustained or
    not.  The search doubles the rate (``DOUBLING_STEPS`` grid steps) until
    a probe fails, then bisects until a sustained rate sits next to one
    that is not, in at most ``MAX_PROBES`` probes of ``seconds /
    MAX_PROBES``; the answer is the highest sustained rate probed.  Near
    the knee a short probe passes or fails with the host's speed dips, so
    this figure is per-layer, not gated.
    """
    if not _sustained(reference):
        outcome.invalid("not even the reference rate met the latency limit")
        return 0.0
    passed, failed = 0, None
    for _ in range(MAX_PROBES):
        j = passed + DOUBLING_STEPS if failed is None \
            else (passed + failed) // 2
        phase = load.phase(REFERENCE_RATE * GRID_STEP ** j,
                           seconds / MAX_PROBES)
        _settle(setup, phase, outcome)
        if _sustained(phase):
            passed = j
        else:
            failed = j
        if failed is not None and failed - passed == 1:
            break
    return REFERENCE_RATE * GRID_STEP ** passed


def _final_checks(setup: Setup, outcome: Outcome) -> dict:
    """Each session's ``emp`` size against base plus acknowledged writes.

    Returns the last session's ``stats``; its constant-pool figures are
    the server process's.
    """
    for session in setup.sessions:
        stats = setup.server.control.call("stats", session=session.id)
        rows = stats["relations"]["emp"]["rows"]
        outcome.record(check_writes(session.id, rows, len(session.base),
                                    len(session.acked)))
    return stats


def setup_only(name: str, seed: int) -> float:
    setup = Setup(seed)
    setup.close()
    if setup.first_problems:
        raise RuntimeError("; ".join(setup.first_problems))
    return setup.seconds


def measure(name: str, seed: int, seconds: float, setups: list[float],
            outcome: Outcome) -> None:
    """The untraced run; the unscaled figures go to standard error."""
    setup = Setup(seed)
    try:
        setups.append(setup.seconds)
        outcome.record(setup.first_problems)
        load = LoadGenerator(setup)
        reference = load.phase(REFERENCE_RATE, seconds * REFERENCE_SHARE)
        _settle(setup, reference, outcome)
        capacity, raw_capacity = _capacity(
            setup, load, seconds * (1 - REFERENCE_SHARE), outcome)
        _final_checks(setup, outcome)
    finally:
        setup.close()
    if setup.server.peak_rss_mb is None:
        raise RuntimeError("the server did not report its peak resident set")
    runs = reference.latencies_ms("run")
    raw = reference.latencies_ms("run", scaled=False)
    outcome.values.update({
        "setup_s": median(setups),
        "peak_rss_mb": setup.server.peak_rss_mb,
        "query_p50_ms": percentile(runs, 50),
        "query_p90_ms": percentile(runs, 90),
        "queries_per_s": capacity,
    })
    raw_note(name, setup_s=setup.raw_seconds,
             query_p50_ms=percentile(raw, 50),
             query_p90_ms=percentile(raw, 90),
             queries_per_s=raw_capacity,
             kernel_ms=reference.kernel_s * 1000.0)


# -- the traced run -----------------------------------------------------------

def _request_ledger(requests, recent: dict) -> tuple[dict, list]:
    """Per-layer self times of each request, and its spans.

    The client measures lag, encode and decode; the server's ``recent``
    ring gives queue and handler (wall minus queue) time; transport is
    the rest of the window between send and receive.
    """
    totals = {layer: 0.0 for layer in
              ("gen_lag", "frame_encode", "transport", "server_queue",
               "server_handler", "frame_decode", ROOT_LAYER)}
    spans = []
    for req in requests:
        entry = recent[req.response["id"]]
        queue = entry["queue_ms"] / 1000.0
        handler = entry["wall_ms"] / 1000.0 - queue
        parts = {
            "gen_lag": req.sent - req.due,
            "frame_encode": req.encode_s,
            "transport": (req.received - req.sent - req.encode_s
                          - queue - handler),
            "server_queue": queue,
            "server_handler": handler,
            "frame_decode": req.decode_s,
        }
        parts[ROOT_LAYER] = req.latency_s - sum(parts.values())
        root = len(spans)
        spans.append({"span": root, "parent": None, "layer": ROOT_LAYER,
                      "query": req.number, "start_s": req.due,
                      "end_s": req.done})
        for layer, seconds in parts.items():
            totals[layer] += seconds
            if layer != ROOT_LAYER:
                spans.append({"span": len(spans), "parent": root,
                              "layer": layer, "query": req.number,
                              "self_s": seconds})
    return totals, spans


def trace(name: str, seed: int, seconds: float, outcome: Outcome,
          spans_path) -> None:
    """The traced run.  Per-layer times are as timed, not rescaled;
    ``host.kernel_ms`` is the server CPU's kernel time over the run."""
    setup = Setup(seed)
    values = outcome.values
    try:
        outcome.record(setup.first_problems)
        load = LoadGenerator(setup)
        plain = load.phase(REFERENCE_RATE, seconds * 0.25)
        traced = load.phase(REFERENCE_RATE, seconds * 0.3)
        profiled = load.phase(REFERENCE_RATE, seconds * 0.15, profile=True)
        for phase in (plain, traced, profiled):
            _settle(setup, phase, outcome)
        max_rate = _max_rate(setup, load, plain, seconds * 0.3, outcome)
        stats = _final_checks(setup, outcome)
        recent = {entry["id"]: entry for entry in setup.server.control.call(
            "recent", limit=RECENT_CAPACITY)["requests"]
            if entry.get("id") is not None}
    finally:
        setup.close()

    plain_runs = plain.latencies_ms("run", scaled=False)
    traced_runs = [r for r in traced.requests if r.kind == "run"]
    totals, spans = _request_ledger(traced.requests, recent)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    values.update({m: 0.0 for m in PER_LAYER if m.startswith("ledger.")})
    values.update(ledger_metrics(totals, len(traced.requests)))

    def recent_ms(req, field):
        return recent[req.response["id"]][field]

    queue = [recent_ms(r, "queue_ms") for r in traced_runs]
    handler = [recent_ms(r, "wall_ms") - recent_ms(r, "queue_ms")
               for r in traced_runs]
    transport = [(r.received - r.sent - r.encode_s) * 1000.0
                 - recent_ms(r, "wall_ms") for r in traced_runs]
    profile_runs = [r for r in profiled.requests if r.kind == "run"]
    evals = [sum(s["wall_s"] for s in r.response["result"]["profile"]
                 ["strata"]) * 1000.0 for r in profile_runs]
    services = [recent_ms(r, "wall_ms") - recent_ms(r, "queue_ms") - e
                for r, e in zip(profile_runs, evals)]
    clause_ms = [sum(c["wall_s"] for c in r.response["result"]["profile"]
                     ["clauses"]) * 1000.0 for r in profile_runs]
    run_stats = [r.response["result"]["stats"] for r in traced_runs]
    n = len(run_stats)
    probes = sum(s["probes"] for s in run_stats)
    firings = sum(s["firings"] for s in run_stats)
    derived = sum(s["derived"] for s in run_stats)
    id_tuples = sum(s["id_tuples"] for s in run_stats) / n
    everything = plain.requests + traced.requests + profiled.requests
    values.update({
        "frame.encode_us": median(r.encode_s for r in traced_runs) * 1e6,
        "frame.decode_us": median(r.decode_s for r in traced_runs) * 1e6,
        "frame.response_bytes": median(r.bytes for r in traced_runs),
        "server.queue_ms": median(queue),
        "server.handler_ms": median(handler),
        "server.transport_ms": median(transport),
        "server.eval_ms": median(evals),
        "server.service_ms": median(services),
        "server.run_p95_ms": percentile(plain_runs, 95),
        "server.max_rate_rps": max_rate,
        "server.write_p50_ms": median(plain.latencies_ms("write",
                                                         scaled=False)),
        "gen.lag_ms": percentile(
            [(r.sent - r.due) * 1000.0
             for r in plain.requests + traced.requests], 90),
        "trace.span_overhead_pct": overhead_pct(
            traced.latencies_ms("run", scaled=False), plain_runs),
        "trace.serve_profile_overhead_pct": overhead_pct(
            profiled.latencies_ms("run", scaled=False), plain_runs),
        "trace.callback_overhead_pct": 0.0,
        "trace.timing_overhead_pct": 0.0,
        "trace.json_overhead_pct": 0.0,
        "trace.metrics_overhead_pct": 0.0,
        "eval.ms": median(evals),
        "decode.ms": median(r.decode_s for r in traced_runs) * 1000.0,
        "decode.rows": median(
            sum(len(rows) for rows in r.response["result"]["answers"]
                .values()) for r in traced_runs),
        "join.ms": median(clause_ms),
        "emit.ms": median(e - c for e, c in zip(evals, clause_ms)),
        "join.probes": probes / n,
        "join.derived_per_probe": derived / probes,
        "emit.new_per_firing": derived / firings,
        "eval.rounds": sum(s["iterations"] for s in run_stats) / n,
        "plan.plans_built": sum(s["plans_built"] for s in run_stats) / n,
        "plan.pipelines_compiled": sum(
            s["pipelines_compiled"] for s in run_stats) / n,
        "plan.pipelines_reused": sum(
            s["pipelines_reused"] for s in run_stats) / n,
        "plan.cold_ms": setup.first_call_s * 1000.0 - median(plain_runs),
        "id.tuples": id_tuples,
        "id.tuples_per_base_row": id_tuples / SESSION_ROWS,
        "id.unchanged_base_share": _unchanged_share(everything),
        "pool.constants": stats["pool_constants"],
        "pool.bytes": stats["pool_approx_bytes"],
        "host.kernel_ms": setup.probe.kernel_s(
            everything[0].due, everything[-1].done) * 1000.0,
    })
    layer_probes(SAMPLE_PROGRAM, "emp", setup.sessions[0].base, values)


def _unchanged_share(requests: list[Request]) -> float:
    """Share of runs whose session saw no write since its previous run."""
    last_kind: dict[int, str] = {}
    same = total = 0
    for req in sorted(requests, key=lambda r: r.number):
        index = req.session.index
        if req.kind == "run":
            if index in last_kind:
                total += 1
                same += last_kind[index] == "run"
            last_kind[index] = "run"
        elif index in last_kind:
            last_kind[index] = "write"
    return same / total if total else 0.0
