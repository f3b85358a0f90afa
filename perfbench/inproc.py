"""The in-process workloads: ``sample-zipf``, ``tc-graph`` and ``cli-load``.

Each is a closed loop from a single client: the next query starts when
the previous answer has been decoded.  A query is timed from the call to
the decoded answer; its check runs afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from time import perf_counter

from common import (PER_LAYER, SAMPLE_K, SAMPLE_PROGRAM, TC_PROGRAM,
                    Outcome, at_reference_speed, each_at_reference_speed,
                    facts_text, graph_edge_rows, kernel_median,
                    kernel_problems, kernel_run, median, out_path,
                    overhead_pct,
                    peak_rss_mb, percentile, query_seed, raw_note,
                    waited_share, zipf_emp_rows)

from checks import SampleChecker, check_closure, closure, pair_digest
from spans import SpanRecorder, ledger_metrics

import repro.cli
import repro.core.assignment
import repro.core.choicelog
import repro.core.engine
import repro.core.idrelations
from repro.core import IdlogEngine
from repro.core.choicelog import choice_records
from repro.core.dbp import strip_database_program
from repro.core.idrelations import (make_id_relation, random_id_function,
                                    sub_relations)
from repro.core.program import IdlogProgram
from repro.datalog import Database, EvalResult, parse_program
from repro.datalog.executor import BatchExecutor
from repro.datalog.metrics import MetricsTracer
from repro.datalog.planner import ClausePlanner
from repro.datalog.pool import GLOBAL_POOL
from repro.datalog.trace import (EV_CLAUSE_FIRE, EV_ID_MATERIALIZED,
                                 EV_STRATUM_END, CallbackTracer, JsonTracer,
                                 TimingTracer, use_tracer)

#: Each set-up runs in a fresh child process (see ``run.py``).
SETUP_STARTS_SERVER = False
SETUP_REPEATS = 3
MIN_QUERIES = 100
SAMPLE_ROWS = 20_000
CLI_ROWS = 3_000


class Workload:
    """One in-process workload: set-up, one query, and its inputs."""

    program_text: str
    base_pred: str
    queries: tuple[str, ...]
    #: The base relation's rows, made by :meth:`setup` from the seed.
    rows: list[tuple]

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first_call_s = 0.0
        self.tracer = None

    def setup(self) -> float:
        """Build inputs, load, compile and run the first (cold) query.

        Returns the set-up seconds; work done only to check answers is
        not counted.
        """
        raise NotImplementedError

    def query(self, i: int) -> tuple[float, dict]:
        """Run query ``i``; return its seconds and decoded answer."""
        raise NotImplementedError

    def check(self, answer: dict) -> list[str]:
        raise NotImplementedError

    @contextlib.contextmanager
    def traced(self, tracer):
        """Attach one of the program's tracers to every query inside."""
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None


class PreparedWorkload(Workload):
    """A prepared ``IdlogEngine(persistent_caches=True)`` queried in a loop."""

    def _load(self) -> None:
        self.db = Database.from_facts({self.base_pred: self.rows})
        self.engine = IdlogEngine(self.program_text, persistent_caches=True)

    def _evaluate(self, i: int):
        raise NotImplementedError

    def query(self, i: int) -> tuple[float, dict]:
        self.engine.tracer = self.tracer
        start = perf_counter()
        result = self._evaluate(i)
        answer = {pred: result.tuples(pred) for pred in self.queries}
        return perf_counter() - start, answer

    def _first_call(self) -> dict:
        seconds, answer = self.query(-1)
        self.first_call_s = seconds
        return answer


class SampleZipf(PreparedWorkload):
    program_text = SAMPLE_PROGRAM
    base_pred = "emp"
    queries = ("pick", "pair")

    def setup(self) -> float:
        start = perf_counter()
        self.rows = zipf_emp_rows(SAMPLE_ROWS, self.seed)
        self._load()
        answer = self._first_call()
        seconds = perf_counter() - start
        self.checker = SampleChecker(self.rows, SAMPLE_K)
        self.first_problems = self.check(answer)
        return seconds

    def _evaluate(self, i: int):
        return self.engine.one(self.db, seed=query_seed(self.seed, i))

    def check(self, answer: dict) -> list[str]:
        return self.checker.check(answer["pick"], answer["pair"])


class TcGraph(PreparedWorkload):
    program_text = TC_PROGRAM
    base_pred = "edge"
    queries = ("path",)

    def setup(self) -> float:
        # The expected closure is found before the program loads, and only
        # its digest stays resident, so the check adds next to nothing to
        # the peak resident set.
        self.expected = pair_digest(closure(graph_edge_rows(self.seed)))
        start = perf_counter()
        self.rows = graph_edge_rows(self.seed)
        self._load()
        answer = self._first_call()
        seconds = perf_counter() - start
        self.first_problems = self.check(answer)
        return seconds

    def _evaluate(self, i: int):
        return self.engine.run(self.db)

    def check(self, answer: dict) -> list[str]:
        return check_closure(answer["path"], self.expected)


_HEADER = re.compile(r"^(\w+): (\d+) tuple\(s\)$")


def parse_cli_answers(text: str) -> dict:
    """The relations ``repro-idlog run`` printed, by predicate."""
    lines = text.splitlines()
    answers: dict = {}
    i = 0
    while i < len(lines):
        match = _HEADER.match(lines[i])
        i += 1
        if match is None:
            continue
        count = int(match.group(2))
        rows = [tuple(line[2:].split(", ")) for line in lines[i:i + count]]
        answers[match.group(1)] = rows
        i += count
    return answers


class CliLoad(Workload):
    """``repro.cli.main(["run", ...])`` in-process, output captured."""

    program_text = SAMPLE_PROGRAM
    base_pred = "emp"
    queries = ("pick", "pair")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.extra_args: list[str] = []

    def setup(self) -> float:
        start = perf_counter()
        self.rows = zipf_emp_rows(CLI_ROWS, self.seed)
        self.program_path = out_path(f"cli-{self.seed}.idl")
        self.facts_path = out_path(f"cli-{self.seed}.facts")
        self.program_path.write_text(self.program_text)
        self.facts_path.write_text(facts_text("emp", self.rows))
        seconds, answer = self.query(-1)
        self.first_call_s = seconds
        total = perf_counter() - start
        self.checker = SampleChecker(self.rows, SAMPLE_K)
        self.first_problems = self.check(answer)
        return total

    def query(self, i: int) -> tuple[float, dict]:
        argv = ["run", str(self.program_path), "--facts",
                str(self.facts_path), "--mode", "one",
                "--seed", str(query_seed(self.seed, i)), *self.extra_args]
        out = io.StringIO()
        scope = use_tracer(self.tracer) if self.tracer is not None \
            else contextlib.nullcontext()
        start = perf_counter()
        with scope:
            code = repro.cli.main(argv, out=out)
        seconds = perf_counter() - start
        answer = parse_cli_answers(out.getvalue())
        answer["exit_code"] = code
        return seconds, answer

    def check(self, answer: dict) -> list[str]:
        if answer["exit_code"] != 0:
            return [f"repro-idlog run exited {answer['exit_code']}"]
        if "pick" not in answer or "pair" not in answer:
            return ["repro-idlog run printed no pick/pair relation"]
        return self.checker.check(answer["pick"], answer["pair"])

    @contextlib.contextmanager
    def cli_flags(self, *flags: str):
        """Pass extra ``run`` flags (``--profile``, ``--trace F``...)."""
        self.extra_args = list(flags)
        try:
            yield
        finally:
            self.extra_args = []


WORKLOADS = {"sample-zipf": SampleZipf, "tc-graph": TcGraph,
             "cli-load": CliLoad}


def closed_loop(workload: Workload, seconds: float, outcome: Outcome,
                min_queries: int, first: int = 0, each=None,
                kernels=None) -> list[float]:
    """Query back to back for ``seconds`` (and at least ``min_queries``).

    Returns the latencies in seconds; every answer is checked into
    ``outcome``.  ``each`` is called after every query, outside the
    timed region.  With a ``kernels`` list, the reference kernel runs
    before every query and once after the last (see ``common``), and each
    run is appended.
    """
    latencies: list[float] = []
    deadline = perf_counter() + seconds
    i = first
    while perf_counter() < deadline or len(latencies) < min_queries:
        if kernels is not None:
            kernels.append(kernel_run())
        elapsed, answer = workload.query(i)
        latencies.append(elapsed)
        outcome.record(workload.check(answer))
        if each is not None:
            each(answer)
        i += 1
    if kernels is not None:
        kernels.append(kernel_run())
    return latencies


def setup_at_reference_speed(workload: Workload) -> tuple[float, float]:
    """(raw, rescaled) seconds of the workload's set-up."""
    before = kernel_median()
    seconds = workload.setup()
    return seconds, at_reference_speed(seconds, [before, kernel_median()])


def setup_only(name: str, seed: int) -> float:
    """Set the workload up once (in a fresh process); its seconds."""
    workload = WORKLOADS[name](seed)
    _, seconds = setup_at_reference_speed(workload)
    if workload.first_problems:
        raise RuntimeError("; ".join(workload.first_problems))
    return seconds


def measure(name: str, seed: int, seconds: float, setups: list[float],
            outcome: Outcome) -> None:
    """The untraced run: end-to-end metrics only."""
    workload = WORKLOADS[name](seed)
    raw_setup, setup = setup_at_reference_speed(workload)
    setups.append(setup)
    outcome.record(workload.first_problems)
    runs: list = []
    raw = closed_loop(workload, seconds, outcome, MIN_QUERIES, kernels=runs)
    for problem in kernel_problems(runs):
        outcome.invalid(problem)
    kernels = [run.wall_s for run in runs]
    latencies = each_at_reference_speed(raw, kernels)
    outcome.values.update({
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "query_p50_ms": percentile(latencies, 50) * 1000.0,
        "query_p90_ms": percentile(latencies, 90) * 1000.0,
        "queries_per_s": len(latencies) / sum(latencies),
    })
    raw_note(name, setup_s=raw_setup,
             query_p50_ms=percentile(raw, 50) * 1000.0,
             query_p90_ms=percentile(raw, 90) * 1000.0,
             queries_per_s=len(raw) / sum(raw),
             kernel_ms=median(kernels) * 1000.0,
             kernel_waited_share=waited_share(runs))


# -- the traced run -----------------------------------------------------------

def _record_ledger(recorder: SpanRecorder, counters: list) -> None:
    """Wrap each layer's public entry points (see ``spans``)."""
    wrap = recorder.wrap
    wrap(repro.cli, "parse_program", "parse")
    wrap(repro.cli, "strip_database_program", "load")
    wrap(IdlogProgram, "compile", "compile")
    wrap(IdlogEngine, "run", "eval",
         on_result=lambda result: counters.append(result.stats))
    wrap(ClausePlanner, "plan", "plan")
    wrap(BatchExecutor, "execute_coded", "join")
    wrap(repro.core.engine, "evaluate_stratum", "emit")
    wrap(repro.core.idrelations, "sub_relations", "id.partition")
    wrap(repro.core.choicelog, "sub_relations", "id.partition")
    wrap(repro.core.assignment, "random_id_function", "id.assign")
    wrap(repro.core.engine, "make_id_relation", "id.relation")
    wrap(repro.core.engine, "choice_records", "id.records")
    wrap(EvalResult, "tuples", "decode")


def _inclusive_ms(recorder: SpanRecorder, layer: str, queries: int) -> float:
    total = sum(end - start for _, _, name, _, start, end in recorder.spans
                if name == layer)
    return total * 1000.0 / queries


def _timed(fn, reps: int = 3) -> tuple[float, object]:
    """Median seconds of ``reps`` calls of ``fn`` and its last result."""
    times = []
    result = None
    for _ in range(reps):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return median(times), result


def layer_probes(program_text: str, pred: str, rows: list[tuple],
                 values: dict) -> None:
    """Time each layer's public functions on the workload's own inputs.

    Parse and load run on the workload's base facts as text; the ID
    functions run on its ID base relation (none on ``tc-graph``).
    """
    text = facts_text(pred, rows)
    parse_s, parsed = _timed(lambda: parse_program(text, name="facts"))
    load_s, (_, db) = _timed(lambda: strip_database_program(parsed))
    stats = db.stats()
    compile_s, compiled = _timed(
        lambda: IdlogProgram.compile(program_text), reps=5)
    values.update({
        "parse.ms": parse_s * 1000.0,
        "parse.facts_per_s": len(rows) / parse_s,
        "load.ms": load_s * 1000.0,
        "load.rows_per_s": len(rows) / load_s,
        "load.bytes_per_tuple": stats["total_approx_bytes"]
        / stats["total_rows"],
        "compile.ms": compile_s * 1000.0,
    })
    id_values = {"id.partition_ms": 0.0, "id.assign_ms": 0.0,
                 "id.relation_ms": 0.0, "id.records_ms": 0.0}
    for (id_pred, group), limit in compiled.tid_limits.items():
        base = db.relation(id_pred)
        rng = random.Random(0)
        partition_s, _ = _timed(lambda: sub_relations(base, group))
        assign_s, fn = _timed(lambda: random_id_function(base, group, rng))
        relation_s, _ = _timed(lambda: make_id_relation(base, fn, limit))
        records_s, _ = _timed(
            lambda: choice_records(id_pred, group, base, fn, limit))
        id_values["id.partition_ms"] += partition_s * 1000.0
        id_values["id.assign_ms"] += assign_s * 1000.0
        id_values["id.relation_ms"] += relation_s * 1000.0
        id_values["id.records_ms"] += records_s * 1000.0
    values.update(id_values)


def _fingerprint(workload: Workload) -> str:
    """Content fingerprint of the ID base relation a query read."""
    if isinstance(workload, CliLoad):
        data = workload.facts_path.read_bytes()
    else:
        rows = workload.db.relation(workload.base_pred)
        data = repr(sorted(rows)).encode()
    return hashlib.sha256(data).hexdigest()


def interleaved(workload: Workload, seconds: float, outcome: Outcome,
                min_pairs: int, first: int, observed_query, each=None):
    """Alternate a plain query with an observed one, for ``seconds``.

    Alternating cancels the drift a long run shows (a later query is
    not always as fast as an earlier one), so the ratio of the two
    medians is the observation's own cost.  Returns (plain latencies,
    observed latencies, next query number).
    """
    plain: list[float] = []
    observed: list[float] = []
    deadline = perf_counter() + seconds
    i = first
    while perf_counter() < deadline or len(observed) < min_pairs:
        elapsed, answer = workload.query(i)
        plain.append(elapsed)
        outcome.record(workload.check(answer))
        elapsed, answer = observed_query(i + 1)
        observed.append(elapsed)
        outcome.record(workload.check(answer))
        if each is not None:
            each(answer)
        i += 2
    return plain, observed, i


def trace(name: str, seed: int, seconds: float, outcome: Outcome,
          spans_path) -> None:
    """The traced run: per-layer metrics and tracing overheads."""
    workload = WORKLOADS[name](seed)
    workload.setup()
    outcome.record(workload.first_problems)
    values = outcome.values
    slice_s = seconds / 8.0
    query_no = [0]
    warm: list[float] = []

    def phase(share: float, min_pairs: int, observed_query, each=None):
        plain, observed, query_no[0] = interleaved(
            workload, slice_s * share, outcome, min_pairs, query_no[0],
            observed_query, each)
        warm.extend(plain)
        return overhead_pct(observed, plain)

    recorder = SpanRecorder()
    counters: list = []

    def ledger_query(i):
        _record_ledger(recorder, counters)
        try:
            with recorder.query():
                return workload.query(i)
        finally:
            recorder.restore()

    values["trace.span_overhead_pct"] = phase(3, 8, ledger_query)
    n = len(recorder.wall_times())
    values.update({m: 0.0 for m in values_of_prefix("ledger.")})
    values.update(ledger_metrics(recorder.self_times(), n))
    values["eval.ms"] = _inclusive_ms(recorder, "eval", n)
    values["decode.ms"] = _inclusive_ms(recorder, "decode", n)
    recorder.write(spans_path)

    evals = len(counters)
    values["plan.plans_built"] = sum(s.plans_built for s in counters) / evals
    values["plan.pipelines_compiled"] = sum(
        s.pipelines_compiled for s in counters) / evals
    values["plan.pipelines_reused"] = sum(
        s.pipelines_reused for s in counters) / evals
    values["id.tuples"] = sum(s.id_tuples for s in counters) / evals
    probes = sum(s.probes for s in counters)
    firings = sum(s.firings for s in counters)
    derived = sum(s.total_derived for s in counters)
    values["join.probes"] = probes / evals
    values["join.derived_per_probe"] = derived / probes
    values["emit.new_per_firing"] = derived / firings if firings else 0.0
    values["eval.rounds"] = sum(s.iterations for s in counters) / evals
    values["id.tuples_per_base_row"] = \
        values["id.tuples"] / len(workload.rows)

    # id.unchanged_base_share: does the ID base relation still hold what
    # the previous query read?  Fingerprinted outside the timed region.
    prints: list[str] = []
    if IdlogProgram.compile(workload.program_text).tid_limits:
        closed_loop(workload, 0, outcome, 5, first=query_no[0],
                    each=lambda _: prints.append(_fingerprint(workload)))
        query_no[0] += 5
    same = sum(1 for a, b in zip(prints, prints[1:]) if a == b)
    values["id.unchanged_base_share"] = \
        same / (len(prints) - 1) if len(prints) > 1 else 0.0

    fires: list = []
    callback = CallbackTracer()
    values["trace.callback_overhead_pct"] = phase(
        1.25, 4, _observed(workload, callback, "callback"),
        each=lambda _: fires.append(_split_events(callback)))
    values["join.ms"] = median(f[0] for f in fires) * 1000.0
    values["emit.ms"] = median(f[1] for f in fires) * 1000.0
    values["trace.timing_overhead_pct"] = phase(
        1.25, 4, _observed(workload, TimingTracer(), "timing"))
    json_path = out_path(f"trace-{name}-{seed}.jsonl")
    if isinstance(workload, CliLoad):
        values["trace.json_overhead_pct"] = phase(
            1.25, 4, _observed(workload, json_path, "json"))
    else:
        with JsonTracer(str(json_path)) as json_tracer:
            values["trace.json_overhead_pct"] = phase(
                1.25, 4, _observed(workload, json_tracer, "json"))
    values["trace.metrics_overhead_pct"] = phase(
        1.25, 4, _observed(workload, MetricsTracer(), "metrics"))

    values["plan.cold_ms"] = (workload.first_call_s - median(warm)) * 1000.0
    _, answer = workload.query(query_no[0])
    values["decode.rows"] = sum(len(answer[p]) for p in workload.queries)
    layer_probes(workload.program_text, workload.base_pred,
                 workload.rows, values)
    pool = GLOBAL_POOL.stats()
    values["pool.constants"] = pool["constants"]
    values["pool.bytes"] = pool["approx_bytes"]
    for metric in values_of_prefix(("frame.", "server.", "gen.")):
        values[metric] = 0.0
    values["trace.serve_profile_overhead_pct"] = 0.0
    values["host.kernel_ms"] = kernel_median(9) * 1000.0


def values_of_prefix(prefix) -> list[str]:
    return [m for m in PER_LAYER if m.startswith(prefix)]


def _split_events(callback: CallbackTracer) -> tuple[float, float]:
    """(join, emit) seconds of the query the callback tracer just saw.

    ID relations materialize lazily inside the clause that first reads
    them, so join is the ``clause_fire`` wall minus ID-materialization
    time, and emit (dedup and delta bookkeeping) is the strata's wall
    minus the clauses' wall.
    """
    fire = stratum = ident = 0.0
    for event in callback.events:
        if event.kind == EV_CLAUSE_FIRE:
            fire += event.get("wall_s", 0.0)
        elif event.kind == EV_STRATUM_END:
            stratum += event.get("wall_s", 0.0)
        elif event.kind == EV_ID_MATERIALIZED:
            ident += event.get("wall_s", 0.0)
    callback.events.clear()
    return fire - ident, stratum - fire


def _observed(workload: Workload, tracer, kind: str):
    """A query function that runs with one of the program's tracers,
    attached the way a user would on this workload.

    The CLI takes ``--profile``, ``--trace FILE`` and ``--metrics FILE``;
    a callback tracer reaches it ambiently.  A prepared engine takes the
    tracer object directly.
    """
    flags = {"timing": ("--profile",),
             "json": ("--trace", str(tracer)),
             "metrics": ("--metrics", str(out_path("metrics.prom")))}

    def query(i):
        if isinstance(workload, CliLoad) and kind in flags:
            scope = workload.cli_flags(*flags[kind])
        else:
            scope = workload.traced(tracer)
        with scope:
            return workload.query(i)

    return query
