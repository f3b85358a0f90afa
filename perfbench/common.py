"""Shared pieces of the IDLOG benchmark: metric names, inputs, statistics.

Inputs are made here from the workload seed and nothing else, so the
same seed always gives the same facts, query seeds and request schedule.
The seed changes labels and choices, never sizes or shapes: two seeds
ask the program for the same amount of work, which keeps the run-to-run
spread about the program rather than about the draw.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes (span files, facts files, server logs) goes
#: here, inside the checkout; the repository's .gitignore names it.
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("sample-zipf", "tc-graph", "cli-load", "serve-mixed")

#: End-to-end metrics: every untraced run prints all of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
}

#: Per-layer metrics: every traced run prints all of them.  A layer that
#: a workload never enters reads 0 there (for example the server layers
#: on the in-process workloads, or the ID layer on ``tc-graph``).
PER_LAYER = {
    # Span ledger: self time per query along the measured path.  The
    # ``ledger.*_ms`` self times plus ``ledger.unattributed_ms`` add up
    # to ``ledger.wall_ms``.
    "ledger.wall_ms": "ms",
    "ledger.unattributed_ms": "ms",
    "ledger.parse_ms": "ms",
    "ledger.load_ms": "ms",
    "ledger.compile_ms": "ms",
    "ledger.eval_ms": "ms",
    "ledger.plan_ms": "ms",
    "ledger.join_ms": "ms",
    "ledger.emit_ms": "ms",
    "ledger.id_partition_ms": "ms",
    "ledger.id_assign_ms": "ms",
    "ledger.id_relation_ms": "ms",
    "ledger.id_records_ms": "ms",
    "ledger.decode_ms": "ms",
    "ledger.gen_lag_ms": "ms",
    "ledger.frame_encode_ms": "ms",
    "ledger.transport_ms": "ms",
    "ledger.server_queue_ms": "ms",
    "ledger.server_handler_ms": "ms",
    "ledger.frame_decode_ms": "ms",
    # datalog.parser
    "parse.ms": "ms",
    "parse.facts_per_s": "1/s",
    # core.dbp, datalog.database, datalog.pool
    "load.ms": "ms",
    "load.rows_per_s": "1/s",
    "load.bytes_per_tuple": "B",
    "pool.constants": "count",
    "pool.bytes": "B",
    # core.program, datalog.stratify, datalog.planner, datalog.executor
    "compile.ms": "ms",
    "plan.cold_ms": "ms",
    "plan.plans_built": "count",
    "plan.pipelines_compiled": "count",
    "plan.pipelines_reused": "count",
    # core.idrelations, core.assignment, core.choicelog
    "id.partition_ms": "ms",
    "id.assign_ms": "ms",
    "id.relation_ms": "ms",
    "id.records_ms": "ms",
    "id.tuples": "count",
    "id.tuples_per_base_row": "ratio",
    "id.unchanged_base_share": "ratio",
    # datalog.seminaive, datalog.executor
    "join.ms": "ms",
    "emit.ms": "ms",
    "join.probes": "count",
    "join.derived_per_probe": "ratio",
    "emit.new_per_firing": "ratio",
    "eval.rounds": "count",
    # the run/one call and answer decode
    "eval.ms": "ms",
    "decode.ms": "ms",
    "decode.rows": "count",
    # server.protocol, server.server, server.service
    "frame.encode_us": "us",
    "frame.decode_us": "us",
    "frame.response_bytes": "B",
    "server.queue_ms": "ms",
    "server.handler_ms": "ms",
    "server.transport_ms": "ms",
    "server.eval_ms": "ms",
    "server.service_ms": "ms",
    "server.run_p95_ms": "ms",
    "server.max_rate_rps": "1/s",
    "server.write_p50_ms": "ms",
    "gen.lag_ms": "ms",
    # The host: the reference kernel's time during the traced run.  The
    # per-layer times are not rescaled; compare them through this.
    "host.kernel_ms": "ms",
    # datalog.trace, datalog.metrics
    "trace.span_overhead_pct": "%",
    "trace.callback_overhead_pct": "%",
    "trace.timing_overhead_pct": "%",
    "trace.json_overhead_pct": "%",
    "trace.metrics_overhead_pct": "%",
    "trace.serve_profile_overhead_pct": "%",
}

# -- the sampling program and its inputs -------------------------------------

#: The sampling query every emp workload runs: three employees per department
#: (``emp[2]`` groups by the department column), and every ordered pair
#: of distinct sampled colleagues.
SAMPLE_K = 3
SAMPLE_PROGRAM = (
    f"pick(N, D) :- emp[2](N, D, T), T < {SAMPLE_K}.\n"
    "pair(A, B) :- pick(A, D), pick(B, D), A != B.\n"
)
TC_PROGRAM = (
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
)

DEPARTMENTS = 200
ZIPF_SKEW = 1.1


def zipf_emp_rows(total: int, seed) -> list[tuple]:
    """``emp(Name, Dept)`` rows with Zipf-skewed department sizes.

    Sizes come from :func:`repro.workloads.zipf_group_sizes` and do not
    depend on the seed; the seed permutes which department name gets
    which size.
    """
    from repro.workloads import zipf_group_sizes
    sizes = zipf_group_sizes(DEPARTMENTS, total, ZIPF_SKEW)
    labels = list(range(DEPARTMENTS))
    random.Random(f"emp/{seed}").shuffle(labels)
    return [(f"e{labels[d]}_{i}", f"dept{labels[d]}")
            for d, size in enumerate(sizes) for i in range(size)]


#: The graph's shape is fixed (``random_graph(400, 700, seed=1)``: 88,909
#: closure pairs in 26 rounds); the workload seed relabels its nodes.  A
#: fresh random graph per seed would move the closure size by +-10%,
#: which is spread the program did not cause.
GRAPH_NODES, GRAPH_EDGES, GRAPH_SHAPE_SEED = 400, 700, 1


def graph_edge_rows(seed: int) -> list[tuple]:
    from repro.workloads import random_graph
    shape = random_graph(GRAPH_NODES, GRAPH_EDGES, seed=GRAPH_SHAPE_SEED)
    labels = list(range(GRAPH_NODES))
    random.Random(f"graph/{seed}").shuffle(labels)
    rename = {f"v{i}": f"n{labels[i]}" for i in range(GRAPH_NODES)}
    return sorted((rename[a], rename[b])
                  for a, b in shape.relation("edge"))


def facts_text(pred: str, rows) -> str:
    """Rows as a facts file (``emp(e1_0, dept1).`` per line)."""
    return "".join(f"{pred}({', '.join(map(str, row))}).\n" for row in rows)


def query_seed(seed: int, i: int) -> int:
    """The ``one`` seed of the i-th query of a run."""
    return seed * 1_000_003 + i


# -- statistics ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    """The q-th percentile (0-100), interpolated between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return statistics.median(values)


def overhead_pct(traced, untraced) -> float:
    """Traced median over untraced median, as a percentage added."""
    return (median(traced) / median(untraced) - 1.0) * 100.0


# -- host speed ----------------------------------------------------------------
#
# The in-process workloads report their end-to-end times at a reference
# host speed.  On the shared 2-vCPU hosts this benchmark was built on,
# the same pure-Python loop runs up to twice as fast in one minute as in
# the next, and about 25% apart from one second to the next; that drift
# swamps any change to the program.  So every timed query sits next to a
# run of a fixed reference kernel, and its time is scaled by
# ``NOMINAL_KERNEL_S / kernel time``.  The kernel is the benchmark's own
# code and exercises what the interpreter does for the program (tuple
# keys in a dict, a keyed sort, a list walk), so a change to the program
# cannot change it.  The raw figures go to standard error.  ``serve-mixed``
# scales by the same kernel, run on the server's CPU by ``probe.py``.
#
# What the program does to the process between queries still reaches the
# kernel: a thread it leaves running takes the interpreter lock from the
# kernel, a global profile or trace hook slows the kernel as much as the
# query.  Scaling would then hide that cost, so :func:`kernel_problems`
# marks such a run invalid: a kernel's wall time well above its thread
# CPU time means it waited for the lock or the CPU.

#: The reference kernel's time at the reference speed.
NOMINAL_KERNEL_S = 0.002
#: A kernel call times this many runs and reports their median.
KERNEL_TIMED_RUNS = 3
#: A kernel call whose wall time exceeds its thread CPU time by more than
#: this waited for the CPU or the interpreter lock (an undisturbed call
#: reads about 1.01) ...
MAX_KERNEL_WAIT_RATIO = 1.2
#: ... and a run where more than this share of the calls waited shared its
#: process or its CPU with something busy.  A thread spinning beside the
#: kernel makes about half of the calls wait, at about twice their CPU time.
MAX_WAITED_SHARE = 0.2


def _kernel() -> int:
    table = {}
    for i in range(3000):
        table[(f"k{i % 211}", i)] = i
    rows = sorted(table.items(), key=lambda kv: (kv[0][0], -kv[1]))
    return sum(value for _, value in rows[::3])


class KernelRun(NamedTuple):
    #: The median wall seconds of the timed runs.
    wall_s: float
    #: Wall over thread CPU time of the whole call, untimed runs included:
    #: long enough (five runs, over one switch interval) that another
    #: thread wanting the interpreter lock gets it at least once.
    wait_ratio: float
    #: A profile or trace hook was installed while the kernel ran.
    hooked: bool


def kernel_run() -> KernelRun:
    """One call of the reference kernel, right now.

    Two untimed runs first refill the caches a query just evicted, and the
    cyclic collector is paused, so neither the program's working set nor
    its heap size reaches the ``KERNEL_TIMED_RUNS`` timed runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu = thread_time()
        call = perf_counter()
        _kernel()
        _kernel()
        times = []
        for _ in range(KERNEL_TIMED_RUNS):
            start = perf_counter()
            checksum = _kernel()
            times.append(perf_counter() - start)
        end = perf_counter()
        cpu = thread_time() - cpu
    finally:
        if enabled:
            gc.enable()
    if checksum != 1_527_930:
        raise RuntimeError("reference kernel miscomputed")
    hooked = sys.getprofile() is not None or sys.gettrace() is not None
    return KernelRun(median(times), (end - call) / max(cpu, 1e-9), hooked)


def kernel_median(runs: int = 5) -> float:
    return median(kernel_run().wall_s for _ in range(runs))


def waited_share(runs: list[KernelRun]) -> float:
    """Share of kernel calls that waited for the CPU or the lock."""
    return sum(run.wait_ratio > MAX_KERNEL_WAIT_RATIO
               for run in runs) / len(runs)


def kernel_problems(runs: list[KernelRun]) -> list[str]:
    """Why kernel runs beside a run's queries cannot scale them."""
    problems = []
    share = waited_share(runs)
    if share > MAX_WAITED_SHARE:
        problems.append(
            f"{share:.0%} of the reference kernel's calls waited for the "
            "CPU or the interpreter lock: something busy shared the "
            "process or its CPU, and scaling would hide its cost")
    if any(run.hooked for run in runs):
        problems.append("a profile or trace hook was installed between "
                        "queries, and scaling would hide its cost")
    return problems


def at_reference_speed(seconds: float, kernels) -> float:
    """``seconds`` measured while the kernel took ``kernels``, rescaled."""
    return seconds * NOMINAL_KERNEL_S / median(kernels)


def each_at_reference_speed(latencies, kernels) -> list[float]:
    """Rescale each latency by the kernel runs just before and after it.

    ``kernels[i]`` ran before operation ``i`` and ``kernels[i + 1]``
    after it.
    """
    return [seconds * 2 * NOMINAL_KERNEL_S / (kernels[i] + kernels[i + 1])
            for i, seconds in enumerate(latencies)]


def raw_note(name: str, **values) -> None:
    """The unscaled figures behind a run's metrics, on standard error."""
    parts = " ".join(f"{key}={value:.6g}" for key, value in values.items())
    print(f"{name} raw: {parts}", file=sys.stderr)


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- output -------------------------------------------------------------------

class Outcome:
    """What one run reports: a correctness verdict, counts and metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.values: dict[str, float] = {}

    def record(self, problems: list[str]) -> None:
        """Count one attempted operation and its correctness problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:3])

    def invalid(self, reason: str) -> None:
        """Mark the whole run wrong (not tied to one operation)."""
        self.problems.append(reason)

    def emit(self, names: dict[str, str]) -> int:
        """Print the result line; return the process exit code."""
        missing = [n for n in names if n not in self.values]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        correct = not self.problems and self.failed == 0 \
            and self.attempted > 0
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": float(self.values[name]),
                               "unit": unit}
                        for name, unit in names.items()},
        }))
        sys.stdout.flush()
        return 0 if correct else 1


def out_path(name: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / name


def clean_env() -> dict:
    """Environment for child processes: ``src`` importable, no stray
    interpreter options inherited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env
