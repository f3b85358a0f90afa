"""Unit tests for the batch-compiled join executor.

The differential property tests (tests/test_property_random.py) cover
whole-program agreement; these exercise the executor surface directly —
single-clause pipelines against the tuple-at-a-time interpreter as the
oracle — plus the engine-knob validation and pipeline-cache counters.
"""

import pytest

from repro.datalog.database import Database, Relation
from repro.datalog.executor import (BATCH, ENGINE_MODES, INTERP,
                                    BatchExecutor, check_engine_mode)
from repro.datalog.parser import parse_program
from repro.datalog.pool import GLOBAL_POOL
from repro.datalog.seminaive import (EvalStats, evaluate, evaluate_clause,
                                     prepare_store)
from repro.errors import EvaluationError, SchemaError


def single_clause(text):
    program = parse_program(text)
    assert len(program.clauses) == 1
    return program, program.clauses[0]


def execute(clause, store, stats, **kwargs):
    """Run one clause through the batch executor, decoded to values."""
    return [GLOBAL_POOL.decode_row(row) for row in
            BatchExecutor().execute_coded(clause, store, stats, **kwargs)]


def run_both(text, facts, delta_index=None, delta=None):
    """Execute one clause with the batch executor and the interpreter on
    identical fresh stores; return (batch rows, interp rows, stats pair)."""
    program, clause = single_clause(text)
    db = Database.from_facts(facts) if facts else Database()
    outputs = []
    stats_pair = []
    for mode in ("batch", "interp"):
        stats = EvalStats()
        store = prepare_store(program, db, None, stats)
        if mode == "batch":
            rows = execute(clause, store, stats,
                           delta_index=delta_index, delta=delta)
        else:
            rows = list(evaluate_clause(
                clause, store, stats,
                delta_index=delta_index, delta=delta))
        outputs.append(sorted(rows))
        stats_pair.append(stats)
    return outputs[0], outputs[1], stats_pair


class TestEngineKnob:
    def test_modes(self):
        assert set(ENGINE_MODES) == {INTERP, BATCH}

    def test_check_engine_mode_passes_through(self):
        assert check_engine_mode("batch") == BATCH
        assert check_engine_mode("interp") == INTERP

    def test_check_engine_mode_rejects_unknown(self):
        with pytest.raises(SchemaError):
            check_engine_mode("vectorized")

    def test_evaluate_rejects_unknown_engine(self):
        program = parse_program("p(X) :- q(X).")
        with pytest.raises(SchemaError):
            evaluate(program, Database.from_facts({"q": [("a",)]}),
                     engine="nope")


class TestAgainstInterpreter:
    def test_simple_scan(self):
        batch, interp, (bs, is_) = run_both(
            "p(X) :- q(X).", {"q": [("a",), ("b",)]})
        assert batch == interp == [("a",), ("b",)]
        assert bs.probes == is_.probes
        assert bs.firings == is_.firings

    def test_join(self):
        batch, interp, (bs, is_) = run_both(
            "p(X, Z) :- e(X, Y), e(Y, Z).",
            {"e": [("a", "b"), ("b", "c"), ("b", "d")]})
        assert batch == interp == [("a", "c"), ("a", "d")]
        assert bs.probes == is_.probes
        assert bs.firings == is_.firings

    def test_empty_relation_gives_empty_batch(self):
        program, clause = single_clause("p(X) :- q(X), r(X).")
        db = Database()
        db.add_relation("q", Relation(1))
        db.add_relation("r", Relation(1, tuples=[("a",)]))
        stats = EvalStats()
        store = prepare_store(program, db, None, stats)
        assert execute(clause, store, stats) == []
        # The empty scan still charges its floor-of-one probe, and the
        # pipeline stops before probing r.
        assert stats.probes == 1

    def test_repeated_variable_in_atom(self):
        batch, interp, _ = run_both(
            "p(X) :- e(X, X).",
            {"e": [("a", "a"), ("a", "b"), ("c", "c")]})
        assert batch == interp == [("a",), ("c",)]

    def test_all_bound_literal(self):
        # After scanning q, every variable of r's atom is bound: the join
        # degenerates to an existence probe on the full-key index.
        batch, interp, (bs, is_) = run_both(
            "p(X, Y) :- q(X, Y), r(X, Y).",
            {"q": [("a", "b"), ("c", "d")], "r": [("a", "b")]})
        assert batch == interp == [("a", "b")]
        assert bs.probes == is_.probes
        assert bs.firings == is_.firings

    def test_constants_in_body_and_head(self):
        batch, interp, _ = run_both(
            "flag(yes) :- emp(N, toys).",
            {"emp": [("ann", "toys"), ("bob", "it")]})
        assert batch == interp == [("yes",)]

    def test_negation_filter(self):
        batch, interp, (bs, is_) = run_both(
            "lone(X) :- node(X), not linked(X).",
            {"node": [("a",), ("b",)], "linked": [("a",)]})
        assert batch == interp == [("b",)]
        assert bs.probes == is_.probes
        assert bs.firings == is_.firings

    def test_builtin_filter(self):
        batch, interp, _ = run_both(
            "small(X) :- val(X, N), N < 10.",
            {"val": [("a", 5), ("b", 15)]})
        assert batch == interp == [("a",)]

    def test_builtin_generator_binds_new_variable(self):
        batch, interp, _ = run_both(
            "s(M) :- pair(A, B), M = A + B.",
            {"pair": [(1, 2), (10, 5)]})
        assert batch == interp == [(3,), (15,)]

    def test_builtin_enumerating_multiple_solutions(self):
        # +(L, M, N) with only N bound enumerates all decompositions.
        batch, interp, _ = run_both(
            "p2(X, L, M) :- q(X, N), +(L, M, N).", {"q": [("a", 2)]})
        assert batch == interp == [("a", 0, 2), ("a", 1, 1), ("a", 2, 0)]

    def test_delta_override(self):
        program, clause = single_clause(
            "path(X, Y) :- edge(X, Z), path(Z, Y).")
        db = Database.from_facts({
            "edge": [("a", "b"), ("b", "c")],
            "path": [("a", "b"), ("b", "c"), ("a", "c")]})
        delta = Relation(2, tuples=[("b", "c")])
        outputs = []
        for mode in ("batch", "interp"):
            stats = EvalStats()
            store = prepare_store(program, db, None, stats)
            if mode == "batch":
                rows = execute(clause, store, stats,
                               delta_index=1, delta=delta)
            else:
                rows = list(evaluate_clause(
                    clause, store, stats, delta_index=1, delta=delta))
            outputs.append(sorted(rows))
        # Only derivations through the delta tuple ("b", "c").
        assert outputs[0] == outputs[1] == [("a", "c")]

    def test_empty_delta_short_circuits(self):
        program, clause = single_clause(
            "path(X, Y) :- edge(X, Z), path(Z, Y).")
        db = Database.from_facts({"edge": [("a", "b")],
                                  "path": [("a", "b")]})
        stats = EvalStats()
        store = prepare_store(program, db, None, stats)
        rows = execute(clause, store, stats,
                       delta_index=1, delta=Relation(2))
        assert rows == []


class TestPipelineCache:
    def test_pipelines_cached_per_clause_and_delta(self):
        program = parse_program("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        db = Database.from_facts(
            {"edge": [("a", "b"), ("b", "c"), ("c", "d")]})
        _, stats = evaluate(program, db, engine="batch")
        assert stats.pipelines_compiled >= 2
        assert stats.pipelines_reused >= 1

    def test_interp_compiles_no_pipelines(self):
        program = parse_program("p(X) :- q(X).")
        db = Database.from_facts({"q": [("a",)]})
        _, stats = evaluate(program, db, engine="interp")
        assert stats.pipelines_compiled == 0
        assert stats.pipelines_reused == 0


class TestErrors:
    def test_unbound_negation_rejected_at_compile(self):
        # The public entry always re-plans, so feed _Pipeline a hostile
        # order directly: the compile-time guard is the defence in depth
        # behind the planner's safety check.
        from repro.datalog.ast import Atom, Clause, Literal
        from repro.datalog.executor import _Pipeline
        from repro.datalog.terms import Var
        neg = Literal(Atom("q", (Var("X"),)), positive=False)
        pos = Literal(Atom("r", (Var("X"),)))
        clause = Clause(Atom("p", (Var("X"),)), (neg, pos))
        with pytest.raises(EvaluationError):
            _Pipeline(clause, (neg, pos))
