"""EXPLAIN: human-readable evaluation plans for programs.

Renders what the engine will actually do — strata in evaluation order,
each clause's planned literal ordering with the binding pattern every
literal runs under, plus (for IDLOG programs) the ID-groupings and the
tid bounds the group-limit optimization derived.  Used by the CLI's
``explain`` command and handy when debugging safety errors.

:func:`explain_plan` is the cost-aware variant: given a database it
renders the order the cost-based planner picks together with the
cardinalities, estimated matches and estimated probes behind each choice
— an EXPLAIN for the engine, including the semi-naive delta variants of
recursive clauses.
"""

from __future__ import annotations

from typing import Optional, Union

from .ast import Atom, Literal, Program
from .database import Database
from .parser import parse_program
from .planner import ClausePlan, check_plan_mode, plan_body
from .pretty import format_atom, format_clause, format_literal
from .safety import binding_pattern, order_body
from .seminaive import evaluate, recursive_positions, stratum_clauses
from .stratify import stratify
from .terms import Var
from .trace import ClauseProfile, Profile, StageProfile


def _describe_literal(literal: Literal, bound: frozenset[Var]) -> str:
    atom = literal.atom
    assert isinstance(atom, Atom)
    rendered = format_atom(atom)
    if not literal.positive:
        return f"not {rendered}  [anti-join, all bound]"
    if atom.is_builtin:
        return f"{rendered}  [builtin, pattern {binding_pattern(atom, bound)}]"
    pattern = binding_pattern(atom, bound)
    kind = "id-scan" if atom.is_id else "scan"
    if "b" in pattern:
        kind = "id-probe" if atom.is_id else "index probe"
    return f"{rendered}  [{kind}, pattern {pattern}]"


def explain_program(program: Union[str, Program]) -> str:
    """Render the full evaluation plan of a program as text.

    The program must be safe and stratified (errors propagate with their
    usual diagnostics — which is itself useful: ``explain`` fails exactly
    where evaluation would).
    """
    if isinstance(program, str):
        program = parse_program(program)
    strat = stratify(program)
    lines: list[str] = [f"program: {program.name}",
                        f"strata: {strat.depth}"]

    if program.has_id_atoms():
        from ..core.program import compute_tid_limits
        limits = compute_tid_limits(program)
        lines.append("id-predicates:")
        for (pred, group), limit in sorted(
                limits.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
            bound = "unbounded (full materialization)" if limit is None \
                else f"tid < {limit} ({limit} tuple(s) per sub-relation)"
            lines.append(f"  {pred}[{','.join(map(str, sorted(group)))}]"
                         f" -> {bound}")

    for level, heads, clauses in stratum_clauses(program, strat):
        lines.append(f"stratum {level}: defines {', '.join(sorted(heads))}")
        for clause in clauses:
            lines.append(f"  {clause.head} :-")
            if not clause.body:
                lines.append("    (fact)")
                continue
            bound: frozenset[Var] = frozenset()
            for literal in order_body(clause):
                lines.append(f"    {_describe_literal(literal, bound)}")
                if literal.positive:
                    bound |= literal.atom.vars
    return "\n".join(lines)


def _format_count(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def _match_stage(actuals: ClauseProfile, rendered: str,
                 used: set[int]) -> Optional[StageProfile]:
    """The recorded stage for one rendered literal (first unused match).

    Stages are matched by literal text rather than position: the
    recorded profile aggregates the clause's delta variants, whose
    pipelines may order the same literals differently.
    """
    for index, stage in sorted(actuals.stages.items()):
        if index not in used and stage.literal == rendered:
            used.add(index)
            return stage
    return None


def _render_plan(plan: ClausePlan, indent: str,
                 actuals: Optional[ClauseProfile] = None) -> list[str]:
    lines = []
    used: set[int] = set()
    for est in plan.estimates:
        rendered = format_literal(est.literal)
        line = (f"{indent}{rendered}  [{est.kind}, pattern {est.pattern}, "
                f"est matches {_format_count(est.matches)}, "
                f"est probes {_format_count(est.probes)}]")
        if actuals is not None:
            stage = _match_stage(actuals, rendered, used)
            if stage is not None:
                line += (f"  {{actual rows {stage.actual_rows}, "
                         f"actual probes {stage.actual_probes}, "
                         f"q-err {stage.rows_q_error:.1f}}}")
        lines.append(line)
    tail = f"{indent}=> est cost {_format_count(plan.cost)} probes"
    if actuals is not None and actuals.estimated_calls:
        tail += (f"  {{actual {actuals.probes} probes over "
                 f"{actuals.calls} call(s), "
                 f"q-err {actuals.probe_q_error:.1f}"
                 + ("  MISESTIMATE" if actuals.misestimated else "")
                 + "}")
    lines.append(tail)
    return lines


def explain_plan(program: Union[str, Program],
                 db: Optional[Database] = None,
                 plan: str = "cost",
                 profile: Optional[Profile] = None) -> str:
    """Render the planner's chosen orders with their cost estimates.

    For programs without ID-atoms the program is first evaluated to its
    fixpoint on ``db`` so the rendered cardinalities are the ones the
    recursive rounds actually see; IDLOG programs are costed against the
    raw input database (planning never materializes ID-relations).

    Args:
        program: Source text or a parsed program (must be safe/stratified).
        db: Input database supplying cardinalities; without one every
            relation is treated as empty and only the orders are
            meaningful.
        plan: ``"cost"`` (default) or ``"greedy"`` — handy for rendering
            both and diffing them.
        profile: Optional recorded
            :class:`~repro.datalog.trace.Profile` (e.g. a
            :class:`~repro.datalog.trace.TimingTracer`'s after a run of
            the same program).  Estimated figures then carry the
            recorded actuals and their q-error side by side, with
            ``MISESTIMATE`` flagged past the threshold — actuals sum
            over every call the profile recorded.
    """
    check_plan_mode(plan)
    if isinstance(program, str):
        program = parse_program(program)
    strat = stratify(program)

    recorded: dict[str, ClauseProfile] = {}
    if profile is not None:
        for row in profile.clause_rows():
            existing = recorded.get(row.clause)
            if existing is None or (row.estimated_calls
                                    and not existing.estimated_calls):
                recorded[row.clause] = row

    if db is None:
        sizes = Database()
        note = "no database given; all relations assumed empty"
    elif program.has_id_atoms():
        sizes = db
        note = "cardinalities from the input EDB (ID-relations not " \
               "materialized at plan time)"
    else:
        sizes, _ = evaluate(program, db, plan=plan)
        note = "cardinalities from the fixpoint on the given database"

    def resolver(pred: str):
        return sizes.relation(pred) if pred in sizes else None

    lines = [f"program: {program.name} (plan={plan})",
             f"note: {note}",
             f"strata: {strat.depth}"]
    if profile is not None:
        calls = sum(row.calls for row in recorded.values())
        lines.insert(2, "actuals: from recorded profile, summed over "
                        f"{calls} clause execution(s)")
    for level, heads, clauses in stratum_clauses(program, strat):
        lines.append(f"stratum {level}: defines {', '.join(sorted(heads))}")
        for clause in clauses:
            lines.append(f"  {clause.head} :-")
            if not clause.body:
                lines.append("    (fact)")
                continue
            body_plan = plan_body(clause, resolver, mode=plan)
            lines.extend(_render_plan(body_plan, "    ",
                                      recorded.get(format_clause(clause))))
            # Semi-naive delta variants: the driver's own delta
            # positions, each with its literal forced first.
            for position in recursive_positions(clause, heads):
                delta_plan = plan_body(clause, resolver,
                                       first=clause.body[position],
                                       mode=plan)
                order = " -> ".join(
                    ("Δ" if i == 0 else "")
                    + (format_atom(est.literal.atom) if est.literal.positive
                       else f"not {format_atom(est.literal.atom)}")
                    for i, est in enumerate(delta_plan.estimates))
                lines.append(
                    f"    Δ-variant (delta at body position "
                    f"{position + 1}): {order}  "
                    f"[est cost {_format_count(delta_plan.cost)} probes]")
    return "\n".join(lines)
