"""An interactive IDLOG shell.

Line-oriented: typed clauses (ending in ``.``) extend the current program;
``?- goal.`` queries it; dot-commands manage state::

    idlog> emp(ann, toys).            % ground fact -> into the database
    idlog> two(N) :- emp[2](N, D, T), T < 2.
    idlog> ?- two(N).
    idlog> .answers two
    idlog> .one two 7
    idlog> .explain
    idlog> .help

The shell is a plain object around ``handle_line`` so it is scriptable and
testable; ``repro-idlog`` users get it via ``python -m repro.shell``.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from .choice import ChoiceEngine
from .core import IdlogEngine
from .datalog.ast import Clause, Program
from .datalog.database import Database
from .datalog.explain import explain_program
from .datalog.parser import parse_atom, parse_clause, parse_program
from .datalog.terms import Const
from .errors import ReproError

_HELP = """\
commands:
  <clause>.             add a rule (ground facts go to the database)
  ?- <atom>.            query: print matching tuples (canonical model)
  .answers <pred> [N]   the exact answer set (budget N, default 10000)
  .one <pred> [seed]    one arbitrary answer
  .record <file> [seed] draw one answer, logging every ID choice to file
  .replay <file>        re-apply a recorded choice log (detects drift)
  .load <file>          load clauses from a file
  .facts <file>         load ground facts from a file
  .save <dir>           save the database to a directory (CSV + schema)
  .open <dir>           load a database saved with .save
  .program              show the current program
  .db                   show the database summary
  .stats                memory report: rows, bytes/tuple, interning ratio
  .explain              show the evaluation plan
  .why <fact>.          show a derivation tree for a ground fact
  .lint                 report likely mistakes / optimization hints
  .clear                forget program and database
  .help                 this text
  .quit                 leave"""


class Shell:
    """State and command dispatch for the interactive shell."""

    def __init__(self, out: Optional[TextIO] = None) -> None:
        self.out = out or sys.stdout
        self.clauses: list[Clause] = []
        self.db = Database()

    # -- helpers -----------------------------------------------------------

    def _print(self, text: str) -> None:
        print(text, file=self.out)

    def _program(self) -> Program:
        return Program(tuple(self.clauses), name="session")

    def _engine(self):
        program = self._program()
        if program.has_choice():
            return ChoiceEngine(program)
        return IdlogEngine(program)

    def _rows(self, rows) -> None:
        if not rows:
            self._print("  (empty)")
            return
        for row in sorted(rows, key=lambda r: tuple(map(repr, r))):
            self._print("  " + ", ".join(map(str, row)))

    # -- commands ----------------------------------------------------------

    def handle_line(self, line: str) -> bool:
        """Process one input line; returns False when the shell should
        exit.  Errors are printed, never raised."""
        line = line.strip()
        if not line or line.startswith("%"):
            return True
        try:
            if line.startswith("."):
                return self._command(line)
            if line.startswith("?-"):
                self._query(line[2:].strip().rstrip("."))
                return True
            self._add_clause(line)
            return True
        except (ReproError, OSError) as exc:
            self._print(f"error: {exc}")
            return True

    def _command(self, line: str) -> bool:
        parts = line.split()
        name, args = parts[0], parts[1:]
        if name == ".quit":
            return False
        if name == ".help":
            self._print(_HELP)
        elif name == ".clear":
            self.clauses = []
            self.db = Database()
            self._print("cleared")
        elif name == ".program":
            if self.clauses:
                for clause in self.clauses:
                    self._print(str(clause))
            else:
                self._print("(no clauses)")
        elif name == ".db":
            names = sorted(self.db.relation_names())
            if not names:
                self._print("(empty database)")
            for rel_name in names:
                relation = self.db.relation(rel_name)
                self._print(f"{rel_name}/{relation.arity}: "
                            f"{len(relation)} tuple(s)")
        elif name == ".stats":
            self._stats()
        elif name == ".explain":
            program = self._program()
            if program.has_choice():
                from .choice import choice_to_idlog
                program = choice_to_idlog(program).program
            self._print(explain_program(program))
        elif name == ".load":
            self._load(args, facts_only=False)
        elif name == ".facts":
            self._load(args, facts_only=True)
        elif name == ".save":
            from .datalog.storage import save_database
            if len(args) != 1:
                self._print("usage: .save <dir>")
            else:
                save_database(self.db, args[0])
                self._print(f"saved {len(self.db.relation_names())} "
                            f"relation(s) to {args[0]}")
        elif name == ".open":
            from .datalog.storage import load_database
            if len(args) != 1:
                self._print("usage: .open <dir>")
            else:
                self.db = load_database(args[0])
                self._print(f"opened {len(self.db.relation_names())} "
                            f"relation(s) from {args[0]}")
        elif name == ".lint":
            from .datalog.lint import lint
            findings = lint(self._program())
            if not findings:
                self._print("clean: no findings")
            for finding in findings:
                self._print(str(finding))
        elif name == ".why":
            self._why(line[len(".why"):].strip())
        elif name == ".answers":
            self._answers(args)
        elif name == ".one":
            self._one(args)
        elif name == ".record":
            self._record(args)
        elif name == ".replay":
            self._replay(args)
        else:
            self._print(f"unknown command {name} (try .help)")
        return True

    def _stats(self) -> None:
        report = self.db.stats()
        if not report["relations"]:
            self._print("(empty database)")
            return
        for rel_name in sorted(report["relations"]):
            info = report["relations"][rel_name]
            self._print(
                f"{rel_name}/{info['arity']}: rows={info['rows']} "
                f"indexes={info['indexes']} "
                f"index_buckets={info['index_buckets']} "
                f"approx_bytes={info['approx_bytes']} "
                f"bytes_per_tuple={info['bytes_per_tuple']}")
        self._print(f"total: rows={report['total_rows']} "
                    f"approx_bytes={report['total_approx_bytes']} "
                    f"logical_bytes={report['total_logical_bytes']} "
                    f"derived_bytes={report['total_derived_bytes']} "
                    f"udomain={report['udomain_size']}")
        self._print(f"pool: constants={report['pool_constants']} "
                    f"approx_bytes={report['pool_approx_bytes']} "
                    f"interning_ratio={report['interning_ratio']}")

    def _add_clause(self, line: str) -> None:
        clause = parse_clause(line)
        if clause.is_fact:
            row = tuple(t.value for t in clause.head.args
                        if isinstance(t, Const))
            self.db.add_fact(clause.head.pred, row)
            self._print(f"fact added to {clause.head.pred}")
        else:
            self.clauses.append(clause)
            self._print("rule added")

    def _load(self, args: list[str], facts_only: bool) -> None:
        if len(args) != 1:
            self._print("usage: .load/.facts <file>")
            return
        with open(args[0]) as handle:
            program = parse_program(handle.read())
        added_rules = added_facts = 0
        for clause in program.clauses:
            if clause.is_fact:
                row = tuple(t.value for t in clause.head.args)  # type: ignore[union-attr]
                self.db.add_fact(clause.head.pred, row)
                added_facts += 1
            elif facts_only:
                self._print(f"error: {args[0]} contains a rule: {clause}")
                return
            else:
                self.clauses.append(clause)
                added_rules += 1
        self._print(f"loaded {added_rules} rule(s), {added_facts} fact(s)")

    def _why(self, goal_text: str) -> None:
        from .datalog.provenance import Explainer, format_tree
        program = self._program()
        if program.has_choice():
            self._print("error: .why does not support choice programs "
                        "(translate with choice_to_idlog first)")
            return
        goal = parse_atom(goal_text.rstrip("."))
        if goal.vars:
            self._print("usage: .why <ground fact>.  e.g. .why path(a, c).")
            return
        from repro.core import IdlogEngine
        result = IdlogEngine(program).run(self.db)
        row = tuple(t.value for t in goal.args)  # type: ignore[union-attr]
        explainer = Explainer(program, result.database,
                              result.id_relations)
        self._print(format_tree(explainer.explain(goal.pred, row)))

    def _query(self, goal_text: str) -> None:
        goal = parse_atom(goal_text)
        program = self._program()
        if goal.pred in program.predicates:
            rows = self._engine().run(self.db).tuples(goal.pred)
        else:
            # Pure EDB query: no rule mentions the predicate.
            rows = self.db.relation_or_empty(
                goal.pred, len(goal.args)).frozen()
        matching = [
            row for row in rows
            if all(not isinstance(t, Const) or t.value == v
                   for t, v in zip(goal.args, row))]
        self._print(f"{goal.pred}: {len(matching)} tuple(s)")
        self._rows(matching)

    def _answers(self, args: list[str]) -> None:
        if not args:
            self._print("usage: .answers <pred> [budget]")
            return
        pred = args[0]
        budget = int(args[1]) if len(args) > 1 else 10_000
        answers = self._engine().answers(self.db, pred, budget)
        self._print(f"{pred}: {len(answers)} possible answer(s)")
        for i, answer in enumerate(
                sorted(answers, key=lambda a: sorted(map(repr, a)))):
            self._print(f" answer {i + 1}:")
            self._rows(answer)

    def _one(self, args: list[str]) -> None:
        if not args:
            self._print("usage: .one <pred> [seed]")
            return
        pred = args[0]
        seed = int(args[1]) if len(args) > 1 else None
        result = self._engine().one(self.db, seed=seed)
        rows = result.tuples(pred)
        self._print(f"{pred}: {len(rows)} tuple(s)")
        self._rows(rows)

    def _idlog_engine(self) -> Optional[IdlogEngine]:
        """The IDLOG engine of the session, or None for choice programs
        (record/replay needs the translated program, not the front end)."""
        program = self._program()
        if program.has_choice():
            self._print("error: record/replay applies to Datalog/IDLOG "
                        "sessions; translate the choice program first")
            return None
        return IdlogEngine(program)

    def _record(self, args: list[str]) -> None:
        if not args or len(args) > 2:
            self._print("usage: .record <file> [seed]")
            return
        engine = self._idlog_engine()
        if engine is None:
            return
        from .core.choicelog import ChoiceLog
        seed = int(args[1]) if len(args) > 1 else None
        log = ChoiceLog(meta={"program": "session", "seed": seed})
        result = engine.one(self.db, seed=seed, record=log)
        preds = sorted(engine.program.head_predicates)
        log.set_answers({pred: result.tuples(pred) for pred in preds})
        log.save(args[0])
        self._print(f"recorded {len(log)} ID choice(s) and "
                    f"{len(preds)} answer predicate(s) to {args[0]}")
        for pred in preds:
            rows = result.tuples(pred)
            self._print(f"{pred}: {len(rows)} tuple(s)")
            self._rows(rows)

    def _replay(self, args: list[str]) -> None:
        if len(args) != 1:
            self._print("usage: .replay <file>")
            return
        engine = self._idlog_engine()
        if engine is None:
            return
        from .core.choicelog import ChoiceLog
        log = ChoiceLog.load(args[0])
        result = engine.replay(self.db, log)
        mismatched = [pred for pred in sorted(log.answers)
                      if frozenset(result.tuples(pred))
                      != log.answer_tuples(pred)]
        for pred in sorted(engine.program.head_predicates):
            rows = result.tuples(pred)
            self._print(f"{pred}: {len(rows)} tuple(s)")
            self._rows(rows)
        if mismatched:
            self._print(
                f"warning: answers differ from the recorded run for "
                f"{', '.join(mismatched)} — program or database changed")
        else:
            self._print(f"replayed {len(log)} ID choice(s); answers match "
                        "the recorded run")

    # -- driver ------------------------------------------------------------

    def run(self, stream: Optional[TextIO] = None,
            prompt: str = "idlog> ") -> None:
        """Read-eval-print until EOF or ``.quit``."""
        interactive = stream is None
        stream = stream or sys.stdin
        while True:
            if interactive:
                self.out.write(prompt)
                self.out.flush()
            line = stream.readline()
            if not line:
                return
            if not self.handle_line(line):
                return


def main() -> int:  # pragma: no cover - interactive entry point
    print("IDLOG shell — .help for commands, .quit to leave")
    Shell().run()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
