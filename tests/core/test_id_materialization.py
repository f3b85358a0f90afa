"""One partition per ID materialization (paper Section 2.1).

An ID-relation of ``p`` on ``s`` is one partition of ``p`` into its
sub-relations plus one bijection per block.  These tests pin what that
partition feeds: the seeded draws (so the seed -> answer mapping cannot
move unnoticed), the events replay emits, the number of times the
partition is computed per materialization, and its reuse across
evaluations of an unchanged relation.
"""

import hashlib
import sys

import pytest

from repro.core import IdlogEngine, idrelations
from repro.core.choicelog import ChoiceLog
from repro.core.idrelations import (canonical_id_function, sub_relations,
                                    validate_id_function)
from repro.datalog.database import Database
from repro.datalog.metrics import MetricsTracer
from repro.datalog.trace import (EV_ID_CHOICE, EV_ID_MATERIALIZED,
                                 CallbackTracer)
from repro.workloads import zipf_employees

EMP = Database.from_facts({"emp": [
    ("ann", "toys"), ("bob", "toys"), ("cal", "toys"),
    ("dee", "it"), ("eli", "it")]})
ZIPF_EMP = zipf_employees(6, 30, skew=1.1)

SECTION1 = "select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.\n"
PICK_PAIR = ("pick(N, D) :- emp[2](N, D, T), T < 3.\n"
             "pair(A, B) :- pick(A, D), pick(B, D), A != B.\n")
TWO_LEVEL = ("pick(N, D) :- emp[2](N, D, T), T < 3.\n"
             "top(N) :- pick[2](N, D, T), T < 1.\n")

#: (ChoiceLog.digest(), digest of the sorted answers of every head
#: predicate) of ``one(seed=s, record=...)`` for s = 0..4.
SEEDED_PINS = {
    "section1": (SECTION1, EMP, [
        ("91866b9dec82e80c", "fc4f8449bfb10678"),
        ("8efdbee759c6f99a", "f63cf58858c5a3f4"),
        ("6ec7858522966f1f", "f63cf58858c5a3f4"),
        ("8efdbee759c6f99a", "f63cf58858c5a3f4"),
        ("8a0e53c5d64df39c", "f63cf58858c5a3f4")]),
    "pick_pair": (PICK_PAIR, ZIPF_EMP, [
        ("7bf9af5069c84a92", "b72e425519d86fff"),
        ("0c62aa64ca1ea43d", "9ab38fbdc8be885f"),
        ("63f3fed5f2d613ba", "3c5f5feb70e37f2d"),
        ("d9738fff20ff4c2e", "3d103b14cc8a3459"),
        ("cda338ab92bb81ac", "5e0ed6e0b15c8b4b")]),
    "two_level": (TWO_LEVEL, ZIPF_EMP, [
        ("ab756f6c52206392", "6e8635223801d2ad"),
        ("3d5016a477f4a50b", "d260a8317e486aa2"),
        ("87f9b162c6d1e9cd", "28fd511ced482a92"),
        ("ac19085c06edd91d", "53c66e64a7b37600"),
        ("f6ad1b7e54be1717", "85f7e1c0862da180")]),
}


def answers_digest(result, preds) -> str:
    text = repr([sorted(result.tuples(pred)) for pred in preds])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestSeededDraws:
    @pytest.mark.parametrize("engine", ["batch", "interp"])
    @pytest.mark.parametrize("name", sorted(SEEDED_PINS))
    def test_seed_to_answer_mapping_is_pinned(self, name, engine):
        text, db, expected = SEEDED_PINS[name]
        idlog = IdlogEngine(text, engine=engine)
        preds = sorted(idlog.program.head_predicates)
        found = []
        for seed in range(5):
            log = ChoiceLog()
            result = idlog.one(db, seed=seed, record=log)
            found.append((log.digest(), answers_digest(result, preds)))
        assert found == expected


class TestReplayEvents:
    def test_replay_emits_the_logs_records_then_materialized(self):
        engine = IdlogEngine(SECTION1)
        log = ChoiceLog()
        engine.one(EMP, seed=3, record=log)
        tracer = CallbackTracer()
        IdlogEngine(SECTION1, tracer=tracer).replay(EMP, log)
        events = [e for e in tracer.events
                  if e.kind in (EV_ID_CHOICE, EV_ID_MATERIALIZED)]
        assert [e.kind for e in events] == \
            [EV_ID_CHOICE] * len(log) + [EV_ID_MATERIALIZED]
        for event, record in zip(events, log.records):
            assert event.fields == {"replayed": True,
                                    **record.as_event_fields()}
        done = events[-1]
        assert done.get("replayed") is True
        assert done.get("tid_limit") == log.limit_for("emp", {2}) == 2
        assert done.get("id_tuples") == 4


@pytest.fixture
def partitions(monkeypatch):
    """Count calls of every ``sub_relations`` binding in ``repro.core``."""
    calls = [0]
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.core") or module is None:
            continue
        original = module.__dict__.get("sub_relations")
        if original is None:
            continue

        def counted(*args, _original=original, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "sub_relations", counted)
    return calls


class TestOnePartition:
    """One ``p[s]`` literal, so one materialization per evaluation."""

    def test_one_with_metrics_tracer(self, partitions):
        IdlogEngine(SECTION1, tracer=MetricsTracer()).one(EMP, seed=1)
        assert partitions[0] == 1

    def test_one_recording(self, partitions):
        IdlogEngine(SECTION1).one(EMP, seed=1, record=ChoiceLog())
        assert partitions[0] == 1

    def test_replay_with_tracer(self, partitions):
        log = ChoiceLog()
        IdlogEngine(SECTION1).one(EMP, seed=1, record=log)
        partitions[0] = 0
        IdlogEngine(SECTION1, tracer=CallbackTracer()).replay(EMP, log)
        assert partitions[0] == 1

    def test_two_level_program_partitions_each_relation_once(
            self, partitions):
        IdlogEngine(TWO_LEVEL, tracer=MetricsTracer()).one(
            ZIPF_EMP, seed=1, record=ChoiceLog())
        assert partitions[0] == 2


@pytest.fixture
def builds(monkeypatch):
    """Count runs of the partition builder behind ``sub_relations``."""
    calls = [0]
    original = idrelations._build_partition

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(idrelations, "_build_partition", counted)
    return calls


class TestPartitionReuse:
    """The partition belongs to the relation version, not to the draw."""

    def test_unchanged_relation_is_partitioned_once(self, builds):
        db = Database.from_facts({"emp": list(ZIPF_EMP.relation("emp"))})
        engine = IdlogEngine(PICK_PAIR, persistent_caches=True)
        engine.one(db, seed=1)
        builds[0] = 0
        engine.one(db, seed=2)
        assert builds[0] == 0
        db.relation("emp").add(("zed", "dept0"))
        engine.one(db, seed=3)
        assert builds[0] == 1

    def test_consumers_leave_the_cached_partition_intact(self):
        db = Database.from_facts({"emp": list(EMP.relation("emp"))})
        base = db.relation("emp")
        group = frozenset({2})
        engine = IdlogEngine(SECTION1)
        engine.run(db)
        log = ChoiceLog()
        engine.one(db, seed=4, record=log)
        engine.replay(db, log)
        engine.answers(db, "select_two_emp")
        validate_id_function(base, group,
                             canonical_id_function(base, group))
        cached = sub_relations(base, group)
        fresh = sub_relations(base.copy(), group)
        assert cached is sub_relations(base, group)
        assert list(cached.items()) == list(fresh.items())
        assert cached.digests() == fresh.digests()
