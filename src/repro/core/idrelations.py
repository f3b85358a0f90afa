"""ID-relations and ID-functions (the paper's Section 2.1).

Given a relation ``r`` and a set ``s`` of attribute positions, the
*sub-relations of r grouped by s* partition ``r`` into blocks of tuples
agreeing on the attributes in ``s``.  An *ID-function* of a block of size k
is a bijection onto ``{0, ..., k-1}``; an *ID-relation of r on s* augments
every tuple with the tid its block's ID-function assigns.

Example 1 of the paper: for ``r = {(a,c), (a,d), (b,c)}`` grouped by the
first attribute the blocks are ``{(a,c), (a,d)}`` and ``{(b,c)}``, so there
are exactly two ID-relations of ``r`` on ``{1}``.

The *choice* of ID-function is the language's source of non-determinism;
this module provides construction, counting and exhaustive enumeration of
ID-functions, including the *prefix-limited* variant used by the Section 4
optimization (when every use of ``p[s]`` constrains the tid below ``k``,
only the k-prefix of each block's ordering matters, shrinking both the
materialized relation and the enumeration space from ``k!`` to ``P(n, k)``
per block).

A draw (:class:`IdDraw`) is an ID-function that carries the one partition
it was drawn on and its per-block orderings, so the ID-relation, the choice
records and replay read it without partitioning again;
:func:`read_id_function` reads a supplied tid map onto a partition.

The partition depends only on the relation's contents, not on the draw, so
it belongs to the relation version: :func:`sub_relations` caches it (with
its block digests) on the relation until the relation's next write, and a
prepared program drawing again on unchanged data reuses it.  Only the
per-block bijections are drawn anew.
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import permutations, product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..datalog.database import Relation
from ..datalog.pool import GLOBAL_POOL
from ..datalog.terms import Value
from ..errors import SchemaError

Grouping = frozenset[int]
"""A set of 1-based attribute positions of the base relation."""

IdFunction = Mapping[tuple[Value, ...], int]
"""An assignment of tids to base tuples (bijective within each block)."""


def block_digest(rows: Iterable[tuple]) -> str:
    """Content digest of one block: order-independent, repr-canonical.

    Two blocks digest equally iff they contain the same tuples — the
    drift detector replay relies on.  16 hex chars (64 bits) is plenty
    for block-count scales while keeping log lines readable.
    """
    payload = "\n".join(sorted(repr(row) for row in rows))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Partition(dict):
    """Grouping key -> the tuples of that block (see :func:`sub_relations`).

    A relation keeps one per grouping until its next write, so readers
    treat it as read-only.  :meth:`digests` adds each block's
    :func:`block_digest`, built on first use and kept with the partition.
    """

    __slots__ = ("_digests",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._digests: Optional[dict[tuple, str]] = None

    def digests(self) -> dict[tuple, str]:
        """Block key -> :func:`block_digest`, in repr-sorted key order.

        The order choice records are emitted in, so two logs of the same
        decisions compare line by line.
        """
        if self._digests is None:
            self._digests = {key: block_digest(self[key])
                             for key in sorted(self, key=repr)}
        return self._digests


class IdDraw(dict):
    """An ID-function together with the partition it was drawn on.

    The dict itself is the tid map, so a draw is an :data:`IdFunction`
    wherever one is read.  ``blocks`` is the partition of the base
    relation and ``orderings`` maps each block key to its tuples in tid
    order (only the assigned prefix when the function is prefix-limited).
    """

    __slots__ = ("blocks", "orderings")

    def __init__(self, blocks: Mapping[tuple, list[tuple]],
                 orderings: Mapping[tuple, Sequence[tuple]]) -> None:
        super().__init__()
        for ordering in orderings.values():
            self.update(zip(ordering, range(len(ordering))))
        self.blocks = blocks if isinstance(blocks, Partition) \
            else Partition(blocks)
        self.orderings = orderings


def group_key(row: tuple[Value, ...], group: Grouping) -> tuple[Value, ...]:
    """The grouping key of a tuple: its values at ``group`` positions.

    Positions are 1-based, following the paper; the key orders them
    ascending so it is deterministic.
    """
    return tuple(row[i - 1] for i in sorted(group))


def sub_relations(base: Relation, group: Grouping) -> Partition:
    """Partition ``base`` into its sub-relations grouped by ``group``.

    Returns a mapping from grouping key to the tuples of that block, in a
    deterministic order so downstream constructions are repeatable: blocks
    in the order their keys first appear in ``base``'s row order, each
    block's tuples sorted by the repr of their values.  The partition is
    cached on ``base`` until its next write (:meth:`Relation.derived`), so
    a prepared program partitions an unchanged relation once; it is
    shared, and read-only.
    """
    for i in group:
        if not 1 <= i <= base.arity:
            raise SchemaError(
                f"grouping position {i} outside 1..{base.arity}")
    group = frozenset(group)
    return base.derived(("id.partition", group),
                        lambda: _build_partition(base, group))


def _row_numbers(base: Relation) -> dict[tuple[Value, ...], int]:
    """Each tuple of ``base`` -> its row number (cached until a write)."""
    return base.derived("id.rows",
                        lambda: dict(zip(base, range(len(base)))))


def _build_partition(base: Relation, group: Grouping) -> Partition:
    """The partition :func:`sub_relations` caches, grouped on codes."""
    rows = list(_row_numbers(base))
    columns = base.coded_columns()
    keys = list(zip(*[columns[i - 1] for i in sorted(group)])) if group \
        else [()] * len(rows)
    members: dict = {}
    for r, key in enumerate(keys):
        bucket = members.get(key)
        if bucket is None:
            members[key] = [r]
        else:
            bucket.append(r)
    blocks = Partition()
    for numbers in members.values():
        block = list(map(rows.__getitem__, numbers))
        if len(block) > 1:
            # Per block: the reprs of every row at once would cost more
            # memory than the partition itself.
            reprs = list(zip(*[map(repr, column) for column in zip(*block)]))
            block = list(map(block.__getitem__, sorted(
                range(len(block)), key=reprs.__getitem__)))
        blocks[group_key(block[0], group)] = block
    return blocks


def read_id_function(blocks: Mapping[tuple, list[tuple]],
                     id_function: IdFunction,
                     limit: Optional[int] = None) -> IdDraw:
    """Read a supplied tid map onto a partition of its base relation.

    Each block's tids must be ``0..m-1`` without repeats, where ``m`` is
    the block size or, under a tid limit, at least ``min(size, limit)`` —
    the k-prefixes :func:`enumerate_id_functions` yields stay allowed.

    Raises:
        SchemaError: naming the block whose tids are not a bijection, or
            the first tuple left without a tid.
    """
    orderings: dict[tuple, list[tuple]] = {}
    for key, rows in blocks.items():
        assigned = sorted(
            ((tid, row) for row in rows
             if (tid := id_function.get(row)) is not None),
            key=lambda pair: pair[0])
        tids = [tid for tid, _ in assigned]
        if tids != list(range(len(tids))):
            raise SchemaError(
                f"tids {tids} of block {key} are not a bijection onto "
                f"0..{len(rows) - 1}")
        if len(tids) < (len(rows) if limit is None
                        else min(len(rows), limit)):
            row = next(row for row in rows if row not in id_function)
            raise SchemaError(
                f"ID-function undefined on {row!r} of block {key}")
        orderings[key] = [row for _, row in assigned]
    return IdDraw(blocks, orderings)


def validate_id_function(base: Relation, group: Grouping,
                         id_function: IdFunction) -> None:
    """Check that ``id_function`` is a valid ID-function of ``base`` on
    ``group``: defined on every tuple and bijective onto 0..k-1 within each
    block.

    Raises:
        SchemaError: when the function is not a block-wise bijection or
            leaves a tuple without a tid.
    """
    read_id_function(sub_relations(base, group), id_function)


def canonical_id_function(base: Relation, group: Grouping) -> IdDraw:
    """The deterministic ID-function: tids follow the sorted tuple order.

    Used as the default assignment so repeated evaluations of the same
    program on the same database agree.
    """
    blocks = sub_relations(base, group)
    return IdDraw(blocks, blocks)


def random_id_function(base: Relation, group: Grouping,
                       rng: random.Random) -> IdDraw:
    """A uniformly random ID-function (independent shuffle per block)."""
    blocks = sub_relations(base, group)
    orderings: dict[tuple, list[tuple]] = {}
    for key, rows in blocks.items():
        orderings[key] = shuffled = list(rows)
        rng.shuffle(shuffled)
    return IdDraw(blocks, orderings)


def count_id_functions(base: Relation, group: Grouping,
                       limit: Optional[int] = None) -> int:
    """The number of (distinct-prefix) ID-functions of ``base`` on ``group``.

    Without ``limit`` this is ``∏ k!`` over block sizes ``k``.  With a tid
    limit only the assignment of tids ``0..limit-1`` is observable, so the
    count drops to ``∏ P(k, min(k, limit))``.
    """
    total = 1
    for rows in sub_relations(base, group).values():
        k = len(rows)
        take = k if limit is None else min(k, limit)
        total *= math.perm(k, take)
    return total


def enumerate_id_functions(base: Relation, group: Grouping,
                           limit: Optional[int] = None) -> Iterator[IdDraw]:
    """Yield every ID-function of ``base`` on ``group``.

    With ``limit`` k, yields every *distinct k-prefix*: functions are partial
    (defined only on tuples receiving tids below k in their block), which is
    exactly what a tid-limited materialization needs.  The number of yields
    matches :func:`count_id_functions`.
    """
    blocks = sub_relations(base, group)
    per_block = [permutations(rows, len(rows) if limit is None
                              else min(len(rows), limit))
                 for rows in blocks.values()]
    for combo in product(*per_block):
        yield IdDraw(blocks, dict(zip(blocks, combo)))


def make_id_relation(base: Relation, id_function: IdFunction,
                     limit: Optional[int] = None) -> Relation:
    """Build the ID-relation: every base tuple extended with its tid.

    Rows come out in ``base``'s row order, as coded rows: the base row's
    codes plus the tid's.  A draw contributes the first ``limit`` tuples
    of each block's ordering, so a tid-limited ID-relation costs
    O(limit · blocks), not O(|base|); any other tid map contributes its
    entries below ``limit``.

    Args:
        base: The base relation.
        id_function: Tid assignment (may be partial when prefix-limited).
        limit: When given, keep only tuples with tid < limit (the Section 4
            group-limit optimization; sound when every use of the
            ID-predicate constrains the tid below ``limit``).
    """
    if isinstance(id_function, IdDraw):
        assigned = ((row, tid)
                    for ordering in id_function.orderings.values()
                    for tid, row in enumerate(ordering[:limit]))
    else:
        assigned = ((row, tid) for row, tid in id_function.items()
                    if limit is None or tid < limit)
    row_of = _row_numbers(base).get
    picked = sorted((r, tid) for row, tid in assigned
                    if (r := row_of(row)) is not None)
    if limit is None and len(picked) < len(base):
        row = next(row for row in base if row not in id_function)
        raise SchemaError(
            f"ID-function undefined on {row!r} without a tid limit")
    numbers = [r for r, _ in picked]
    tid_codes = map(GLOBAL_POOL.encode, [tid for _, tid in picked])
    result = Relation(base.arity + 1)
    result.extend_coded(list(zip(
        *[map(col.__getitem__, numbers) for col in base.coded_columns()],
        tid_codes)))
    return result


def id_relations_of(base: Relation, group: Grouping,
                    limit: Optional[int] = None) -> Iterator[Relation]:
    """Yield every possible ID-relation of ``base`` on ``group``.

    This is the object the paper enumerates in Example 1; mostly useful for
    tests and small demonstrations (the engine enumerates ID-functions and
    materializes on demand instead).
    """
    for id_function in enumerate_id_functions(base, group, limit):
        yield make_id_relation(base, id_function, limit)


def ordering_to_id_function(orderings: Sequence[Sequence[tuple]],
                            ) -> dict:
    """Build an ID-function from explicit per-block tuple orderings.

    Convenience for tests and oracles: each sequence lists one block's
    tuples in tid order.
    """
    mapping: dict[tuple, int] = {}
    for ordering in orderings:
        for tid, row in enumerate(ordering):
            if row in mapping:
                raise SchemaError(f"tuple {row!r} listed twice")
            mapping[row] = tid
    return mapping
