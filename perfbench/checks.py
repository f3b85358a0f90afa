"""Answer checks that depend on the semantics, not on a seed->answer digest.

A later change may legally draw different samples for the same seed (a
choice-log version bump, a new shuffle); it may not break what every
answer of the query must satisfy:

* ``pick`` holds exactly ``min(k, |block|)`` rows of each department,
  every one of them a row of ``emp``;
* ``pair`` is exactly the ordered pairs of distinct picked colleagues;
* the closure equals the one an independent breadth-first search finds;
* a session holds its base rows plus every write the server acknowledged.

Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

from collections import defaultdict, deque


class SampleChecker:
    """Checks answers of the ``pick``/``pair`` sampling query on one ``emp``.

    The row set and the department sizes are built once, so a check
    allocates little beyond the answer it reads: on the in-process
    workloads, the checks share a process with the program whose peak
    resident set is a metric.

    Args:
        emp: The ``emp`` rows the queries are evaluated on (on
            ``serve-mixed``, a session's base rows).
        k: Rows kept per department.
    """

    def __init__(self, emp, k: int) -> None:
        self.rows = frozenset(map(tuple, emp))
        self.sizes = _block_sizes(self.rows)
        self.k = k

    def check(self, pick, pair, written=(), maybe_written=()) -> list[str]:
        """Problems with one answer; an empty list means correct.

        Args:
            pick: ``(name, dept)`` rows of the answer.
            pair: ``(name, name)`` rows of the answer.
            written: Rows added to ``emp`` before the query was sent.
            maybe_written: Rows whose write was in flight while the query
                ran; the answer may reflect any of them, or none.
        """
        problems: list[str] = []
        extra = set(map(tuple, written)) | set(map(tuple, maybe_written))
        low_sizes = self._sizes_with(written)
        high_sizes = self._sizes_with(extra)
        pick = [tuple(row) for row in pick]
        if len(set(pick)) != len(pick):
            problems.append("pick holds a duplicate row")
        per_dept: dict = defaultdict(int)
        for row in set(pick):
            if row not in self.rows and row not in extra:
                problems.append(f"pick row {row} is not in emp")
            per_dept[row[1]] += 1
        for dept in high_sizes.keys() | per_dept.keys():
            lo = min(self.k, low_sizes.get(dept, 0))
            hi = min(self.k, high_sizes.get(dept, 0))
            if not lo <= per_dept.get(dept, 0) <= hi:
                want = lo if lo == hi else f"{lo}..{hi}"
                problems.append(f"department {dept} has "
                                f"{per_dept.get(dept, 0)} picks, "
                                f"expected {want}")
        dept_of: dict = defaultdict(set)
        for name, dept in set(pick):
            dept_of[dept].add(name)
        expected = {(a, b) for names in dept_of.values()
                    for a in names for b in names if a != b}
        got = {tuple(row) for row in pair}
        if got != expected:
            problems.append(f"pair differs from pick: "
                            f"{len(expected - got)} missing, "
                            f"{len(got - expected)} extra")
        return problems

    def _sizes_with(self, extra) -> dict:
        added = set(map(tuple, extra)) - self.rows
        if not added:
            return self.sizes
        sizes = dict(self.sizes)
        for _, dept in added:
            sizes[dept] = sizes.get(dept, 0) + 1
        return sizes


def _block_sizes(emp) -> dict:
    sizes: dict = defaultdict(int)
    for _, dept in set(map(tuple, emp)):
        sizes[dept] += 1
    return dict(sizes)


def closure(edges) -> set:
    """Transitive closure by breadth-first search from every node."""
    succ: dict = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    pairs = set()
    for start in list(succ):
        seen = set()
        queue = deque(succ[start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(succ.get(node, ()))
        pairs.update((start, node) for node in seen)
    return pairs


def pair_digest(pairs) -> tuple[int, int]:
    """(count, order-free digest) of a set of pairs.

    The digest sums the pairs' hashes, so it is cheap to take and keeps
    nothing resident; string hashes are salted per process, so a digest
    compares only with one taken in the same process.
    """
    return len(pairs), sum(map(hash, pairs)) & 0xFFFF_FFFF_FFFF_FFFF


def check_closure(path, expected: tuple[int, int]) -> list[str]:
    """Compare a ``path`` answer with the digest of the BFS closure.

    Args:
        path: The answer's pairs; a list is checked for duplicates first.
        expected: :func:`pair_digest` of :func:`closure`.
    """
    got = path if isinstance(path, (set, frozenset)) \
        else {tuple(row) for row in path}
    if len(got) != len(path):
        return ["path holds a duplicate pair"]
    count, digest = pair_digest(got)
    if count != expected[0]:
        return [f"path holds {count} pairs, the BFS closure "
                f"{expected[0]}"]
    if digest != expected[1]:
        return ["path holds pairs the BFS closure does not"]
    return []


def check_writes(session: str, found_rows: int, base_rows: int,
                 acked: int) -> list[str]:
    """A session's ``emp`` size after the run against what was acked."""
    if found_rows == base_rows + acked:
        return []
    return [f"session {session} holds {found_rows} emp rows, expected "
            f"{base_rows} base + {acked} acknowledged writes"]
