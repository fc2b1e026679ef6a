"""Append-only query transcripts with JSONL export and replay helpers.

An alpha entry holds the queried pair; an alpha_m or beta entry holds
(v, set), the set as the `graphs.VertexSet` bitmask the oracle normalised
it to. JSONL writes every set as a sorted list of vertices and loads it
back as a VertexSet.

`to_jsonl` is the one writer. It writes every vertex as the int
`operator.index` gives, so a bool or numpy-int vertex writes as a JSON
integer that `from_jsonl` loads back, and a vertex that is not an integer
raises TypeError at write time. A set is listed from its `VertexSet.of`
mask, so any iterable of vertices writes as its sorted members.
"""

from __future__ import annotations

import json
from operator import index
from typing import Iterator, NamedTuple, Sequence

from ._canon import _MEMBERS
from .graphs import VertexSet
from .partitions import Partition

KINDS = ("alpha", "alpha_m", "beta")


class LedgerEntry(NamedTuple):
    """One recorded query; its index is its position in the ledger."""

    kind: str
    args: tuple
    answer: int


class QueryLedger:
    """Append-only record of oracle calls; `count` is the measurement unit."""

    def __init__(self):
        self._entries: list[LedgerEntry] = []

    def append(self, kind: str, args: tuple, answer: int) -> LedgerEntry:
        if kind not in KINDS:
            raise ValueError(f"unknown oracle kind {kind!r}")
        # True and 1.0 equal 1 but write JSON that from_jsonl rejects
        if type(answer) is not int or answer not in (0, 1):
            raise ValueError("answer must be a bit")
        # the NamedTuple's own __new__ is one more Python frame per query
        entry = tuple.__new__(LedgerEntry, (kind, args, answer))
        self._entries.append(entry)
        return entry

    @property
    def count(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self._entries)

    def to_jsonl(self) -> str:
        """One JSON object per entry, in the JSONL format the README
        documents; public so that a run can be stored as a replayable fixture."""
        lines = []
        # append lets only the kinds in KINDS and the ints 0 and 1 in
        for i, (kind, (v, other), answer) in enumerate(self._entries):
            if kind == "alpha":
                lines.append(f'{{"kind": "alpha", "args": [{index(v)}, {index(other)}], '
                             f'"answer": {answer}, "index": {i}}}\n')
                continue
            # a byte at a time: _MEMBERS[byte] is its set bits (_canon.MAX_N >= 8)
            mask, members, base = VertexSet.of(other).mask, [], 0
            for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
                for j in _MEMBERS[byte]:
                    members.append(base + j)
                base += 8
            lines.append(f'{{"kind": "{kind}", "args": [{index(v)}, [{", ".join(map(str, members))}]], '
                         f'"answer": {answer}, "index": {i}}}\n')
        return "".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> QueryLedger:
        """Load a ledger stored by `to_jsonl`, validating every entry: it must
        be one an oracle could have recorded, so that it replays and writes
        back byte for byte the same."""
        ledger = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            position = len(ledger)
            if not isinstance(obj, dict) or obj.keys() != {"kind", "args", "answer", "index"}:
                raise ValueError(f"entry {position} needs exactly the keys kind, args, answer, index")
            if type(obj["answer"]) is not int:  # JSON false would load as 0 and write back as false
                raise ValueError(f"entry {position} has answer {obj['answer']!r}, not 0 or 1")
            ledger.append(obj["kind"], _loaded_args(obj["kind"], obj["args"]), obj["answer"])
            # JSON true or 2.0 equals a position but writes back as 1 or 2
            if type(obj["index"]) is not int or obj["index"] != position:
                raise ValueError(f"entry index {obj['index']!r} does not match position {position}")
        return ledger


def _is_vertex(x) -> bool:
    return type(x) is int and x >= 0


def _loaded_args(kind: str, args) -> tuple:
    """args as an oracle records them: two distinct vertices for alpha; for
    alpha_m and beta, a vertex and an ascending list of other vertices,
    loaded as a VertexSet."""
    if kind in KINDS and isinstance(args, list) and len(args) == 2 and _is_vertex(args[0]):
        v, other = args
        if kind == "alpha" and _is_vertex(other) and v != other:
            return v, other
        if kind != "alpha" and isinstance(other, list) and all(map(_is_vertex, other)):
            subset = VertexSet.of(other)
            if list(subset) == other and v not in subset:
                return v, subset
    raise ValueError(f"no oracle records a {kind!r} query with args {args!r}")


def honest_answer(entry: LedgerEntry, partition: Partition) -> int:
    """Answer entry's query truthfully for a hidden graph with these
    components; an entry naming a vertex outside them raises ValueError."""
    u, other = entry.args
    try:  # the accessors and VertexSet.within check every vertex
        if entry.kind == "alpha":
            return int(partition.same_block(u, other))
        if entry.kind == "alpha_m":
            return int(bool(VertexSet.within(other, partition.n).mask & partition.block_mask(u)))
    except ValueError as exc:
        raise ValueError(f"{entry.kind} entry {entry.args} names a vertex outside 0..{partition.n - 1}") from exc
    raise ValueError("beta queries depend on edges, not components; cannot replay from a partition")


def replay_matches_partition(entries: Sequence[LedgerEntry], partition: Partition) -> bool:
    """True iff every recorded answer matches the honest answer for `partition`.

    An alpha entry inside 0..n-1 compares the two vertices' block masks in
    place; every other entry goes through `honest_answer`, which raises for
    an entry it cannot answer."""
    n = partition.n
    block = partition._block_masks  # entry w is the mask of w's block
    for entry in entries:
        kind, (u, v), answer = entry
        if kind == "alpha" and 0 <= u < n > v >= 0:
            if (block[u] == block[v]) != answer:
                return False
        elif honest_answer(entry, partition) != answer:
            return False
    return True
