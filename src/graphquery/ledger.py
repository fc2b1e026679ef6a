"""Append-only query transcripts with JSONL export and replay helpers.

An alpha entry holds the queried pair; an alpha_m or beta entry holds
(v, set), the set as the `graphs.VertexSet` bitmask the oracle normalised
it to. JSONL writes every set as a sorted list of vertices and loads it
back as a VertexSet.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple, Sequence

from .graphs import VertexSet
from .partitions import Partition

KINDS = ("alpha", "alpha_m", "beta")


class LedgerEntry(NamedTuple):
    """One recorded query; its index is its position in the ledger."""

    kind: str
    args: tuple
    answer: int

    def to_json(self, index: int) -> str:
        if self.kind == "alpha":
            args = list(self.args)
        else:
            v, subset = self.args
            args = [v, sorted(subset)]
        return json.dumps({"kind": self.kind, "args": args, "answer": self.answer, "index": index})


class QueryLedger:
    """Append-only record of oracle calls; `count` is the measurement unit."""

    def __init__(self):
        self._entries: list[LedgerEntry] = []

    def append(self, kind: str, args: tuple, answer: int) -> LedgerEntry:
        if kind not in KINDS:
            raise ValueError(f"unknown oracle kind {kind!r}")
        if answer not in (0, 1):
            raise ValueError("answer must be a bit")
        entry = LedgerEntry(kind, args, answer)
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

    def answered(self, bit: int) -> int:
        return sum(1 for e in self._entries if e.answer == bit)

    def to_jsonl(self) -> str:
        """One JSON object per entry, in the JSONL format the README
        documents; public so that a run can be stored as a replayable fixture."""
        return "".join(e.to_json(i) + "\n" for i, e in enumerate(self._entries))

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
            if obj["index"] != position:
                raise ValueError(f"entry index {obj['index']} does not match position {position}")
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
    """True iff every recorded answer matches the honest answer for `partition`."""
    return all(honest_answer(e, partition) == e.answer for e in entries)


def replay_on_session(entries: Sequence[LedgerEntry], session) -> bool:
    """Re-issue every recorded query against a fresh session; True iff answers agree.

    The session must expose the query method matching each entry's kind.
    Public so that a stored ledger (`QueryLedger.from_jsonl`) can be
    replayed against any oracle or adversary session.
    """
    method = {
        "alpha": "membership_query",
        "alpha_m": "multi_membership_query",
        "beta": "neighborhood_query",
    }
    for e in entries:
        fn = getattr(session, method[e.kind])
        if fn(*e.args) != e.answer:
            return False
    return True
