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
        """Load a ledger stored by `to_jsonl`, validating every entry."""
        ledger = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj["kind"]
            if kind == "alpha":
                args = tuple(obj["args"])
            else:
                v, subset = obj["args"]
                args = (v, VertexSet.of(subset))
            position = len(ledger)
            ledger.append(kind, args, obj["answer"])
            if obj["index"] != position:
                raise ValueError(f"entry index {obj['index']} does not match position {position}")
        return ledger


def honest_answer(entry: LedgerEntry, partition: Partition) -> int:
    """Answer entry's query truthfully for a hidden graph with these components."""
    if entry.kind == "alpha":
        u, v = entry.args
        return int(partition.same_block(u, v))
    if entry.kind == "alpha_m":
        u, subset = entry.args
        return int(bool(VertexSet.of(subset).mask & partition.block_mask(u)))
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
