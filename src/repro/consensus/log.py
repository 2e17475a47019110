"""The replicated log: entries, terms, snapshots and compaction.

One :class:`RaftLog` lives inside every consensus replica. Entries are
``(index, term, command)`` triples; commands are plain tuples (e.g.
``("set", key, value)``) so logs compare and render deterministically.
Indexes are 1-based as in the Raft paper; index 0 is the empty prefix.

Compaction folds an applied prefix into a snapshot: the log keeps
``snapshot_index``/``snapshot_term`` plus an opaque ``snapshot_state``
(the state machine's own serialisation) and drops the covered entries.
A leader whose follower has fallen behind the snapshot horizon ships
the snapshot instead of replaying compacted entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LogEntry:
    """One replicated command, stamped with the term that proposed it."""

    index: int
    term: int
    command: tuple


class RaftLog:
    """An append-only command log with snapshot-based compaction."""

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []  # entries after the snapshot
        self.snapshot_index = 0
        self.snapshot_term = 0
        self.snapshot_state: Any = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def last_index(self) -> int:
        if self._entries:
            return self._entries[-1].index
        return self.snapshot_index

    @property
    def last_term(self) -> int:
        if self._entries:
            return self._entries[-1].term
        return self.snapshot_term

    def term_at(self, index: int) -> Optional[int]:
        """Term of the entry at ``index``; None when unknown (compacted
        away or beyond the end). ``snapshot_index`` itself is known."""
        if index == 0:
            return 0
        if index == self.snapshot_index:
            return self.snapshot_term
        if index < self.snapshot_index or index > self.last_index:
            return None
        return self._entries[index - self.snapshot_index - 1].term

    def entry(self, index: int) -> LogEntry:
        offset = index - self.snapshot_index - 1
        if offset < 0 or offset >= len(self._entries):
            raise ConfigurationError(
                f"log index {index} outside retained range "
                f"({self.snapshot_index}, {self.last_index}]"
            )
        return self._entries[offset]

    def entries_from(self, index: int) -> list[LogEntry]:
        """All retained entries with ``entry.index >= index``."""
        offset = max(0, index - self.snapshot_index - 1)
        return list(self._entries[offset:])

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def append_new(self, term: int, command: tuple) -> LogEntry:
        """Leader-side append: stamp the next index with ``term``."""
        entry = LogEntry(index=self.last_index + 1, term=term, command=command)
        self._entries.append(entry)
        return entry

    def overwrite_from(self, entries: list[LogEntry]) -> int:
        """Follower-side append (AppendEntries): graft ``entries``.

        Entries already present with matching terms are kept (idempotent
        re-delivery); the first conflicting index truncates the suffix —
        the Raft log-matching repair. Returns the number of entries
        actually written.
        """
        written = 0
        for entry in entries:
            if entry.index <= self.snapshot_index:
                continue  # already folded into the snapshot
            existing_term = self.term_at(entry.index)
            if existing_term == entry.term:
                continue
            if existing_term is not None:
                # Conflict: drop the divergent suffix, then append.
                keep = entry.index - self.snapshot_index - 1
                del self._entries[keep:]
            self._entries.append(entry)
            written += 1
        return written

    def compact(self, upto: int, state: Any) -> int:
        """Fold every entry at or below ``upto`` into the snapshot.

        ``state`` is the state machine's serialisation at ``upto``.
        Returns the number of entries dropped.
        """
        if upto <= self.snapshot_index:
            return 0
        term = self.term_at(upto)
        if term is None:
            raise ConfigurationError(
                f"cannot compact to unknown index {upto} "
                f"(last={self.last_index})"
            )
        dropped = upto - self.snapshot_index
        del self._entries[:dropped]
        self.snapshot_index = upto
        self.snapshot_term = term
        self.snapshot_state = state
        return dropped

    def install_snapshot(self, index: int, term: int, state: Any) -> None:
        """Replace the log prefix with a leader-shipped snapshot."""
        if index <= self.snapshot_index:
            return
        if self.term_at(index) == term:
            # We already hold the covered prefix: just compact to it.
            self.compact(index, state)
            return
        # Snapshot is ahead of (or conflicts with) our log: reset.
        self._entries = []
        self.snapshot_index = index
        self.snapshot_term = term
        self.snapshot_state = state

    def __repr__(self) -> str:
        return (
            f"RaftLog(snapshot={self.snapshot_index}@t{self.snapshot_term}, "
            f"entries={len(self._entries)}, last={self.last_index})"
        )
