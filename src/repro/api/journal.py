"""Crash-safe job journal: a JSONL write-ahead log for the serve plane.

A batch run that dies loses one process's work; a long-lived
``repro serve`` that dies used to lose every queued job its clients
believed were accepted. The :class:`JobJournal` closes that gap with
the smallest durable structure that works — an append-only JSONL file
under the serve state dir, one operation per line:

- ``{"op": "submitted", "job": "job-000001", "request": {...}}``
  — written *before* the submission is acknowledged (WAL discipline);
- ``{"op": "started", "job": ..., "attempt": n}`` — an execution began;
- ``{"op": "finished", "job": ..., "state": "completed"|"failed", ...}``
  — terminal; recovery skips these jobs entirely;
- ``{"op": "checkpointed", "job": ...}`` — a graceful drain gave up on
  the job before it ran; recovery re-queues it exactly like a
  submitted-but-never-finished one (the record keeps drain audit
  distinct from a crash).

Recovery (:func:`JobJournal.recover`) replays the log in order and
returns the jobs that were still owed work — submitted (or
checkpointed) with no ``finished`` — plus the highest job sequence
number seen, so a restarted runtime resumes its id counter past
everything it ever acknowledged (ids stay unique across restarts; no
duplicates). A torn tail (the half-written last line of a crashed
process) is tolerated: replay stops at the first undecodable line.
Opening a journal compacts it: terminal jobs' lines are dropped and the
survivors rewritten through a temp file + atomic ``os.replace``.

Lines are serialized with the repo-wide deterministic
:func:`repro.api.schemas.dumps` (sorted keys). Timestamps here are
host wall-clock (this file is in the lint's wall-clock exemption list);
nothing in the journal feeds simulated behavior.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.api import schemas

__all__ = ["JobJournal", "RecoveredJob"]

OP_SUBMITTED = "submitted"
OP_STARTED = "started"
OP_FINISHED = "finished"
OP_CHECKPOINTED = "checkpointed"

#: File name under the serve state dir.
JOURNAL_NAME = "jobs.journal.jsonl"


@dataclass
class RecoveredJob:
    """One journaled job owed work after a restart."""

    job_id: str
    request: Dict[str, Any]
    #: Executions the previous incarnation started (informational; the
    #: job restarts from attempt ``attempts + 1``).
    attempts: int = 0
    #: True when a graceful drain checkpointed it (vs. a crash).
    checkpointed: bool = False


@dataclass
class _JobTrace:
    """Replay accumulator for one job id."""

    request: Optional[Dict[str, Any]] = None
    attempts: int = 0
    finished: bool = False
    checkpointed: bool = False
    order: int = 0


def _replay(path: str) -> Tuple[Dict[str, _JobTrace], int]:
    """Replay a journal file; tolerate a torn tail."""
    traces: Dict[str, _JobTrace] = {}
    max_seq = 0
    order = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return traces, max_seq
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                break  # torn tail: the crash interrupted this write
            if not isinstance(entry, Mapping) or "op" not in entry \
                    or "job" not in entry:
                break
            job_id = str(entry["job"])
            trace = traces.get(job_id)
            if trace is None:
                order += 1
                trace = traces[job_id] = _JobTrace(order=order)
            op = entry["op"]
            if op == OP_SUBMITTED:
                trace.request = dict(entry.get("request") or {})
            elif op == OP_STARTED:
                trace.attempts = max(trace.attempts,
                                     int(entry.get("attempt") or 1))
            elif op == OP_FINISHED:
                trace.finished = True
            elif op == OP_CHECKPOINTED:
                trace.checkpointed = True
            max_seq = max(max_seq, _job_seq(job_id))
    return traces, max_seq


def _job_seq(job_id: str) -> int:
    """The numeric sequence inside ``job-%06d`` ids (0 if foreign)."""
    _, _, raw = job_id.partition("-")
    try:
        return int(raw)
    except ValueError:
        return 0


class JobJournal:
    """Append-only WAL over one serve state directory.

    Thread-safety is the caller's concern: the ServeRuntime appends
    under its admission lock, which also serializes entries in true
    admission order.
    """

    def __init__(self, state_dir: str, fsync: bool = False,
                 on_append: Optional[Callable[[float], None]] = None
                 ) -> None:
        self.state_dir = state_dir
        self.path = os.path.join(state_dir, JOURNAL_NAME)
        self.fsync = fsync
        #: Observability hook: called with each append's wall seconds
        #: (write+flush+fsync) — feeds the serve plane's journal
        #: latency window. Never raises into the WAL path.
        self.on_append = on_append
        #: Ops appended since this journal opened (compaction happens
        #: at open, so this is the replay debt a restart would pay —
        #: surfaced as healthz ``journal_lag_ops``).
        self.ops_since_compaction = 0
        os.makedirs(state_dir, exist_ok=True)
        self._recovered, self._max_seq = _replay(self.path)
        self._compact()
        self._fh = open(self.path, "a", encoding="utf-8")

    # -- recovery ------------------------------------------------------------

    def recovered_jobs(self) -> List[RecoveredJob]:
        """Jobs owed work by the previous incarnation, admission order."""
        out = []
        for job_id, trace in sorted(self._recovered.items(),
                                    key=lambda kv: kv[1].order):
            if trace.finished or trace.request is None:
                continue
            out.append(RecoveredJob(job_id=job_id, request=trace.request,
                                    attempts=trace.attempts,
                                    checkpointed=trace.checkpointed))
        return out

    @property
    def max_seq(self) -> int:
        """Highest job sequence number ever journaled (0 when fresh)."""
        return self._max_seq

    def _compact(self) -> None:
        """Rewrite the log keeping only unfinished jobs (atomically)."""
        live = [(job_id, t) for job_id, t in sorted(
            self._recovered.items(), key=lambda kv: kv[1].order)
            if not t.finished and t.request is not None]
        if not os.path.exists(self.path):
            return
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for job_id, trace in live:
                fh.write(schemas.dumps(
                    {"op": OP_SUBMITTED, "job": job_id,
                     "request": trace.request}) + "\n")
                if trace.attempts:
                    fh.write(schemas.dumps(
                        {"op": OP_STARTED, "job": job_id,
                         "attempt": trace.attempts}) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    # -- appends ---------------------------------------------------------------

    def submitted(self, job_id: str, request: Mapping[str, Any]) -> None:
        self._append({"op": OP_SUBMITTED, "job": job_id,
                      "request": dict(request), "t": time.time()})

    def started(self, job_id: str, attempt: int) -> None:
        self._append({"op": OP_STARTED, "job": job_id, "attempt": attempt,
                      "t": time.time()})

    def finished(self, job_id: str, state: str,
                 error: Optional[str] = None) -> None:
        entry: Dict[str, Any] = {"op": OP_FINISHED, "job": job_id,
                                 "state": state, "t": time.time()}
        if error is not None:
            entry["error"] = error
        self._append(entry)

    def checkpointed(self, job_id: str) -> None:
        self._append({"op": OP_CHECKPOINTED, "job": job_id,
                      "t": time.time()})

    def _append(self, entry: Dict[str, Any]) -> None:
        if self._fh.closed:
            return  # hard-stopped; the WAL keeps what it had
        started = time.perf_counter()
        self._max_seq = max(self._max_seq, _job_seq(entry["job"]))
        self._fh.write(schemas.dumps(entry) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.ops_since_compaction += 1
        if self.on_append is not None:
            try:
                self.on_append(time.perf_counter() - started)
            except Exception:  # noqa: BLE001 - telemetry never breaks WAL
                pass

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
