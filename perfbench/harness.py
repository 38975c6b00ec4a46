"""Op runner: times each op, enforces deadlines, applies output checks and
counts failures.

A run makes a fixed number of input sets from its seed and goes over all of
them in passes until its time is up.  An op is one (input set, name) pair:
the first pass decides the counts, so ``attempted`` and ``failed`` depend on
the seed alone, not on how many passes fit.  Later passes repeat each op for
its timing and check its output again; an op that raised or ran past its
deadline in the first pass is not repeated.  An op's time is its mean
over the passes: outside load comes and goes within a run, and the speed
factor (speed.py) it is scaled by is a mean over the run too.

An op fails when it raises, runs past its deadline, or misses a check.  A
missed check is either a *library* check (the library's own acceptance
test, such as ``validate``, reporting a failure it detects itself) or an
*oracle* check (an independent fact about the output, or a reference value).
A run is ``correct`` when no oracle check missed: every failure it saw was
one the library reported.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


class Deadline(BaseException):
    """Raised inside an op that runs past its deadline.

    A BaseException, so that ``except Exception`` inside the library cannot
    swallow it.
    """


@contextmanager
def deadline(seconds: float | None):
    """Raise :class:`Deadline` in the calling thread after ``seconds``."""
    if seconds is None:
        yield
        return

    def on_alarm(signum, frame):
        raise Deadline()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Check:
    name: str
    passed: bool
    oracle: bool


def library(name: str, passed) -> Check:
    return Check(name, bool(passed), oracle=False)


def oracle(name: str, passed) -> Check:
    return Check(name, bool(passed), oracle=True)


@dataclass
class OpRecord:
    pass_: int
    input: int  # index of the input set
    name: str
    query: bool
    seconds: float
    status: str  # ok | raised | deadline | check | oracle
    detail: str = ""
    group: str = ""  # ops of one group are alike: their times are pooled


class Runner:
    """Runs ops one after another and keeps one record per op.

    ``reference`` maps "<op>.<key>" to a value recorded at the default seed;
    a check function returns ``(checks, keys)`` where ``keys`` maps key names
    to ``(value, tolerance)``.  Keys are compared with the reference only
    while ``compare_reference`` is set, and collected into ``keys``.
    """

    NOT_REPEATED = ("raised", "deadline")

    def __init__(self, tracer=None, reference=None, probe=None):
        self.tracer = tracer
        self.probe = probe  # a speed.SpeedProbe; the time it samples in an op is not the op's
        self.reference = reference or {}
        self.compare_reference = False
        self.pass_ = 0
        self.input = 0
        self.records: list[OpRecord] = []
        self.keys: dict = {}
        self._first: dict = {}  # (input, name) -> first-pass status

    def op(self, name, fn, check=None, deadline_s=None, query=False, group=None):
        """Time ``fn()``; return its output, or None when it raised or timed out
        (or, after the first pass, did so in the first pass)."""
        key = (self.input, name)
        if self.pass_ and self._first.get(key, "raised") in self.NOT_REPEATED:
            return None
        span = self.tracer.begin_op(len(self.records)) if self.tracer else None
        out, status, detail = None, "ok", ""
        stolen0 = self._stolen()
        t0 = time.perf_counter()
        try:
            with deadline(deadline_s):
                out = fn()
            seconds = time.perf_counter() - t0 - (self._stolen() - stolen0)
        except Deadline:
            seconds, status, detail = deadline_s, "deadline", f"past {deadline_s} s"
        except Exception as exc:  # the op failed; the run goes on
            seconds = time.perf_counter() - t0 - (self._stolen() - stolen0)
            status, detail = "raised", f"{type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                self.tracer.end_op(span)
        if status == "ok" and check is not None:
            checks, keys = check(out)
            if self.compare_reference:
                checks = checks + self._reference_checks(name, keys)
                self.keys.update({f"{name}.{k}": v for k, (v, _) in keys.items()})
            missed = [c for c in checks if not c.passed]
            if missed:
                status = "oracle" if any(c.oracle for c in missed) else "check"
                detail = ", ".join(c.name for c in missed)
        if not self.pass_:
            self._first[key] = status
        self.records.append(OpRecord(self.pass_, self.input, name, query, seconds, status, detail,
                                     group or name))
        return out

    def _stolen(self) -> float:
        return self.probe.stolen if self.probe is not None else 0.0

    def _reference_checks(self, op_name, keys):
        checks = []
        for key, (value, tol) in keys.items():
            ref = self.reference.get(f"{op_name}.{key}")
            if ref is not None:
                checks.append(oracle(f"reference:{key}", abs(value - ref) <= tol))
        return checks


def op_status(records) -> dict:
    """(input, name) -> status of the op over all passes.

    The first pass's status, unless that was "ok" and a later pass raised
    or missed a check.  A later pass past the deadline is timing, not a
    failure: the op has already shown it finishes on this input.
    """
    status: dict = {}
    for r in records:
        key = (r.input, r.name)
        if not r.pass_:
            status[key] = r.status
        elif status.get(key) == "ok" and r.status != "deadline":
            status[key] = r.status
    return status


def _timing(op_s: dict, groups: dict, completed, queries, scale=1.0) -> dict:
    """``wall``: for each op name, the median time of the completed ops of
    its group (over all input sets; a rare slow input does not move it),
    summed over the names.  An op that raised
    or ran past its deadline adds nothing (it shows in ``failed``); what it
    was charged is ``charged`` (per input set).  ``query_ms``: each completed
    query's time."""
    names = {name: groups[(i, name)] for i, name in op_s}  # name -> its group
    inputs = {i for i, _ in op_s}
    wall = 0.0
    for g in names.values():
        done = [t for k, t in op_s.items() if groups[k] == g and k in completed]
        wall += statistics.median(done) if done else 0.0
    charged = sum(t for k, t in op_s.items() if k not in completed) / len(inputs)
    query_ms = {f"{i}.{n}": 1000.0 * op_s[(i, n)] * scale
                for i, n in sorted(queries) if (i, n) in completed}
    return {"wall": wall * scale, "charged": charged, "query_ms": query_ms}


def summarize(records, speed_factor=None) -> dict:
    """Failure accounting and timing over a list of OpRecords.

    Each op's time is its mean over the passes.  With ``speed_factor``
    (speed.factor of the run) the times are also given at reference speed.
    """
    status = op_status(records)
    attempted = len(status)
    failed = sum(s != "ok" for s in status.values())
    statuses: dict = {}
    for s in status.values():
        statuses[s] = statuses.get(s, 0) + 1
    times: dict = {}  # (input, name) -> seconds of each pass
    groups: dict = {}
    queries = set()
    for r in records:
        key = (r.input, r.name)
        times.setdefault(key, []).append(r.seconds)
        groups[key] = r.group or r.name
        if r.query:
            queries.add(key)
    op_s = {k: statistics.fmean(v) for k, v in times.items()}
    completed = {k for k, s in status.items() if s not in Runner.NOT_REPEATED}
    out = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "correct": not any(r.status == "oracle" for r in records),
        "statuses": statuses,
        "raw": _timing(op_s, groups, completed, queries),
    }
    if speed_factor is not None:
        out["ref"] = _timing(op_s, groups, completed, queries, speed_factor)
    return out


def record_dicts(records, limit=None):
    """The records that make an op fail: its first-pass failure, or a later
    pass's failure of an op that passed the first time."""
    first: dict = {}
    rows = []
    for r in records:
        key = (r.input, r.name)
        if not r.pass_:
            first[key] = r.status
        elif r.status in (first.get(key), "deadline"):
            continue
        if r.status != "ok":
            rows.append(asdict(r))
    return rows[:limit] if limit else rows
