"""Checks of the harness itself; odmap is not needed (numpy and scipy are).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py
"""
from __future__ import annotations

import sys
import time
import types
from functools import cached_property
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import Runner, library, oracle, summarize  # noqa: E402
from tracer import Tracer, install, layer_metrics, op_accounting_error, restore, self_times  # noqa: E402


def test_self_time_nested():
    # parent [0,10] > a [1,4] > a1 [2,3]; parent > b [5,7]
    starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 7], [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [5, 2, 1, 2]


def test_self_time_overlapping_children():
    # children overlap each other and one sticks out of the parent: the
    # covered part of [0,10] is [1,8] + [9,10]
    starts, ends, parents = [0, 1, 3, 9], [10, 5, 8, 12], [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 2


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Thing:
        def method(self):
            return "m"

        @cached_property
        def cached(self):
            return mod.inner(41)

    mod.inner, mod.outer, mod.Thing = inner, outer, Thing
    user.inner = inner  # imported by name elsewhere
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user})
    spans = (
        ("core_map.validate", "mod", "outer"),
        ("core_map.edge_face_count", "mod", "inner"),
        ("core_map.primal_network", "mod", "Thing.method"),
        ("core_map.boundary_walk", "mod", "Thing.cached"),
        ("core_map.dual_network", "mod", "gone"),
    )
    return mod, user, spans


def test_install_wraps_and_restores():
    mod, user, spans = _fake_package()
    originals = (mod.inner, mod.outer, mod.Thing.__dict__["method"], mod.Thing.__dict__["cached"])
    tracer = Tracer(clock=FakeClock())
    patches, absent = install(tracer, package="fakepkg", spans=spans)
    try:
        assert absent == ["core_map.dual_network"]
        assert user.inner is mod.inner and user.inner is not originals[0]
        assert mod.inner(1) == 2 and not tracer.names  # no op running: no span
        op = tracer.begin_op(0)
        thing = mod.Thing()
        assert mod.outer(1) == 4 and thing.method() == "m"
        assert thing.cached == 42 and thing.cached == 42  # computed once
        assert mod.Thing.__dict__["cached"].attrname == "cached"
        tracer.end_op(op)
    finally:
        for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
            sys.modules.pop(name)
    restore(patches)
    assert (mod.inner, mod.outer, mod.Thing.__dict__["method"], mod.Thing.__dict__["cached"]) == originals
    assert user.inner is originals[0]
    assert tracer.names == ["op", "core_map.validate", "core_map.edge_face_count", "core_map.primal_network",
                            "core_map.boundary_walk", "core_map.edge_face_count"]
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    assert op_accounting_error(tracer, selfs) == 0.0
    metrics, _ = layer_metrics(tracer, rounds=1, absent=absent)
    assert metrics["core_map.edge_face_count.calls"][0] == 2
    assert metrics["core_map.boundary_walk.calls"][0] == 1
    assert metrics["core_map.validate.total_ms"][0] == 3000.0  # clock ticks 1 s per read
    assert metrics["core_map.validate.self_ms"][0] == 2000.0
    assert "core_map.dual_network.calls" not in metrics


def _raise():
    raise ValueError("boom")


def _spin():
    t_end = time.monotonic() + 5.0
    while time.monotonic() < t_end:
        pass


def _work():
    """A fixed amount of interpreter work, about 0.3 s."""
    s = 0
    for i in range(3_000_000):
        s += i % 7
    return s


def test_fail_frac_deadline_and_oracle():
    run = Runner()
    run.op("ok", lambda: 1, check=lambda out: ([oracle("one", out == 1)], {}))
    run.op("slow", _spin, deadline_s=0.05)
    run.op("raises", _raise)
    run.op("library_miss", lambda: 1, check=lambda out: ([library("validate", False)], {}))
    s = summarize(run.records)
    assert (s["attempted"], s["failed"], s["fail_frac"]) == (4, 3, 0.75)
    assert [r.status for r in run.records] == ["ok", "deadline", "raised", "check"]
    assert run.records[1].seconds == 0.05  # charged the deadline
    assert s["correct"]  # every failure was one the library reports

    run.op("wrong", lambda: 2, check=lambda out: ([oracle("one", out == 1)], {}))
    s = summarize(run.records)
    assert (s["failed"], s["correct"]) == (4, False)


def test_counts_come_from_the_first_pass():
    run = Runner()
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 3:  # third time: a wrong answer on the same input
            return 2
        return 1

    def one_pass():
        run.op("ok", lambda: 1)
        run.op("slow", _spin, deadline_s=0.05)
        run.op("raises", _raise)
        run.op("miss", lambda: 1, check=lambda out: ([library("validate", False)], {}))
        run.op("flaky", flaky, check=lambda out: ([oracle("one", out == 1)], {}))

    one_pass()
    first = summarize(run.records)
    assert (first["attempted"], first["failed"], first["correct"]) == (5, 3, True)
    run.pass_ = 1
    one_pass()
    assert summarize(run.records)["attempted"] == 5
    # ops that raised or ran past their deadline are not repeated
    assert [r.name for r in run.records if r.pass_ == 1] == ["ok", "miss", "flaky"]
    run.pass_ = 2
    one_pass()
    s = summarize(run.records)
    assert (s["attempted"], s["failed"], s["correct"]) == (5, 4, False)
    assert s["statuses"] == {"ok": 1, "deadline": 1, "raised": 1, "check": 1, "oracle": 1}


def test_a_late_deadline_is_timing_not_failure():
    run = Runner()
    run.op("op", lambda: 1, deadline_s=1.0)
    run.pass_ = 1
    run.op("op", _spin, deadline_s=0.05)
    s = summarize(run.records)
    assert (s["attempted"], s["failed"]) == (1, 0)


def test_time_is_each_ops_mean_pass():
    from harness import OpRecord

    recs = [OpRecord(p, i, n, n == "q", t, "ok")
            for p, i, n, t in [(0, 0, "a", 3.0), (1, 0, "a", 2.0), (2, 0, "a", 7.0),
                               (0, 0, "q", 1.0), (1, 0, "q", 4.0), (2, 0, "q", 1.0),
                               (0, 1, "a", 5.0), (1, 1, "a", 6.0), (0, 1, "q", 1.0)]]
    s = summarize(recs)["raw"]
    # "a": median over the input sets of 4.0 and 5.5; "q": of 2.0 and 1.0
    assert s["wall"] == (4.0 + 5.5) / 2 + (2.0 + 1.0) / 2
    assert s["query_ms"] == {"0.q": 2000.0, "1.q": 1000.0}


def test_ops_that_did_not_complete_add_no_time():
    from harness import OpRecord

    recs = [OpRecord(0, 0, "a", False, 1.0, "ok"), OpRecord(0, 1, "a", False, 0.6, "deadline"),
            OpRecord(0, 0, "b", False, 0.2, "raised"), OpRecord(0, 1, "b", False, 0.6, "deadline"),
            OpRecord(0, 0, "c", False, 2.0, "check")]  # a wrong answer still took its time
    s = summarize(recs)
    assert (s["attempted"], s["failed"]) == (5, 4)
    assert s["raw"]["wall"] == 1.0 + 2.0
    assert s["raw"]["charged"] == (0.6 + 0.2 + 0.6) / 2


def test_a_groups_completed_ops_share_one_median():
    from harness import OpRecord

    recs = [OpRecord(0, i, n, False, t, st, "", "a")
            for i, n, t, st in [(0, "a.0", 1.0, "ok"), (0, "a.1", 3.0, "ok"),
                                (1, "a.0", 2.0, "ok"), (1, "a.1", 9.0, "raised")]]
    # both names count the median of the group's three completed ops
    assert summarize(recs)["raw"]["wall"] == 2 * 2.0


def test_speed_factor():
    from speed import REFERENCE_S, factor

    assert factor([REFERENCE_S, 2 * REFERENCE_S, 3 * REFERENCE_S]) == 0.5


def test_sampling_inside_an_op_is_not_the_ops_time():
    from speed import SpeedProbe

    probe = SpeedProbe()
    run = Runner(probe=probe)
    run.op("plain", _work)
    run.op("plain", _work)
    with probe.sampling(every_s=0.1):
        run.op("sampled", _work)
    plain = min(r.seconds for r in run.records[:2])
    assert len(probe.samples) >= 2
    # most of the time the kernel took is not charged to the op
    assert run.records[2].seconds < plain + probe.stolen / 2


def test_times_at_reference_speed():
    from harness import OpRecord

    recs = [OpRecord(0, 0, "a", False, 2.0, "ok"), OpRecord(0, 0, "q", True, 0.5, "ok"),
            OpRecord(0, 0, "d", False, 0.6, "deadline")]
    s = summarize(recs, speed_factor=0.5)
    assert s["ref"]["wall"] == 1.0 + 0.25
    assert s["ref"]["query_ms"] == {"0.q": 250.0}
    assert s["ref"]["charged"] == 0.6  # a deadline is a fixed charge


def test_reference_mismatch_fails_the_op():
    run = Runner(reference={"op.x": 1.0})
    run.compare_reference = True
    run.op("op", lambda: 1.0 + 1e-6, check=lambda out: ([], {"x": (out, 1e-9)}))
    run.compare_reference = False
    run.input = 1
    run.op("op", lambda: 2.0, check=lambda out: ([], {"x": (out, 1e-9)}))
    assert [r.status for r in run.records] == ["oracle", "ok"]
    assert run.keys == {"op.x": 1.0 + 1e-6}


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
