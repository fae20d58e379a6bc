"""Tests for the tracing subsystem."""

from repro.kernel import Trace, TraceKind, TraceRecord


def rec(time, kind=TraceKind.CUSTOM, subject="s", **info):
    return TraceRecord(time=time, kind=kind, subject=subject, info=info)


class TestTraceBasics:
    def test_emit_and_len(self):
        trace = Trace()
        trace.emit(rec(1))
        trace.emit(rec(2))
        assert len(trace) == 2

    def test_record_convenience(self):
        trace = Trace()
        trace.record(5, TraceKind.HEARTBEAT, "R1", task="T")
        assert trace[0].time == 5
        assert trace[0].info["task"] == "T"

    def test_iteration_order(self):
        trace = Trace()
        for t in (1, 2, 3):
            trace.emit(rec(t))
        assert [r.time for r in trace] == [1, 2, 3]

    def test_clear(self):
        trace = Trace()
        trace.emit(rec(1))
        trace.clear()
        assert len(trace) == 0

    def test_str_rendering(self):
        record = rec(42, TraceKind.HEARTBEAT, "R1", task="T")
        text = str(record)
        assert "heartbeat" in text and "R1" in text and "task=T" in text


class TestRecord:
    def test_positional_and_keyword_construction_agree(self):
        positional = TraceRecord(3, TraceKind.HEARTBEAT, "R1", {"task": "T"})
        keyword = TraceRecord(time=3, kind=TraceKind.HEARTBEAT, subject="R1",
                              info={"task": "T"})
        assert positional == keyword
        assert (keyword.time, keyword.kind, keyword.subject, keyword.info) == (
            3, TraceKind.HEARTBEAT, "R1", {"task": "T"})

    def test_info_defaults_to_a_fresh_dict(self):
        a = TraceRecord(1, TraceKind.CUSTOM, "s")
        b = TraceRecord(1, TraceKind.CUSTOM, "s")
        assert a.info == {} and a.info is not b.info

    def test_equality_compares_every_field(self):
        base = rec(1, TraceKind.CUSTOM, "s", x=1)
        assert base == rec(1, TraceKind.CUSTOM, "s", x=1)
        assert base != rec(2, TraceKind.CUSTOM, "s", x=1)
        assert base != rec(1, TraceKind.HOOK, "s", x=1)
        assert base != rec(1, TraceKind.CUSTOM, "t", x=1)
        assert base != rec(1, TraceKind.CUSTOM, "s", x=2)
        assert base != (1, TraceKind.CUSTOM, "s", {"x": 1})

    def test_repr_names_every_field(self):
        assert repr(rec(7, TraceKind.HOOK, "Startup", a=1)) == (
            "TraceRecord(time=7, kind=<TraceKind.HOOK: 'hook'>, "
            "subject='Startup', info={'a': 1})")

    def test_record_builds_the_same_record_as_emit(self):
        built, emitted = Trace(), Trace()
        built.record(5, TraceKind.HEARTBEAT, "R1", task="T")
        emitted.emit(rec(5, TraceKind.HEARTBEAT, "R1", task="T"))
        assert list(built) == list(emitted)


class TestCapacity:
    def test_ring_capacity_drops_oldest(self):
        trace = Trace(capacity=3)
        for t in range(5):
            trace.emit(rec(t))
        assert len(trace) == 3
        assert [r.time for r in trace] == [2, 3, 4]
        assert trace.dropped == 2

    def test_eviction_far_past_capacity(self):
        trace = Trace(capacity=4)
        for t in range(1000):
            trace.record(t, TraceKind.CUSTOM, "s")
        assert len(trace) == 4
        assert trace.dropped == 996
        assert [r.time for r in trace] == [996, 997, 998, 999]

    def test_indexing_after_wrap_around(self):
        trace = Trace(capacity=3)
        for t in range(7):
            trace.emit(rec(t))
        assert [trace[i].time for i in range(3)] == [4, 5, 6]
        assert trace[-1].time == 6
        assert trace[-3].time == 4

    def test_dump_limit_after_wrap_around(self):
        trace = Trace(capacity=3)
        for t in range(7):
            trace.emit(rec(t, subject=f"s{t}"))
        assert [line.split()[-1] for line in trace.dump().splitlines()] == [
            "s4", "s5", "s6"]
        assert [line.split()[-1] for line in trace.dump(limit=2).splitlines()] == [
            "s5", "s6"]
        assert len(trace.dump(limit=10).splitlines()) == 3
        assert trace.dump(limit=0) == ""

    def test_clear_resets_the_ring(self):
        trace = Trace(capacity=2)
        for t in range(5):
            trace.emit(rec(t))
        trace.clear()
        assert len(trace) == 0 and trace.dropped == 0
        for t in range(3):
            trace.emit(rec(t))
        assert [r.time for r in trace] == [1, 2]
        assert trace.dropped == 1

    def test_unbounded_trace_never_drops(self):
        trace = Trace()
        for t in range(100):
            trace.emit(rec(t))
        assert len(trace) == 100 and trace.dropped == 0


class TestQueries:
    def build(self):
        trace = Trace()
        trace.emit(rec(10, TraceKind.TASK_ACTIVATE, "A"))
        trace.emit(rec(20, TraceKind.TASK_TERMINATE, "A"))
        trace.emit(rec(30, TraceKind.TASK_ACTIVATE, "B"))
        trace.emit(rec(40, TraceKind.TASK_ACTIVATE, "A"))
        return trace

    def test_filter_by_kind(self):
        trace = self.build()
        assert len(trace.filter(kind=TraceKind.TASK_ACTIVATE)) == 3

    def test_filter_by_subject(self):
        trace = self.build()
        assert len(trace.filter(subject="A")) == 3

    def test_filter_by_window(self):
        trace = self.build()
        assert len(trace.filter(start=15, end=40)) == 2

    def test_count(self):
        trace = self.build()
        assert trace.count(TraceKind.TASK_ACTIVATE, "A") == 2

    def test_first_and_last(self):
        trace = self.build()
        assert trace.first(TraceKind.TASK_ACTIVATE, "A").time == 10
        assert trace.last(TraceKind.TASK_ACTIVATE, "A").time == 40
        assert trace.first(TraceKind.ECU_RESET) is None

    def test_subjects(self):
        trace = self.build()
        assert trace.subjects(TraceKind.TASK_ACTIVATE) == ["A", "B"]

    def test_dump_limit(self):
        trace = self.build()
        assert len(trace.dump(limit=2).splitlines()) == 2


class TestListeners:
    def test_subscribe_receives_live_records(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(rec(1))
        assert len(seen) == 1

    def test_unsubscribe(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        trace.unsubscribe(seen.append)
        trace.emit(rec(1))
        assert seen == []
