"""Tests of the span arithmetic and attribute swapping behind the traced run.

    python3 -m pytest bench
"""

import types

import pytest

from spans import Tracer, self_times


def test_leaf_self_time_is_its_duration():
    assert self_times([("a", 1.0, 3.5, -1)]) == {"a": [1, 2.5]}


def test_disjoint_children_are_subtracted():
    spans = [("p", 0.0, 10.0, -1), ("c", 1.0, 3.0, 0), ("c", 5.0, 6.0, 0)]
    assert self_times(spans) == {"p": [1, 7.0], "c": [2, 3.0]}


def test_nesting_subtracts_only_direct_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 9.0, 0), ("c", 2.0, 4.0, 1)]
    out = self_times(spans)
    assert out == {"a": [1, 2.0], "b": [1, 6.0], "c": [1, 2.0]}
    # self times of a tree add up to the root's duration
    assert sum(v[1] for v in out.values()) == 10.0


def test_overlapping_children_count_their_union_once():
    spans = [("p", 0.0, 10.0, -1), ("c", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0), ("c", 4.0, 6.0, 0)]
    assert self_times(spans)["p"] == [1, 4.0]


def test_child_outside_parent_is_clipped():
    spans = [("p", 0.0, 4.0, -1), ("c", 3.0, 6.0, 0)]
    assert self_times(spans)["p"] == [1, 3.0]


def test_siblings_of_different_parents_do_not_interact():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("x", 0.0, 4.0, 0),
        ("leaf", 1.0, 3.0, 1),
        ("y", 5.0, 9.0, 0),
        ("leaf", 6.0, 7.0, 3),
    ]
    out = self_times(spans)
    assert out == {"root": [1, 2.0], "x": [1, 2.0], "y": [1, 3.0], "leaf": [2, 3.0]}


@pytest.mark.parametrize(
    "spans",
    [
        [("a", 2.0, 1.0, -1)],                        # ends before it starts
        [("a", 1.0, 2.0, -1), ("b", 0.5, 0.7, -1)],   # out of start order
        [("a", 0.0, 2.0, 0)],                         # parent is itself
    ],
)
def test_malformed_spans_are_rejected(spans):
    with pytest.raises(ValueError):
        self_times(spans)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_tracer_records_nested_spans_with_parents():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        traced_inner()
        traced_inner()
        clock.advance(0.5)
        return "done"

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer() == "done"
    assert list(tracer.spans()) == [
        ("outer", 0.0, 5.5, -1),
        ("inner", 1.0, 3.0, 0),
        ("inner", 3.0, 5.0, 0),
    ]
    assert self_times(tracer.spans()) == {"outer": [1, 1.5], "inner": [2, 4.0]}


def test_tracer_closes_span_when_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(KeyError):
        traced()
    after = tracer.wrap("after", lambda: clock.advance(1.0))
    after()
    # the failed call's span is closed, so the next call is a root again
    assert list(tracer.spans()) == [("boom", 0.0, 1.0, -1), ("after", 1.0, 2.0, -1)]


def test_observer_sees_result():
    seen = []
    tracer = Tracer(FakeClock())
    assert tracer.wrap("f", lambda x: x * 2, observe=seen.append)(21) == 42
    assert seen == [42]


def test_swap_rebinds_every_import_and_restore_puts_originals_back():
    def original():
        return "original"

    owner = types.ModuleType("owner")
    importer = types.ModuleType("importer")
    bystander = types.ModuleType("bystander")
    owner.f = importer.f_alias = original
    bystander.f = lambda: "other"
    tracer = Tracer(FakeClock())
    tracer.swap([owner, importer, bystander], owner, "f", tracer.wrap("f", original))
    assert owner.f is not original and importer.f_alias is not original
    assert bystander.f() == "other"
    assert importer.f_alias() == "original"
    assert [s[0] for s in tracer.spans()] == ["f"]
    assert tracer.restore()
    assert owner.f is original and importer.f_alias is original
