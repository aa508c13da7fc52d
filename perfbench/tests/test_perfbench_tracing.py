"""Span bookkeeping: parent links, restoring wrapped attributes, and the
self-time arithmetic (duration minus the union of child intervals)."""

import types

import pytest

from perfbench import tracing
from perfbench.tracing import NAME, PARENT, RID, SID


def test_self_time_subtracts_the_union_of_children():
    # Children overlap (2..5 and 4..6) and one pokes out of the parent.
    assert tracing.self_time(0.0, 10.0, [(2.0, 5.0), (4.0, 6.0)]) == 6.0
    assert tracing.self_time(0.0, 10.0, [(8.0, 12.0)]) == 8.0
    assert tracing.self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0
    assert tracing.self_time(0.0, 10.0, []) == 10.0
    assert tracing.self_time(0.0, 10.0, [(0.0, 10.0), (1.0, 2.0)]) == 0.0


def test_covered_merges_disjoint_and_nested_intervals():
    intervals = [(1.0, 2.0), (3.0, 7.0), (4.0, 5.0), (6.5, 8.0)]
    assert tracing.covered(0.0, 10.0, intervals) == pytest.approx(6.0)


def test_self_times_follow_parent_links():
    spans = [
        [0, "request", 0.0, 10.0, None, 7, None],
        [1, "submit", 1.0, 3.0, 0, 7, None],
        [2, "admit", 1.5, 2.5, 1, 7, None],
        [3, "execute_values", 4.0, 9.0, 0, None, None],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 3.0, 1: 1.0, 2: 1.0, 3: 5.0}
    summary = tracing.self_time_by_name(spans)
    assert summary["request"]["self_ms"] == pytest.approx(3000.0)
    assert summary["submit"]["total_ms"] == pytest.approx(2000.0)


def test_wrap_records_nested_spans_and_uninstall_restores():
    owner = types.SimpleNamespace()
    owner.inner = lambda request: request.request_id * 2
    original_inner = owner.inner
    owner.outer = lambda request: owner.inner(request) + 1
    tracer = tracing.Tracer()
    rid = (lambda args: args[0].request_id)
    tracer.wrap(owner, "inner", "inner", rid=rid)
    tracer.wrap(owner, "outer", "outer", rid=rid)
    request = types.SimpleNamespace(request_id=5)
    assert owner.outer(request) == 11
    outer, inner = sorted(tracer.spans, key=lambda s: s[SID])
    assert (outer[NAME], inner[NAME]) == ("outer", "inner")
    assert outer[PARENT] is None and inner[PARENT] == outer[SID]
    assert outer[RID] == inner[RID] == 5
    tracer.uninstall()
    assert owner.inner is original_inner
    owner.outer(request)
    assert len(tracer.spans) == 2
