"""Self-time arithmetic on nested spans, with a fake clock."""

import pytest

from spans import Tracer, outermost, self_share_within, self_times, totals_by_name


class FakeClock:
    def __init__(self, *times: float) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def record(clock: FakeClock, script: str) -> Tracer:
    """``script`` opens a span per letter and closes it on ``/``."""
    tracer = Tracer(clock=clock)
    open_ = []
    for token in script.split():
        if token == "/":
            tracer.end(open_.pop())
        else:
            open_.append(tracer.begin(token))
    assert not clock.times
    return tracer


def test_self_time_subtracts_direct_children_only():
    # a[0,10] > b[1,6] > c[2,5];  a > d[7,9]
    t = record(FakeClock(0, 1, 2, 5, 6, 7, 9, 10), "a b c / / d / /")
    assert self_times(t.spans) == [3, 2, 3, 2]
    assert [s.parent for s in t.spans] == [-1, 0, 1, 0]


def test_recursive_spans_are_counted_once():
    # a[0,10] > a[2,8] > b[3,4]
    t = record(FakeClock(0, 2, 3, 4, 8, 10), "a a b / / /")
    assert outermost(t.spans) == [True, False, True]
    totals = totals_by_name(t.spans)
    assert (totals["a"].calls, totals["a"].total_s, totals["a"].self_s) == (1, 10, 9)
    assert (totals["b"].calls, totals["b"].total_s) == (1, 1)


def test_self_share_within_a_subtree():
    # x[0,10] > y[1,9] > z[2,4];  then a sibling w[10,20] > y[11,19]
    t = record(FakeClock(0, 1, 2, 4, 9, 10, 10, 11, 19, 20), "x y z / / / w y / /")
    assert self_share_within(t.spans, 0, "y") == pytest.approx(0.6)
    assert self_share_within(t.spans, 0, "x") == pytest.approx(0.2)  # uncovered share
    assert self_share_within(t.spans, 3, "y") == pytest.approx(0.8)


def test_closing_the_wrong_span_raises():
    t = Tracer(clock=FakeClock(0, 1, 2))
    outer = t.begin("a")
    t.begin("b")
    with pytest.raises(RuntimeError):
        t.end(outer)


def test_a_tracer_reads_no_clock_until_a_span_opens():
    def clock() -> float:
        raise AssertionError("clock read")

    tracer = Tracer(clock=clock)
    assert tracer.spans == []
