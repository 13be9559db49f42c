"""Self-time arithmetic of the benchmark tracer.

    python3 -m pytest benchmark
"""

import pytest

from run import _rows_close
from tracer import Tracer, layer_totals, self_times


def spans_from(events):
    """Replay ("begin", name) / ("end",) events on a tracer with a clock ticking 0, 1, 2, ..."""
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    open_spans = []
    for event in events:
        if event[0] == "begin":
            open_spans.append(tracer.begin(event[1]))
        else:
            tracer.end(open_spans.pop())
    return tracer.spans


def test_nested_self_time_subtracts_children_once():
    # a [0, 9] holds b [1, 6], which holds c [2, 3] and d [4, 5]; e [7, 8] is a's second child.
    spans = spans_from([
        ("begin", "a"), ("begin", "b"), ("begin", "c"), ("end",), ("begin", "d"), ("end",),
        ("end",), ("begin", "e"), ("end",), ("end",),
    ])
    assert [s[0] for s in spans] == ["a", "b", "c", "d", "e"]
    assert [s[3] for s in spans] == [None, 0, 1, 1, 0]
    assert self_times(spans) == [9 - 5 - 1, 5 - 1 - 1, 1, 1, 1]
    assert sum(self_times(spans)) == 9  # self times partition the root's interval


def test_overlapping_children_count_their_union_clipped_to_the_parent():
    spans = [
        ["p", 0.0, 10.0, None, None],
        ["x", 1.0, 4.0, 0, None],
        ["y", 3.0, 6.0, 0, None],  # overlaps x by 1
        ["z", 8.0, 12.0, 0, None],  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_totals_count_outermost_calls_and_sum_every_self_time():
    # walk [0, 7] calls walk [1, 6] (sdedit -> ddim_sample), which calls eps twice.
    spans = spans_from([
        ("begin", "walk"), ("begin", "walk"), ("begin", "eps"), ("end",), ("begin", "eps"),
        ("end",), ("end",), ("end",), ("begin", "walk"), ("end",),
    ])
    totals = layer_totals(spans)
    assert totals["walk"] == {"calls": 2, "s": 7.0 + 1.0, "self_s": 2.0 + 3.0 + 1.0}
    assert totals["eps"] == {"calls": 2, "s": 2.0, "self_s": 2.0}


def test_item_id_is_recorded_on_each_span():
    tracer = Tracer(clock=lambda: 0.0)
    tracer.item = "evs:3"
    tracer.end(tracer.begin("compose.pipeline"))
    assert tracer.spans[0][4] == "evs:3"


def test_reference_rows_allow_a_last_digit_change_only():
    ref = "evs,0,0.800134789609,88.9916975354,20,6"
    assert _rows_close("evs,0,0.800134789610,88.9916975354,20,6", ref)
    assert not _rows_close("evs,0,0.800134789609,88.9917,20,6", ref)
    assert not _rows_close("evs,0,0.800134789609,88.9916975354,20,7", ref)
