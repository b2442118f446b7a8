import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench.spans import Patcher, Span, SpanRecorder, covered_length, propagate_context, self_times


def span(sid, start, end, parent=None, thread=1):
    return Span(sid=sid, name=f"s{sid}", start=start, end=end, parent=parent,
                request=7, thread=thread)


def test_covered_length_merges_overlaps_and_skips_empty():
    assert covered_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert covered_length([]) == 0.0


def test_self_time_subtracts_the_union_of_overlapping_cross_thread_children():
    # A fan-out span [0, 10] with two shard calls on two worker threads that
    # overlap in [3, 5], a third child sticking out past the parent's end, and
    # a grandchild that must not be subtracted from the root a second time.
    spans = [
        span(1, 0.0, 10.0),
        span(2, 2.0, 5.0, parent=1, thread=2),
        span(3, 3.0, 6.0, parent=1, thread=3),
        span(4, 9.0, 12.0, parent=1, thread=2),
        span(5, 2.5, 4.0, parent=2, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (6.0 - 2.0) - (10.0 - 9.0))
    assert own[2] == pytest.approx(3.0 - 1.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.5)


class Box:
    def work(self, value):
        return value * 2

    async def fan(self, loop, pool):
        return await asyncio.gather(
            loop.run_in_executor(pool, self.work, 1),
            loop.run_in_executor(pool, self.work, 2),
        )


def test_wrappers_record_parents_across_the_worker_pool_and_restore():
    recorder = SpanRecorder()
    patcher = Patcher()
    for attr in ("work", "fan"):
        patcher.replace(Box, attr, recorder.wrap(f"Box.{attr}", vars(Box)[attr]))

    async def main():
        loop = asyncio.get_running_loop()
        propagate_context(loop, patcher)
        with ThreadPoolExecutor(max_workers=2) as pool:
            with recorder.span("client", request=3):
                return await Box().fan(loop, pool)

    try:
        assert asyncio.run(main()) == [2, 4]
    finally:
        patcher.restore()
    assert "work" in vars(Box) and Box().work(3) == 6
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    (client,) = by_name["client"]
    (fan,) = by_name["Box.fan"]
    assert fan.parent == client.sid
    assert len(by_name["Box.work"]) == 2
    for work in by_name["Box.work"]:
        assert work.parent == fan.sid
        assert work.request == 3
        assert work.thread != threading.get_ident()


def test_a_raising_call_still_closes_its_span():
    recorder = SpanRecorder()

    def boom():
        raise ValueError("no")

    wrapped = recorder.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    (only,) = recorder.spans
    assert only.attrs["raised"] == "ValueError" and only.end >= only.start

