"""Tests for the stream prefetcher (Section 4.1 parameters).

They run against the reference :class:`StreamPrefetcher` in
``tests/stage1_oracle.py``, which ``tests/test_hierarchy.py`` holds
equal to the prefetcher inlined in ``UpperLevels.run``.
"""

import pytest

from tests.stage1_oracle import StreamPrefetcher


class TestStreamPrefetcher:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StreamPrefetcher(num_streams=0)
        with pytest.raises(ValueError):
            StreamPrefetcher(degree=0)

    def test_first_miss_allocates_no_prefetch(self):
        pf = StreamPrefetcher()
        assert pf.on_l1_miss(100) == []
        assert pf.active_streams == 1

    def test_second_miss_trains_direction_up(self):
        # "Waits for at most two misses to decide on the direction."
        pf = StreamPrefetcher(degree=2)
        pf.on_l1_miss(100)
        assert pf.on_l1_miss(101) == [102, 103]

    def test_second_miss_trains_direction_down(self):
        pf = StreamPrefetcher(degree=2)
        pf.on_l1_miss(100)
        assert pf.on_l1_miss(99) == [98, 97]

    def test_trained_stream_keeps_prefetching(self):
        pf = StreamPrefetcher(degree=1)
        pf.on_l1_miss(10)
        pf.on_l1_miss(11)
        assert pf.on_l1_miss(12) == [13]
        assert pf.on_l1_miss(13) == [14]

    def test_stride_within_window_matches(self):
        pf = StreamPrefetcher(degree=1, match_window=4)
        pf.on_l1_miss(10)
        pf.on_l1_miss(11)
        # Skipping ahead 3 blocks still continues the stream.
        assert pf.on_l1_miss(14) == [15]

    def test_far_miss_starts_new_stream(self):
        pf = StreamPrefetcher()
        pf.on_l1_miss(10)
        assert pf.on_l1_miss(10_000) == []
        assert pf.active_streams == 2

    def test_sixteen_stream_capacity_with_lru(self):
        pf = StreamPrefetcher(num_streams=16)
        for i in range(17):
            pf.on_l1_miss(1000 * i)
        assert pf.active_streams == 16
        # Stream 0 (block 0) was LRU-evicted; a miss at block 1 now
        # matches nothing and allocates rather than training stream 0.
        assert pf.on_l1_miss(1) == []

    def test_descending_stream_never_prefetches_negative(self):
        pf = StreamPrefetcher(degree=4)
        pf.on_l1_miss(3)
        prefetches = pf.on_l1_miss(2)
        assert all(p >= 0 for p in prefetches)

    def test_issued_counter(self):
        pf = StreamPrefetcher(degree=2)
        pf.on_l1_miss(5)
        pf.on_l1_miss(6)
        pf.on_l1_miss(7)
        assert pf.issued == 4

    def test_interleaved_streams_tracked_independently(self):
        pf = StreamPrefetcher(degree=1)
        pf.on_l1_miss(100)
        pf.on_l1_miss(5000)
        assert pf.on_l1_miss(101) == [102]
        assert pf.on_l1_miss(5001) == [5002]

    def test_duplicate_miss_does_not_train(self):
        pf = StreamPrefetcher()
        pf.on_l1_miss(7)
        # Same block again: delta 0 matches nothing (distance must be > 0),
        # so a new stream is allocated and nothing is issued.
        assert pf.on_l1_miss(7) == []
