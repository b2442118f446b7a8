import os

import pytest

from perfbench.speed import NOMINAL_REFERENCE_S, SpeedProbe


def test_speed_factor_is_the_window_median_over_the_nominal_time():
    probe = SpeedProbe()
    probe.samples = [(0.0, 9.0), (1.0, 2 * NOMINAL_REFERENCE_S),
                     (2.0, 3 * NOMINAL_REFERENCE_S), (3.0, 4 * NOMINAL_REFERENCE_S)]
    assert probe.factor(1.0, 3.0) == pytest.approx(3.0)


def test_sampling_records_timings_and_the_time_spent():
    probe = SpeedProbe()
    probe.sample(2)
    assert len(probe.samples) == 2 and probe.busy > 0
    probe.tick()  # too soon after the last sample: nothing new
    assert len(probe.samples) == 2


def test_sampling_every_cpu_restores_the_thread_affinity():
    before = os.sched_getaffinity(0)
    probe = SpeedProbe()
    probe.sample_cpus(1)
    assert len(probe.samples) == len(before)
    assert os.sched_getaffinity(0) == before
