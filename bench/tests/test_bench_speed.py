"""Scaling of task times by the host speed measured between tasks."""

import pytest

import speed


R = 2.0e-3  # reference slice time of the fake kind
W = 0.025  # its task time between slices


@pytest.fixture
def slices():
    """A calibration kind whose slices take the listed times, in order."""
    times = []
    return times, (lambda: times.pop(0), R, W)


def test_a_steady_host_at_the_reference_speed_changes_nothing(slices):
    times_s, kind = slices
    times_s += [R] * 20
    clock = speed.Clock(kind, warmup=0)
    times = [0.01, 0.03, 0.002, 0.05]
    for t in times:
        clock.task_done(t)
    assert clock.scaled(times) == pytest.approx(times)


def test_a_host_at_half_speed_is_scaled_back(slices):
    times_s, kind = slices
    times_s += [2 * R] * 20
    clock = speed.Clock(kind, warmup=0)
    times = [0.04, 0.01, 0.01, 0.01]
    for t in times:
        clock.task_done(t)
    assert clock.scaled(times) == pytest.approx([t / 2 for t in times])


def test_each_window_takes_the_speed_around_it(slices, monkeypatch):
    monkeypatch.setattr(speed, "NEIGHBOURS", 0)
    times_s, kind = slices
    times_s += [R, 2 * R, 4 * R]  # first slice, after task 0, after tasks 1 and 2
    clock = speed.Clock(kind, warmup=0)
    times = [W, W / 2, W / 2]
    for t in times:
        clock.task_done(t)
    assert clock.window_of == [1, 2, 2]
    assert clock.scaled(times) == pytest.approx([times[0] / 2, times[1] / 4, times[2] / 4])


def test_the_last_window_is_closed_before_scaling(slices):
    times_s, kind = slices
    times_s += [R, 3 * R]
    clock = speed.Clock(kind, warmup=0)
    clock.task_done(W / 10)
    assert len(clock.slices) == 1
    assert clock.scaled([1.0]) == pytest.approx([0.5])  # mean of R and 3R is 2R
    assert len(clock.slices) == 2


def test_around_scales_by_the_mean_slice(slices, monkeypatch):
    monkeypatch.setattr(speed, "AROUND", 3)
    times_s, kind = slices
    times_s += [R / 4] * 5 + [7 * R / 4]  # mean R / 2, median R / 4
    factor, result = speed.around(kind, lambda x: x + 1, 41)
    assert (factor, result) == (pytest.approx(2.0), 42)


def test_the_mean_drops_the_extreme_slices(slices, monkeypatch):
    monkeypatch.setattr(speed, "NEIGHBOURS", 5)
    times_s, kind = slices
    times_s += [R / 10] + [R] * 4 + [2 * R] * 5 + [50 * R]  # 11 slices, 1 trimmed each end
    clock = speed.Clock(kind, warmup=0)
    times = [W] * 10
    for t in times:
        clock.task_done(t)
    assert clock.scaled(times)[4] == pytest.approx(W / (14 / 9))


@pytest.mark.parametrize("kind", [speed.COMPUTE, speed.STARTUP])
def test_a_real_slice_takes_about_its_reference_time(kind):
    calibration_slice, reference_s, _ = kind
    assert reference_s / 5 < calibration_slice() < reference_s * 5
