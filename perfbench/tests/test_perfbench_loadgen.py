"""Inputs and schedules are functions of the seed alone."""

import pytest

from perfbench import loadgen


def offsets(seed, rate=500.0, duration=2.0):
    return loadgen.poisson_offsets(
        loadgen.rng_for("poisson-shapes", seed, "nominal", rate),
        rate, duration)


def test_poisson_schedule_is_fixed_by_the_seed():
    assert offsets(3) == offsets(3)
    assert offsets(3) != offsets(4)
    schedule = offsets(3)
    assert schedule == sorted(schedule)
    assert 0.0 < schedule[0] and schedule[-1] < 2.0
    assert len(schedule) == pytest.approx(1000, rel=0.15)


def test_rate_grid_steps_are_finer_than_the_step_asked_for():
    grid = loadgen.rate_grid(200.0, 6400.0, 0.04)
    assert grid[0] == 200.0 and grid[-1] <= 6400.0
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) == pytest.approx(1.04, abs=1e-3)


def test_workload_inputs_are_fixed_by_the_seed():
    from perfbench.workloads import PoissonShapes

    def pool(seed):
        workload = PoissonShapes(seed)
        workload.setup()
        try:
            workload.build_pool()
        finally:
            workload.close()
        return [(key, {name: value.tobytes()
                       for name, value in inputs.items()})
                for key, inputs in workload.pool]

    first = pool(5)
    assert first == pool(5)
    assert first != pool(6)
    extents = {key[1] for key, _ in first}
    assert extents <= set(range(1, PoissonShapes.max_extent + 1))
    assert len(extents) > 1
