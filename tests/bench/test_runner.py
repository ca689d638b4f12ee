"""The parallel campaign runner: ordering, seeding, and the byte-identity
guarantee — campaign output must not depend on the job count."""

import json

import pytest

from repro.bench import chaos, figures, runner
from repro.bench.runner import (base_params, run_points, shutdown_pool,
                                warm_pool)
from repro.params import default_params


def _square(x):
    return x * x


def _spec_tag(spec):
    return f"{spec[0]}:{spec[1]}"


def _base_seed(_point):
    return base_params().seed


def _nested(point):
    # A worker calling run_points must degrade to serial, not fork.
    return run_points(_square, [point, point + 1], jobs=4)


class TestRunPoints:
    def test_serial_preserves_order(self):
        assert run_points(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        points = list(range(20))
        assert run_points(_square, points, jobs=4) == [p * p for p in points]

    def test_parallel_matches_serial(self):
        points = [("dafs", 4), ("nfs", 64), ("odafs", 256)]
        assert (run_points(_spec_tag, points, jobs=3)
                == run_points(_spec_tag, points, jobs=1))

    def test_single_point_stays_in_process(self):
        # len(points) <= 1 must not spin up a pool at all.
        state = []
        run_points(state.append, [42], jobs=8)
        assert state == [42]

    def test_unset_jobs_runs_in_process(self):
        # No --jobs means serial: the points run here, not in workers.
        state = []
        run_points(state.append, [1, 2])
        assert state == [1, 2]

    def test_empty_points(self):
        assert run_points(_square, [], jobs=4) == []

    def test_cost_ordering_restores_point_order(self):
        # LPT submits big points first; results still line up 1:1 with
        # the input order.
        points = list(range(12))
        assert (run_points(_square, points, jobs=3, cost=lambda p: -p)
                == [p * p for p in points])

    def test_cost_serial_path_matches(self):
        points = [5, 3, 9]
        assert (run_points(_square, points, jobs=1, cost=lambda p: p)
                == run_points(_square, points, jobs=2, cost=lambda p: p))


class TestWarmPool:
    def test_pool_reused_across_grids(self):
        base = default_params()
        run_points(_square, [1, 2, 3], jobs=2, base=base)
        pool = runner._pool
        assert pool is not None
        run_points(_square, [4, 5, 6], jobs=2, base=base)
        assert runner._pool is pool  # same pool, no refork

    def test_pool_rebuilt_on_base_change(self):
        run_points(_square, [1, 2], jobs=2, base=default_params())
        pool = runner._pool
        run_points(_square, [1, 2], jobs=2,
                   base=default_params().copy(seed=4242))
        assert runner._pool is not pool

    def test_workers_see_base_params(self):
        base = default_params().copy(seed=31337)
        seeds = run_points(_base_seed, [0, 1, 2, 3], jobs=2, base=base)
        assert seeds == [31337] * 4

    def test_serial_path_sees_base_params(self):
        base = default_params().copy(seed=777)
        assert run_points(_base_seed, [0], jobs=1, base=base) == [777]

    def test_nested_run_points_degrades_to_serial(self):
        out = run_points(_nested, [10, 20], jobs=2)
        assert out == [[100, 121], [400, 441]]

    def test_warm_pool_then_reuse(self):
        base = default_params()
        warm_pool(2, base)
        pool = runner._pool
        assert pool is not None
        assert run_points(_square, [7, 8], jobs=2, base=base) == [49, 64]
        assert runner._pool is pool

    def test_shutdown_idempotent(self):
        warm_pool(2)
        shutdown_pool()
        assert runner._pool is None
        shutdown_pool()  # second call is a no-op
        # and the next parallel call transparently reforks
        assert run_points(_square, [2, 3], jobs=2) == [4, 9]


class TestCampaignByteIdentity:
    """--jobs N output must be byte-identical to --jobs 1 (ISSUE
    acceptance: fixed seed, any job count, same JSON)."""

    def _canon(self, obj):
        return json.dumps(obj, indent=2, sort_keys=True, default=str)

    def test_fig3_sweep(self):
        kwargs = dict(block_sizes_kb=(4, 64), blocks_per_point=16)
        serial = figures.fig3_fig4(jobs=1, **kwargs)
        parallel = figures.fig3_fig4(jobs=2, **kwargs)
        assert self._canon(serial) == self._canon(parallel)

    def test_table3(self):
        kwargs = dict(n_blocks=32, measure_blocks=16)
        serial = figures.table3_response_time(jobs=1, **kwargs)
        parallel = figures.table3_response_time(jobs=3, **kwargs)
        assert self._canon(serial) == self._canon(parallel)

    def test_chaos_grid(self):
        kwargs = dict(systems=("dafs",), fault_classes=("link", "nic"),
                      rates=(0.0, 0.02), blocks=16, passes=1)
        serial = chaos.chaos_campaign(jobs=1, **kwargs)
        parallel = chaos.chaos_campaign(jobs=2, **kwargs)
        assert self._canon(serial) == self._canon(parallel)
