"""Unit tests for random streams and monitors."""

import math

import numpy as np
import pytest

from repro.core.planner import Planner
from repro.models.profiles import LatencyProfiles
from repro.platforms.base import build_platform
from repro.sim import (CounterMonitor, Environment, GaugeMonitor,
                       RandomStreams, TimeSeriesMonitor)


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42)
        b = RandomStreams(42)
        assert a.exponential("x", 1.0) == b.exponential("x", 1.0)
        assert a.uniform("y", 0, 1) == b.uniform("y", 0, 1)

    def test_different_streams_are_independent(self):
        streams = RandomStreams(42)
        # Consuming from one stream must not change another's next draw.
        fresh = RandomStreams(42)
        fresh.exponential("other", 1.0)
        assert (streams.exponential("main", 1.0)
                == fresh.exponential("main", 1.0))

    def test_lognormal_mean_is_calibrated(self):
        streams = RandomStreams(1)
        draws = [streams.lognormal_around("jitter", 2.0, 0.2)
                 for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(2.0, rel=0.05)

    def test_lognormal_zero_cv_is_deterministic(self):
        streams = RandomStreams(1)
        assert streams.lognormal_around("x", 3.0, 0.0) == 3.0

    def test_validation(self):
        streams = RandomStreams(0)
        with pytest.raises(ValueError):
            streams.exponential("x", 0.0)
        with pytest.raises(ValueError):
            streams.uniform("x", 2.0, 1.0)
        with pytest.raises(ValueError):
            streams.lognormal_around("x", -1.0, 0.1)
        with pytest.raises(ValueError):
            streams.choice("x", 0)

    def test_choice_in_range(self):
        streams = RandomStreams(9)
        values = {streams.choice("pick", 5) for _ in range(200)}
        assert values <= {0, 1, 2, 3, 4}
        assert len(values) > 1

    def test_fork_changes_draws(self):
        base = RandomStreams(7)
        forked = base.fork(1)
        assert base.uniform("x", 0, 1) != forked.uniform("x", 0, 1)


class TestDrawHandles:
    def test_binding_a_handle_draws_nothing(self):
        streams = RandomStreams(3)
        lognormal = streams.lognormal_draw("a", 2.0, 0.3)
        summed = streams.lognormal_sum_draw("b", 2.0, 0.3)
        uniform = streams.uniform_draw("c", 1.0, 4.0)
        choice = streams.choice_draw("d", 7)
        raw = RandomStreams(3)
        for name in "abcd":
            assert (streams.stream(name).bit_generator.state
                    == raw.stream(name).bit_generator.state)
        sigma2 = math.log(1.0 + 0.3 * 0.3)
        mu, sigma = math.log(2.0) - sigma2 / 2.0, math.sqrt(sigma2)
        assert lognormal() == raw.stream("a").lognormal(mu, sigma)
        assert summed(1) == raw.stream("b").lognormal(mu, sigma)
        assert uniform() == raw.stream("c").uniform(1.0, 4.0)
        assert choice() == raw.stream("d").integers(0, 7)

    @pytest.mark.parametrize("bind", [
        lambda s: s.lognormal_draw("x", 0.0, 0.1),
        lambda s: s.lognormal_draw("x", 1.0, -0.1),
        lambda s: s.lognormal_sum_draw("x", -1.0, 0.1),
        lambda s: s.lognormal_sum_draw("x", 1.0, -0.1),
        lambda s: s.uniform_draw("x", 2.0, 1.0),
        lambda s: s.choice_draw("x", 0),
    ])
    def test_invalid_parameters_raise_at_bind(self, bind):
        with pytest.raises(ValueError):
            bind(RandomStreams(0))

    @pytest.mark.parametrize("platform, overrides", [
        ("serverless", dict(crash_mtbf_s=60.0, request_error_rate=0.1)),
        ("managed_ml", dict(crash_mtbf_s=60.0, request_error_rate=0.1)),
        ("cpu_server", dict(request_error_rate=0.1)),
        ("gpu_server", {}),
        ("hybrid", dict(hybrid_sticky_spill_s=5.0)),
        ("serverless", dict(region_count=2, routing_policy="weighted",
                            breaker_failure_threshold=3)),
    ])
    def test_building_a_platform_draws_nothing(self, platform, overrides):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15", platform,
                                    **overrides)
        rng = RandomStreams(11)
        build_platform(Environment(), deployment, rng=rng)
        assert rng._sources, "no draw handle was bound"
        fresh = RandomStreams(11)
        for name, generator in rng._streams.items():
            assert (generator.bit_generator.state
                    == fresh.stream(name).bit_generator.state), name

    def test_non_positive_serverless_stage_is_zero_without_a_draw(self):
        class NoImport(LatencyProfiles):
            def import_time(self, provider, runtime, model):
                return 0.0

        deployment = Planner().plan("aws", "mobilenet", "tf1.15")
        rng = RandomStreams(11)
        platform = build_platform(Environment(), deployment,
                                  profiles=NoImport(), rng=rng)
        assert platform._import() == 0.0
        assert "import" not in rng._streams
        assert platform._load() > 0.0


class TestTimeSeriesMonitor:
    def test_record_and_lookup(self):
        series = TimeSeriesMonitor()
        series.record(0.0, 1.0)
        series.record(10.0, 5.0)
        assert series.value_at(-1.0) == 0.0
        assert series.value_at(0.0) == 1.0
        assert series.value_at(9.9) == 1.0
        assert series.value_at(10.0) == 5.0

    def test_out_of_order_rejected(self):
        series = TimeSeriesMonitor()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 2.0)

    def test_resample(self):
        series = TimeSeriesMonitor()
        series.record(0.0, 1.0)
        series.record(2.0, 3.0)
        assert series.resample([0.0, 1.0, 2.0, 3.0]) == [1.0, 1.0, 3.0, 3.0]

    def test_max_and_len(self):
        series = TimeSeriesMonitor()
        assert series.max() == 0.0
        series.record(0.0, 2.0)
        series.record(1.0, 7.0)
        assert series.max() == 7.0
        assert len(series) == 2


class TestCounterAndGauge:
    def test_counter_increments(self):
        counter = CounterMonitor()
        counter.increment("requests")
        counter.increment("requests", 2.0)
        assert counter.get("requests") == 3.0
        assert counter.get("missing") == 0.0

    def test_counter_rejects_negative(self):
        counter = CounterMonitor()
        with pytest.raises(ValueError):
            counter.increment("x", -1.0)

    def test_gauge_tracks_history(self):
        gauge = GaugeMonitor("instances")
        gauge.set(0.0, 1.0)
        gauge.add(5.0, 2.0)
        assert gauge.value == 3.0
        assert gauge.history.as_pairs() == [(0.0, 1.0), (5.0, 3.0)]
