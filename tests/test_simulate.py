import math

import numpy as np
import pytest

from bqnet import (ArrivalProcess, BatchLaw, NetworkModel, ServiceLaw,
                   ServiceNode, SimulationBudgetError, SimulationPlan,
                   UnivariateLaw, ValidationError, run_simulation,
                   sample_arrival_times, sample_trajectory)
from bqnet.batch import _LWT_BODY_MAX
from bqnet.simulate import EXITED, _block_rng

LN2 = math.log(2.0)


class TestArrivalSampling:
    def test_constant_rate_count(self):
        rng = np.random.default_rng(1)
        reps = 200_000
        counts = np.array([sample_arrival_times(ArrivalProcess.constant(1.0),
                                                1.0, rng)[0].size
                           for _ in range(reps)])
        se = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - 1.0) <= 3.0 * se
        # Poisson variance check as a bonus sanity signal
        assert abs(counts.var(ddof=1) - 1.0) <= 0.02

    def test_zero_rate_empty(self):
        rng = np.random.default_rng(2)
        got, _ = sample_arrival_times(ArrivalProcess.constant(0.0), 5.0, rng)
        assert got.size == 0

    def test_sinusoidal_cumulative_envelope(self):
        process = ArrivalProcess.sinusoidal(1.0, 0.5, 1.0)
        rng = np.random.default_rng(3)
        reps = 60_000
        horizon = 3.0
        counts = {1.0: [], 2.0: [], 3.0: []}
        for _ in range(reps):
            times = np.sort(sample_arrival_times(process, horizon, rng)[0])
            for t in counts:
                counts[t].append(int(np.searchsorted(times, t)))
        for t, obs in counts.items():
            obs = np.asarray(obs, dtype=float)
            want = process.cumulative(t)
            se = obs.std(ddof=1) / math.sqrt(reps)
            assert abs(obs.mean() - want) <= 3.0 * se

    def test_strictly_increasing(self):
        rng = np.random.default_rng(4)
        times = np.sort(sample_arrival_times(ArrivalProcess.sinusoidal(5.0, 2.0, 3.0),
                                             50.0, rng)[0])
        assert np.all(np.diff(times) > 0)


class TestBatchSampling:
    def test_constant(self):
        rng = np.random.default_rng(5)
        law = BatchLaw.constant([2, 1])
        for _ in range(5):
            np.testing.assert_array_equal(law.sample(rng), [2, 1])

    def test_poisson_split_means(self):
        rng = np.random.default_rng(6)
        law = BatchLaw.iid_assignment(UnivariateLaw.poisson(2.0), [0.6, 0.4])
        draws = law.sample_many(rng, 1_000_000)
        for k, want in enumerate([1.2, 0.8]):
            se = draws[:, k].std(ddof=1) / 1000.0
            assert abs(draws[:, k].mean() - want) <= 3.0 * se

    def test_logarithmic_mass_at_one(self):
        rng = np.random.default_rng(7)
        law = BatchLaw.iid_assignment(UnivariateLaw.logarithmic(0.5), [1.0])
        draws = law.sample_many(rng, 1_000_000)[:, 0]
        p_hat = float(np.mean(draws == 1))
        want = 0.7213475204444817
        se = math.sqrt(want * (1.0 - want) / draws.size)
        assert abs(p_hat - want) <= 3.0 * se

    def test_log_weighted_tail_conditioned_frequencies(self):
        law = UnivariateLaw.log_weighted_tail()
        rng = np.random.default_rng(8)
        kept = []
        while len(kept) < 30_000:
            try:
                kept.extend(law.sample(rng, 256).tolist())
            except SimulationBudgetError:
                continue
        draws = np.array(kept[:30_000])
        # compare against the law conditioned on the representable range
        tail_beyond = law._lwt_c / math.log(float(1 << 62))
        for n in (2, 3, 5):
            want = law.pmf(n) / (1.0 - tail_beyond)
            p_hat = float(np.mean(draws == n))
            se = math.sqrt(want * (1.0 - want) / draws.size)
            assert abs(p_hat - want) <= 3.5 * se

    def test_log_weighted_tail_overflow_raises(self):
        law = UnivariateLaw.log_weighted_tail()

        class RiggedRng:
            def __init__(self):
                self.calls = 0

            def uniform(self, low=0.0, high=1.0, size=None):
                self.calls += 1
                if size is not None:
                    return np.full(size, 0.9999)  # force the tail branch
                return 0.999999999999  # proposal far beyond int64

        with pytest.raises(SimulationBudgetError):
            law._lwt_sample(RiggedRng(), 1)


class TestTrajectories:
    def test_offset_zero_is_entry(self, tandem_nodes):
        rng = np.random.default_rng(9)
        locs = sample_trajectory(tandem_nodes, 0, rng, [0.0])
        assert locs[0] == 0

    def test_exponential_survival(self, single_exp_node):
        rng = _block_rng(10, 0)
        reps = 1_000_000
        from bqnet.simulate import _trajectory_locations
        locs = _trajectory_locations([single_exp_node], 1,
                                     np.zeros(reps, dtype=np.int64),
                                     np.zeros(reps), np.array([1.0]), rng)
        p_hat = float(np.mean(locs[:, 0] == 0))
        want = math.exp(-1)
        se = math.sqrt(want * (1 - want) / reps)
        assert abs(p_hat - want) <= 3.0 * se

    def test_tandem_second_node(self, tandem_nodes):
        rng = _block_rng(11, 0)
        reps = 1_000_000
        from bqnet.simulate import _trajectory_locations
        locs = _trajectory_locations(tandem_nodes, 2,
                                     np.zeros(reps, dtype=np.int64),
                                     np.zeros(reps), np.array([LN2]), rng)
        p_hat = float(np.mean(locs[:, 0] == 1))
        se = math.sqrt(0.25 * 0.75 / reps)
        assert abs(p_hat - 0.25) <= 3.0 * se

    def test_absorbing_never_exits(self):
        nodes = [ServiceNode(ServiceLaw.absorbing())]
        rng = np.random.default_rng(12)
        locs = sample_trajectory(nodes, 0, rng, [0.0, 10.0, 1000.0])
        assert np.all(locs == 0)

    def test_budget_error_on_zero_service_loop(self):
        nodes = [ServiceNode(ServiceLaw.deterministic(0.0), [1.0, 0.0])]
        rng = np.random.default_rng(13)
        with pytest.raises(SimulationBudgetError):
            sample_trajectory(nodes, 0, rng, [1.0])

    def test_zero_service_loop_only_when_reachable(self):
        loop = ServiceNode(ServiceLaw.deterministic(0.0), [0.0, 1.0, 0.0])
        rng = np.random.default_rng(16)
        exits = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 0.0, 1.0])
        locs = sample_trajectory([exits, loop], 0, rng, [0.5, 200.0])
        assert locs[1] == EXITED
        feeds = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0, 0.0])
        with pytest.raises(SimulationBudgetError):
            sample_trajectory([feeds, loop], 0, rng, [1.0])

    def test_exit_marker(self, single_exp_node):
        rng = np.random.default_rng(14)
        locs = sample_trajectory([single_exp_node], 0, rng, [200.0])
        assert locs[0] == EXITED


class TestRunSimulation:
    def test_mm_infinity_zero_prob(self, mm_model):
        plan = SimulationPlan(model=mm_model, times=(1.0,),
                              replications=1_000_000, seed=20240901, cap=30)
        est = run_simulation(plan, workers=4)
        want = math.exp(-(1.0 - math.exp(-1.0)))
        p_hat = est.probability(0, (0,))
        se = math.sqrt(want * (1 - want) / plan.replications)
        assert abs(p_hat - want) <= 3.0 * se
        assert sum(est.counts[0].values()) + est.overflow[0] == plan.replications

    def test_time_zero_mass(self, mm_model):
        plan = SimulationPlan(model=mm_model, times=(0.0,),
                              replications=5_000, seed=1, cap=5)
        est = run_simulation(plan)
        assert est.counts[0] == {(0,): 5_000}

    def test_deterministic_across_workers(self, batch_tandem_model):
        plan = SimulationPlan(model=batch_tandem_model, times=(1.0, 3.0),
                              replications=20_000, seed=17, cap=25)
        runs = [run_simulation(plan, workers=w) for w in (1, 4, 8)]
        for other in runs[1:]:
            assert runs[0].counts == other.counts
            assert runs[0].overflow == other.overflow

    def test_disjoint_window_increments_uncorrelated(self):
        process = ArrivalProcess.constant(1.0)
        rng = np.random.default_rng(15)
        reps = 100_000
        first, second = np.empty(reps), np.empty(reps)
        for r in range(reps):
            times = np.sort(sample_arrival_times(process, 2.0, rng)[0])
            split = np.searchsorted(times, 1.0)
            first[r], second[r] = split, times.size - split
        cov = float(np.cov(first, second)[0, 1])
        # se of the sample covariance of two independent Poisson(1) draws
        se = math.sqrt((1.0 * 1.0 + 1.0) / reps)
        assert abs(cov) <= 3.0 * se

    def test_overflow_tallied(self, mm_model):
        plan = SimulationPlan(model=mm_model, times=(1.0,),
                              replications=20_000, seed=3, cap=0)
        est = run_simulation(plan)
        assert est.overflow[0] > 0
        assert sum(est.counts[0].values()) + est.overflow[0] == plan.replications

    def test_plan_validation(self, mm_model):
        with pytest.raises(ValidationError):
            SimulationPlan(model=mm_model, times=(1.0,), replications=0, seed=1)
        with pytest.raises(ValidationError):
            SimulationPlan(model=mm_model, times=(2.0, 1.0), replications=10,
                           seed=1)
