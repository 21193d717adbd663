import math
import time

import numpy as np
import pytest

import bqnet.simulate
from bqnet import (ArrivalProcess, BatchLaw, NetworkModel, ServiceLaw,
                   ServiceNode, SimulationBudgetError, SimulationPlan,
                   UnivariateLaw, ValidationError, bundled_config_path,
                   load_config, run_simulation, sample_arrival_times,
                   sample_trajectory)
from bqnet.batch import _LWT_BODY_MAX
from bqnet.simulate import BLOCK_SIZE, EXITED, _block_rng, _router, _walk
from bqnet.tables import read_occupancy_csv
from conftest import oracle_arrival_times, oracle_trajectory_locations

LN2 = math.log(2.0)


def oracle_occupancy(model, times, seed, block, count):
    """One block's customers per (replication, snapshot, node), drawn in
    the simulator's order and tallied with ``np.add.at``."""
    rng = _block_rng(seed, block)
    J = model.J
    snaps = np.asarray(times, dtype=float)
    arr_times, arr_reps = sample_arrival_times(model.arrival, float(snaps.max()),
                                               rng, count)
    batches = model.batch.sample_many(rng, arr_times.size)
    totals = batches.sum(axis=1)
    entry = np.repeat(np.tile(np.arange(J), arr_times.size), batches.ravel())
    locations = oracle_trajectory_locations(model.nodes, J, entry,
                                            np.repeat(arr_times, totals), snaps, rng)
    rep = np.repeat(arr_reps, totals)
    occupancy = np.zeros((count, snaps.size, J), dtype=np.int64)
    for s in range(snaps.size):
        present = locations[:, s] >= 0
        np.add.at(occupancy, (rep[present], s, locations[present, s]), 1)
    return occupancy


def oracle_tally(plan):
    """Counts and overflow by a row-wise ``np.unique`` per block and snapshot
    and a dict merge per distinct vector."""
    S = len(plan.times)
    counts = [dict() for _ in range(S)]
    overflow = [0] * S
    for block, start in enumerate(range(0, plan.replications, BLOCK_SIZE)):
        count = min(BLOCK_SIZE, plan.replications - start)
        occupancy = oracle_occupancy(plan.model, plan.times, plan.seed, block, count)
        for s in range(S):
            vecs, reps = np.unique(occupancy[:, s, :], axis=0, return_counts=True)
            for vec, c in zip(vecs, reps):
                if int(vec.sum()) > plan.cap:
                    overflow[s] += int(c)
                else:
                    key = tuple(int(v) for v in vec)
                    counts[s][key] = counts[s].get(key, 0) + int(c)
    return counts, overflow


def mixed_network():
    """J=5: Erlang, deterministic, tabulated with mass beyond its last knot,
    exponential and absorbing nodes; a 0 <-> 1 feedback loop; piecewise
    arrivals."""
    nodes = [
        ServiceNode(ServiceLaw.erlang(3, 2.0), [0.0, 0.5, 0.2, 0.0, 0.0, 0.3]),
        ServiceNode(ServiceLaw.deterministic(0.7), [0.3, 0.0, 0.0, 0.4, 0.0, 0.3]),
        ServiceNode(ServiceLaw.tabulated([0.0, 0.5, 1.0, 2.0], [0.0, 0.3, 0.6, 0.9]),
                    [0.0, 0.0, 0.0, 0.5, 0.1, 0.4]),
        ServiceNode(ServiceLaw.exponential(1.5), [0.0, 0.2, 0.0, 0.0, 0.0, 0.8]),
        ServiceNode(ServiceLaw.absorbing()),
    ]
    return NetworkModel(J=5, arrival=ArrivalProcess.piecewise([0.0, 1.0, 3.0],
                                                              [2.0, 0.5, 1.5]),
                        batch=BatchLaw.iid_assignment(UnivariateLaw.poisson(1.5),
                                                      [0.4, 0.2, 0.2, 0.1, 0.1]),
                        nodes=nodes)


def chain_network(J=300):
    """A J-node chain (node ids need uint16): each node passes on with
    probability 0.95, and the last one feeds 20 nodes back uniformly."""
    nodes = []
    for j in range(J - 1):
        row = np.zeros(J + 1)
        row[j + 1], row[J] = 0.95, 0.05
        nodes.append(ServiceNode(ServiceLaw.exponential(100.0), row))
    row = np.zeros(J + 1)
    row[:20] = row[J] = 1.0 / 21.0
    nodes.append(ServiceNode(ServiceLaw.exponential(100.0), row))
    entry = [0] * J
    entry[0] = entry[250] = 1
    return NetworkModel(J=J, arrival=ArrivalProcess.constant(2.0),
                        batch=BatchLaw.constant(entry), nodes=nodes)


class TestArrivalSampling:
    def test_constant_rate_count(self):
        rng = np.random.default_rng(1)
        reps = 200_000
        _, rep = sample_arrival_times(ArrivalProcess.constant(1.0), 1.0, rng, reps)
        counts = np.bincount(rep, minlength=reps)
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
        times, rep = sample_arrival_times(process, horizon, rng, reps)
        for t in (1.0, 2.0, 3.0):
            obs = np.bincount(rep[times < t], minlength=reps).astype(float)
            want = process.cumulative(t)
            se = obs.std(ddof=1) / math.sqrt(reps)
            assert abs(obs.mean() - want) <= 3.0 * se

    @pytest.mark.parametrize("process", [
        ArrivalProcess.constant(1.5),
        ArrivalProcess.piecewise([0.0, 1.0, 2.5], [2.0, 0.0, 3.0]),
        ArrivalProcess.sinusoidal(1.0, 0.5, 2.0, 0.3),
        ArrivalProcess.sinusoidal(2.0, 0.0, 1.0),
    ], ids=["constant", "piecewise", "sinusoidal", "flat-sinusoid"])
    @pytest.mark.parametrize("horizon", [0.0, 0.5, 1.0, 1.7, 2.5, 4.0])
    def test_matches_two_branch_oracle(self, process, horizon):
        # the same epochs, replications and generator state as the sampler
        # with a separate thinning branch for non-piecewise rates
        rng, oracle_rng = _block_rng(5, 0), _block_rng(5, 0)
        times, reps = sample_arrival_times(process, horizon, rng, 64)
        want_times, want_reps = oracle_arrival_times(process, horizon, oracle_rng, 64)
        assert times.dtype == want_times.dtype and reps.dtype == want_reps.dtype
        assert np.array_equal(times, want_times) and np.array_equal(reps, want_reps)
        np.testing.assert_equal(rng.bit_generator.state, oracle_rng.bit_generator.state)

    @pytest.mark.parametrize("process", [
        ArrivalProcess.constant(1.5),
        ArrivalProcess.piecewise([0.0, 1.0], [2.0, 3.0]),
        ArrivalProcess.sinusoidal(1.0, 0.5, 2.0),
    ])
    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_non_finite_horizon_rejected(self, process, horizon):
        with pytest.raises(ValidationError, match="finite"):
            sample_arrival_times(process, horizon, np.random.default_rng(0), 3)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(4)
        times = np.sort(sample_arrival_times(ArrivalProcess.sinusoidal(5.0, 2.0, 3.0),
                                             50.0, rng)[0])
        assert np.all(np.diff(times) > 0)


class TestBatchSampling:
    def test_constant(self):
        rng = np.random.default_rng(5)
        law = BatchLaw.constant([2, 1])
        np.testing.assert_array_equal(law.sample_many(rng, 5), [[2, 1]] * 5)

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
        counts = _walk([single_exp_node], 1, np.zeros(reps, dtype=np.int64),
                       np.zeros(reps), np.zeros(reps, dtype=np.int64),
                       np.array([1.0]), rng, 1)
        p_hat = counts[0, 0] / reps
        want = math.exp(-1)
        se = math.sqrt(want * (1 - want) / reps)
        assert abs(p_hat - want) <= 3.0 * se

    def test_tandem_second_node(self, tandem_nodes):
        rng = _block_rng(11, 0)
        reps = 1_000_000
        counts = _walk(tandem_nodes, 2, np.zeros(reps, dtype=np.int64),
                       np.zeros(reps), np.zeros(reps, dtype=np.int64),
                       np.array([LN2]), rng, 2)
        p_hat = counts[0, 1] / reps
        se = math.sqrt(0.25 * 0.75 / reps)
        assert abs(p_hat - 0.25) <= 3.0 * se

    def test_absorbing_never_exits(self):
        nodes = [ServiceNode(ServiceLaw.absorbing())]
        rng = np.random.default_rng(12)
        locs = sample_trajectory(nodes, 0, rng, [0.0, 10.0, 1000.0])
        assert np.all(locs == 0)

    def test_absorbing_customer_never_departs(self):
        # only an infinite horizon lets an infinite service end before it
        nodes = [ServiceNode(ServiceLaw.absorbing())]
        rng = np.random.default_rng(12)
        with pytest.raises(SimulationBudgetError, match="never depart"):
            sample_trajectory(nodes, 0, rng, [math.inf])

    def test_nan_offset_is_refused(self, tandem_nodes):
        rng = np.random.default_rng(12)
        for offsets in ([1.0, math.nan], [math.nan], [-1.0]):
            with pytest.raises(ValidationError, match="offsets must be >= 0"):
                sample_trajectory(tandem_nodes, 0, rng, offsets)

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

    def test_entry_node_must_be_an_integer_in_range(self, tandem_nodes):
        # 0.5 would walk node 0 and True node 1
        rng = np.random.default_rng(15)
        for entry in (0.5, True, False, np.float64(1.0), 2, -1, "0", None):
            with pytest.raises(ValidationError, match=r"must be an integer in \[0, 2\)"):
                sample_trajectory(tandem_nodes, entry, rng, [0.0])
        for entry in (np.int64(1), np.uint8(1), 1):
            assert sample_trajectory(tandem_nodes, entry, rng, [0.0]).tolist() == [1]

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
        p_hat = est.counts[0].get((0,), 0) / plan.replications
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

    def test_csv_width_when_every_vector_overflows(self, tmp_path):
        nodes = [ServiceNode(ServiceLaw.absorbing()) for _ in range(3)]
        model = NetworkModel(J=3, arrival=ArrivalProcess.constant(50.0),
                             batch=BatchLaw.constant([1, 1, 1]), nodes=nodes)
        est = run_simulation(SimulationPlan(model=model, times=(1.0,),
                                            replications=5, seed=2, cap=0))
        assert est.counts == [{}] and est.overflow == [5]
        path = tmp_path / "empty.csv"
        est.to_csv(path)
        assert path.read_text().splitlines()[0] == "n_1,n_2,n_3,prob,stderr,replications"
        assert read_occupancy_csv(path)[0] == 3

    def test_plan_validation(self, mm_model):
        with pytest.raises(ValidationError):
            SimulationPlan(model=mm_model, times=(1.0,), replications=0, seed=1)
        with pytest.raises(ValidationError):
            SimulationPlan(model=mm_model, times=(2.0, 1.0), replications=10,
                           seed=1)


class TestTally:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("config, times, cap", [
        ("tandem_batch", (1.0, 3.0), 25),
        ("vivax", (10.0,), 6),
        ("mm_infty", (3.0,), 20),
        ("tandem_batch", (3.0,), 0),
    ])
    def test_matches_row_unique_oracle(self, config, times, cap, workers):
        model = load_config(bundled_config_path(config))
        # two full blocks and a partial one
        plan = SimulationPlan(model=model, times=times,
                              replications=2 * BLOCK_SIZE + 123, seed=29, cap=cap)
        est = run_simulation(plan, workers=workers)
        counts, overflow = oracle_tally(plan)
        assert est.counts == counts
        assert est.overflow == overflow
        if config == "vivax" or cap == 0:
            assert min(overflow) > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model, times, replications, cap", [
        (mixed_network(), (0.0, 0.5, 2.5, 4.0), 2 * BLOCK_SIZE + 123, 30),
        (chain_network(), (0.5, 2.0), 300, 10),
        (load_config(bundled_config_path("tandem_batch")), (0.0,), BLOCK_SIZE + 7, 25),
    ], ids=["mixed-J5", "chain-J300", "t0-only"])
    def test_matches_oracle_on_wider_networks(self, model, times, replications,
                                              cap, workers):
        plan = SimulationPlan(model=model, times=times, replications=replications,
                              seed=31, cap=cap)
        est = run_simulation(plan, workers=workers)
        counts, overflow = oracle_tally(plan)
        assert est.counts == counts
        assert est.overflow == overflow
        assert sum(est.counts[-1].values()) + est.overflow[-1] == replications

    def test_router_matches_binary_search(self, monkeypatch):
        rng = np.random.default_rng(33)
        uniforms = rng.uniform(size=20_000)
        rows = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                [0.1] * 10, [0.3, 0.0, 0.3, 0.4 - 1e-12, 0.0],
                # one destination, but the top 1e-13 of [0, 1) exits
                [0.0, 1.0 - 1e-13, 0.0],
                # exit only, and so is the top 1e-13 past the row's sum
                [0.0, 0.0, 0.0, 1.0 - 1e-13]]
        for J in (3, 12, 40, 300):
            for density in (0.05, 0.5, 1.0):
                row = rng.uniform(size=J + 1) * (rng.uniform(size=J + 1) < density)
                row[rng.integers(J + 1)] += 0.5
                rows.append(row / row.sum())
        for row in rows:
            J = len(row) - 1
            cum = np.cumsum(row)
            # both ends of [0, 1) and every cumulative value inside it
            u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum[cum < 1.0], uniforms])
            route = _router(np.asarray(row), J, np.min_scalar_type(J))
            want = np.minimum(np.searchsorted(cum, u, side="right"), J)
            searches, search = [], np.searchsorted
            with monkeypatch.context() as patch:
                patch.setattr(np, "searchsorted",
                              lambda *args, **kw: searches.append(args) or search(*args, **kw))
                got = route(u)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.min_scalar_type(J)
            # a row with one next node for every u needs no search per uniform
            assert not (searches and want[0] == want[1])

    def test_zero_time_loop_checked_once_for_entry_queues(self, monkeypatch):
        exits = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 0.0, 1.0])
        loop = ServiceNode(ServiceLaw.deterministic(0.0), [0.0, 1.0, 0.0])
        never = NetworkModel(J=2, arrival=ArrivalProcess.constant(1.0),
                             batch=BatchLaw.constant([2, 0]), nodes=[exits, loop])
        est = run_simulation(SimulationPlan(model=never, times=(1.0,),
                                            replications=500, seed=5, cap=10))
        assert sum(est.counts[0].values()) == 500
        can = NetworkModel(J=2, arrival=ArrivalProcess.constant(1.0),
                           batch=BatchLaw.iid_assignment(UnivariateLaw.poisson(1.0),
                                                         [0.99, 0.01]),
                           nodes=[exits, loop])
        blocks = []
        monkeypatch.setattr(bqnet.simulate, "_simulate_block",
                            lambda *args: blocks.append(args))
        with pytest.raises(SimulationBudgetError):
            run_simulation(SimulationPlan(model=can, times=(1.0,),
                                          replications=500, seed=5, cap=10))
        assert blocks == []

    def test_zero_time_loop_reached_by_tiny_entry_mass(self):
        # P(S_2 = 0) rounds to 1.0, but the loop is reachable all the same
        exits = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 0.0, 1.0])
        loop = ServiceNode(ServiceLaw.deterministic(0.0), [0.0, 1.0, 0.0])
        batch = BatchLaw.independent([UnivariateLaw.poisson(1.0),
                                      UnivariateLaw.poisson(1e-17)])
        model = NetworkModel(J=2, arrival=ArrivalProcess.constant(1.0),
                             batch=batch, nodes=[exits, loop])
        with pytest.raises(SimulationBudgetError):
            run_simulation(SimulationPlan(model=model, times=(1.0,),
                                          replications=500, seed=5, cap=10))

    def test_block_budget_on_zeta_batch(self):
        model = load_config(bundled_config_path("zeta_batch"))
        plan = SimulationPlan(model=model, times=(3.0,), replications=20_000,
                              seed=model.analysis.seed, cap=15)
        start = time.perf_counter()
        with pytest.raises(SimulationBudgetError, match="budget"):
            run_simulation(plan)
        assert time.perf_counter() - start < 1.0
