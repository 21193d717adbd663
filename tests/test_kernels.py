import math

import numpy as np
import pytest

from bqnet import (ArrivalProcess, KernelDomainError,
                   RefinementRequiredError, ServiceLaw, ServiceNode, TimeGrid,
                   UnsupportedRepresentationError, ValidationError,
                   build_markov_kernel, build_renewal_kernel,
                   load_tabulated_kernel_csv)

LN2 = math.log(2.0)


class TestArrivals:
    def test_constant(self):
        p = ArrivalProcess.constant(1.5)
        assert p.rate(3.0) == 1.5
        assert p.cumulative(2.0) == 3.0
        assert p.max_rate(10.0) == 1.5

    def test_piecewise(self):
        p = ArrivalProcess.piecewise([0.0, 1.0, 2.5], [1.0, 3.0, 0.5])
        assert p.rate(0.5) == 1.0
        assert p.rate(1.7) == 3.0
        assert p.rate(5.0) == 0.5
        assert p.cumulative(2.0) == pytest.approx(1.0 + 3.0)
        assert p.max_rate(0.5) == 1.0
        assert p.max_rate(2.0) == 3.0

    def test_sinusoidal(self):
        p = ArrivalProcess.sinusoidal(1.0, 0.5, 1.0)
        assert p.rate(math.pi / 2) == pytest.approx(1.5)
        assert p.cumulative(2.0) == pytest.approx(2.0 - 0.5 * (math.cos(2.0) - 1.0))
        assert p.max_rate(100.0) == 1.5
        assert not p.is_homogeneous()

    def test_validation(self):
        with pytest.raises(ValidationError):
            ArrivalProcess.constant(-1.0)
        with pytest.raises(ValidationError):
            ArrivalProcess.sinusoidal(1.0, 2.0, 1.0)
        with pytest.raises(ValidationError):
            ArrivalProcess.piecewise([1.0, 2.0], [1.0, 1.0])


class TestMarkovKernel:
    def test_tandem_closed_form(self, tandem_kernel):
        # q^1_1(t) = e^-t and q^1_2(t) = e^-t - e^-2t for mu = (1, 2)
        assert tandem_kernel.eval(0, 0, LN2) == pytest.approx(0.5, abs=1e-10)
        assert tandem_kernel.eval(0, 1, LN2) == pytest.approx(0.25, abs=1e-10)

    def test_identity_at_zero(self, tandem_kernel):
        np.testing.assert_array_equal(tandem_kernel.transition_matrix(0.0),
                                      np.eye(2))

    def test_single_node_decay(self, mm_kernel):
        assert mm_kernel.eval(0, 0, 1.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_survival_examples(self, tandem_kernel, mm_kernel):
        assert tandem_kernel.survival(0, 0.0) == 1.0
        assert tandem_kernel.survival(0, LN2) == pytest.approx(0.75, abs=1e-10)
        absorbing = build_markov_kernel([ServiceNode(ServiceLaw.absorbing())], 1)
        for t in [0.0, 1.0, 50.0]:
            assert absorbing.survival(0, t) == 1.0

    def test_index_errors(self, mm_kernel):
        with pytest.raises(IndexError):
            mm_kernel.eval(1, 0, 1.0)
        with pytest.raises(IndexError):
            mm_kernel.survival(-1, 1.0)

    def test_rejects_non_exponential(self):
        node = ServiceNode(ServiceLaw.deterministic(1.0), [0.0, 1.0])
        with pytest.raises(UnsupportedRepresentationError):
            build_markov_kernel([node], 1)

    def test_rejects_bad_routing(self):
        with pytest.raises(ValidationError):
            ServiceNode(ServiceLaw.exponential(1.0), [0.3, 0.3, 0.3])

    def test_chapman_kolmogorov(self, tandem_kernel):
        rng = np.random.default_rng(7)
        for _ in range(6):
            s, t = rng.uniform(0.05, 3.0, 2)
            left = tandem_kernel.augmented_matrix(s + t)
            right = tandem_kernel.augmented_matrix(s) @ tandem_kernel.augmented_matrix(t)
            assert np.max(np.abs(left - right)) <= 1e-9

    def test_row_substochastic_dense_grid(self, tandem_kernel):
        ts = np.linspace(0.0, 8.0, 201)
        rows = tandem_kernel.placement_rows_many(ts)
        sums = rows[:, :, :2].sum(axis=2)
        assert np.all(sums >= -1e-10)
        assert np.all(sums <= 1.0 + 1e-10)

    def test_large_time_matches_expm_crossover(self, tandem_kernel):
        from scipy.linalg import expm
        for t in [4900.0, 5100.0]:
            got = tandem_kernel.augmented_matrix(t)
            want = expm(tandem_kernel.generator * t)
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_vectorised_path_matches_scalar(self, tandem_kernel):
        ts = np.linspace(0.0, 3.0, 17)
        fresh = build_markov_kernel(tandem_kernel.nodes, 2)
        many = fresh.placement_rows_many(ts)
        for pos, t in enumerate(ts):
            single = tandem_kernel.placement_rows(float(t))
            assert np.max(np.abs(many[pos] - single)) <= 1e-13


class TestRenewalKernel:
    def test_deterministic_step(self):
        node = ServiceNode(ServiceLaw.deterministic(1.0), [0.0, 1.0])
        kern = build_renewal_kernel([node], 1, TimeGrid(end=2.0, nodes=201))
        assert kern.survival(0, 0.5) == 1.0
        assert kern.survival(0, 1.5) == 0.0

    def test_exponential_matches_closed_form(self):
        node = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0])
        kern = build_renewal_kernel([node], 1, TimeGrid(end=1.0, nodes=1001))
        assert abs(kern.survival(0, 1.0) - math.exp(-1)) <= 1e-5

    def test_agreement_with_uniformization(self, tandem_nodes, tandem_kernel):
        kern = build_renewal_kernel(tandem_nodes, 2, TimeGrid(end=3.0, nodes=3001))
        for t in np.linspace(0.0, 3.0, 31):
            delta = np.abs(kern.transition_matrix(t)
                           - tandem_kernel.transition_matrix(t))
            assert np.max(delta) <= 1e-5

    def test_erlang_tandem_vs_trajectory_oracle(self):
        from bqnet.simulate import _block_rng, _trajectory_locations
        nodes = [ServiceNode(ServiceLaw.erlang(2, 2.0), [0.0, 1.0, 0.0]),
                 ServiceNode(ServiceLaw.exponential(2.0), [0.0, 0.0, 1.0])]
        kern = build_renewal_kernel(nodes, 2, TimeGrid(end=3.0, nodes=3001))
        reps = 1_000_000
        rng = _block_rng(2024, 0)
        offsets = np.array([0.5, 1.0, 2.0])
        locs = _trajectory_locations(nodes, 2, np.zeros(reps, dtype=np.int64),
                                     np.zeros(reps), offsets, rng)
        for col, t in enumerate(offsets):
            want = kern.eval(0, 1, float(t))
            got = float(np.mean(locs[:, col] == 1))
            se = math.sqrt(want * (1.0 - want) / reps)
            assert abs(got - want) <= 3.0 * se + 2e-4

    def test_refinement_required(self):
        node = ServiceNode(ServiceLaw.exponential(10.0), [0.0, 1.0])
        with pytest.raises(RefinementRequiredError):
            build_renewal_kernel([node], 1, TimeGrid(end=8.0, nodes=201))

    def test_lazy_extension(self):
        node = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0])
        kern = build_renewal_kernel([node], 1, TimeGrid(end=2.0, nodes=257))
        assert abs(kern.survival(0, 6.0) - math.exp(-6)) <= 1e-4

    def test_identity_at_zero(self, tandem_nodes):
        kern = build_renewal_kernel(tandem_nodes, 2, TimeGrid(end=1.0, nodes=257))
        np.testing.assert_array_equal(kern.transition_matrix(0.0), np.eye(2))


class TestTabulatedKernel:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_roundtrip(self, tmp_path, mm_kernel):
        ts = np.linspace(0.0, 2.0, 41)
        lines = ["t,q_1_1"]
        for t in ts:
            lines.append(f"{t},{mm_kernel.eval(0, 0, float(t))}")
        path = tmp_path / "kernel.csv"
        self._write(path, lines)
        kern = load_tabulated_kernel_csv(path)
        assert kern.representation == "tabulated"
        assert abs(kern.survival(0, 1.0) - math.exp(-1)) <= 1e-3

    def test_rejects_decreasing_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write(path, ["t,q_1_1", "0.0,1.0", "0.5,0.6", "0.4,0.7"])
        with pytest.raises(ValidationError):
            load_tabulated_kernel_csv(path)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write(path, ["t,q_1_1", "0.0,1.0", "1.0,1.4"])
        with pytest.raises(ValidationError):
            load_tabulated_kernel_csv(path)

    def test_beyond_grid_raises(self, tmp_path):
        path = tmp_path / "k.csv"
        self._write(path, ["t,q_1_1", "0.0,1.0", "1.0,0.5"])
        kern = load_tabulated_kernel_csv(path)
        with pytest.raises(KernelDomainError):
            kern.placement_rows(2.0)
