import json
import math
import os

import numpy as np
import pytest

from bqnet import ValidationError, bundled_config_path, load_config
from bqnet.cli import compare_outputs, main
from bqnet.tables import (LatticePMF, canonical_json, read_occupancy_csv,
                          simplex_rank, write_occupancy_csv)


class TestConfigLoading:
    def test_bundled_mm_infty(self):
        model = load_config(bundled_config_path("mm_infty"))
        assert model.J == 1
        assert model.arrival.kind == "constant"
        # a constant batch is the finite table with one vector
        assert model.batch.variant == "finite-table"
        assert model.batch.vectors.tolist() == [[1]]
        assert model.batch.probs.tolist() == [1.0]

    def test_bundled_vivax(self):
        model = load_config(bundled_config_path("vivax"))
        assert model.J == 8
        kinds = [n.service.kind for n in model.nodes]
        assert kinds.count("absorbing") == 3
        kernel = model.build_kernel()
        # absorbing compartments hold their customers forever
        assert kernel.survival_vectors([100.0])[0, 4] == 1.0

    def test_bundled_zeta(self):
        model = load_config(bundled_config_path("zeta_batch"))
        assert model.batch.law.family == "zeta"

    def test_bad_routing_reports_field_path(self, tmp_path):
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["nodes"][0]["routing"] = [0.0, 0.9]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert any("nodes[0].routing" in failure for failure in err.value.failures)

    def test_collects_all_failures(self, tmp_path):
        raw = {
            "J": 2,
            "arrival": {"kind": "constant", "rate": -1.0},
            "batch": {"variant": "constant", "vector": [1]},
            "nodes": [
                {"service": {"kind": "exponential", "rate": 1.0},
                 "routing": [0.0, 0.0, 0.9]},
                {"service": {"kind": "unknown-kind"}},
            ],
        }
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_config(path)
        text = "\n".join(err.value.failures)
        assert "arrival" in text
        assert "batch.vector" in text
        assert "nodes[0].routing" in text
        assert "nodes[1].service" in text

    def test_batch_table_from_csv(self, tmp_path):
        table = tmp_path / "batch.csv"
        table.write_text("n_1,n_2,prob\n1,0,0.25\n0,2,0.75\n")
        raw = {
            "J": 2,
            "arrival": {"kind": "constant", "rate": 1.0},
            "batch": {"variant": "finite-table", "path": "batch.csv"},
            "nodes": [
                {"service": {"kind": "exponential", "rate": 1.0},
                 "routing": [0.0, 0.5, 0.5]},
                {"service": {"kind": "exponential", "rate": 2.0},
                 "routing": [0.0, 0.0, 1.0]},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        model = load_config(path)
        assert model.batch.pmf([0, 2]) == pytest.approx(0.75)


class TestTables:
    def test_occupancy_csv_roundtrip(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [((0, 0), 0.5), ((1, 0), 0.3), ((0, 1), 0.2)]
        write_occupancy_csv(path, 2, rows)
        J, probs, extras = read_occupancy_csv(path)
        assert J == 2
        assert probs[(1, 0)] == 0.3
        assert extras == {}

    def test_lattice_json_roundtrip_byte_identical(self, tmp_path):
        values = np.zeros(6)
        values[simplex_rank([(0, 0), (1, 0), (0, 1), (1, 1)])] = [0.5, 0.25, 0.125,
                                                                  0.0625]
        pmf = LatticePMF(2, 2, values)
        doc = pmf.to_json_dict()
        text = canonical_json(doc)
        again = canonical_json(LatticePMF.from_json_dict(
            json.loads(text)).to_json_dict())
        assert text == again

    def test_lattice_vectors_outside_the_simplex(self):
        pmf = LatticePMF(2, 2, np.full(6, 1.0 / 6.0))
        # a negative entry would otherwise rank onto a vector inside
        for vec in [(3, 0), (-1, 2), (1, 1, 0)]:
            assert pmf.prob(vec) == 0.0
        for vec in [[3, 0], [-1, 2]]:
            doc = pmf.to_json_dict()
            doc["entries"][-1] = [*vec, 0.0]
            with pytest.raises(ValidationError, match="outside"):
                LatticePMF.from_json_dict(doc)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            read_occupancy_csv(path)


class TestCli:
    def test_missing_config_exit_66(self, capsys):
        assert main(["pmf", "--config", "no-such-file.json",
                     "--t", "1"]) == 66

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["pmf", "--config", str(path), "--t", "1"]) == 2

    @pytest.mark.parametrize("batch", [
        # a batch-table row [n_1, prob] whose size is not an integer
        {"variant": "finite-table", "table": [[1.5, 1.0]]},
        # a univariate finite-table family, object and list forms
        {"variant": "iid-assignment", "entry_probs": [1.0],
         "family": {"name": "finite-table", "table": {"1.5": 1.0}}},
        {"variant": "iid-assignment", "entry_probs": [1.0],
         "family": {"name": "finite-table", "table": [[1.5, 1.0]]}},
    ])
    def test_non_integer_batch_size_exit_2(self, tmp_path, capsys, batch):
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["batch"] = batch
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert main(["zero-prob", "--config", str(path), "--t", "1"]) == 2
        assert "nonnegative integer" in capsys.readouterr().err

    def test_pmf_artifact_values(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["pmf", "--config", "mm_infty", "--t", "1", "--cap", "20"])
        assert code == 0
        J, probs, _ = read_occupancy_csv(tmp_path / "mm_infty_pmf_t1.csv")
        assert J == 1
        want = math.exp(-(1.0 - math.exp(-1.0)))
        assert abs(probs[(0,)] - want) <= 1e-6
        meta = json.loads((tmp_path / "mm_infty_pmf_t1.json").read_text())
        assert meta["kind"] == "occupancy-pmf"
        assert meta["t"] == 1.0

    def test_pmf_determinism(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["pmf", "--config", "mm_infty", "--t", "1", "-o", "a.csv",
              "--meta", "a.json"])
        main(["pmf", "--config", "mm_infty", "--t", "1", "-o", "b.csv",
              "--meta", "b.json"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_zero_prob_stdout(self, capsys):
        assert main(["zero-prob", "--config", "mm_infty", "--t", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.531464, abs=1e-5)

    def test_pgf_and_moments(self, capsys):
        assert main(["pgf", "--config", "tandem_batch", "--t", "1",
                     "--z", "0.5,0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["value"] < 1.0
        assert main(["moments", "--config", "mm_infty", "--t", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mean"][0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-7)

    def test_ergodicity_zeta_config(self, capsys):
        assert main(["ergodicity", "--config", "zeta_batch"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "ergodic"
        assert doc["criterion"] == "log-moment"

    def test_simulate_and_compare_pass(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["pmf", "--config", "mm_infty", "--t", "1",
                     "-o", "analytic.csv", "--meta", "analytic.json"]) == 0
        assert main(["simulate", "--config", "mm_infty", "--t", "1",
                     "--reps", "200000", "--seed", "11", "-o", "empirical.csv",
                     "--meta", "sim.json"]) == 0
        capsys.readouterr()
        code = main(["compare", "analytic.csv", "empirical.csv",
                     "--tol", "0.01"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["pass"] is True
        assert doc["max_abs_z"] <= 5.0

    def test_compare_self_is_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["pmf", "--config", "mm_infty", "--t", "1", "-o", "a.csv",
              "--meta", "a.json"])
        capsys.readouterr()
        code = main(["compare", "a.csv", "a.csv", "--tol", "1e-12"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["tv"] == 0.0

    def test_compare_detects_wrong_rate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["nodes"][0]["service"]["rate"] = 1.6
        (tmp_path / "wrong.json").write_text(json.dumps(raw))
        main(["pmf", "--config", "wrong.json", "--t", "1", "-o", "wrong.csv",
              "--meta", "wrong_meta.json"])
        main(["simulate", "--config", "mm_infty", "--t", "1",
              "--reps", "200000", "--seed", "12", "-o", "empirical.csv",
              "--meta", "sim.json"])
        capsys.readouterr()
        code = main(["compare", "wrong.csv", "empirical.csv", "--tol", "0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["max_abs_z"] > 5.0

    def test_compare_dimension_mismatch_exit_2(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_occupancy_csv(tmp_path / "one.csv", 1, [((0,), 1.0)])
        write_occupancy_csv(tmp_path / "two.csv", 2, [((0, 0), 1.0)])
        assert main(["compare", "one.csv", "two.csv", "--tol", "0.1"]) == 2

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BQNET_SEED", "777")
        main(["simulate", "--config", "mm_infty", "--t", "1",
              "--reps", "1000", "-o", "env.csv", "--meta", "env.json"])
        meta = json.loads((tmp_path / "env.json").read_text())
        assert meta["seed"] == 777
        # explicit flag beats the environment
        main(["simulate", "--config", "mm_infty", "--t", "1",
              "--reps", "1000", "--seed", "42", "-o", "flag.csv",
              "--meta", "flag.json"])
        assert json.loads((tmp_path / "flag.json").read_text())["seed"] == 42

    def test_convergence_error_exit_3(self, capsys, monkeypatch):
        from bqnet.errors import ConvergenceError

        def explode(*args, **kwargs):
            raise ConvergenceError("stalled", last_estimates=(0.1, 0.2))

        monkeypatch.setattr("bqnet.cli.transient_pmf", explode)
        assert main(["pmf", "--config", "mm_infty", "--t", "1"]) == 3
        assert "last estimates" in capsys.readouterr().err

    def test_simulate_artifact_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["simulate", "--config", "mm_infty", "--t", "1",
              "--reps", "2000", "--seed", "5", "-o", "sim.csv",
              "--meta", "sim.json"])
        text = (tmp_path / "sim.json").read_text()
        assert canonical_json(json.loads(text)) == text
        J, probs, extras = read_occupancy_csv(tmp_path / "sim.csv")
        assert set(extras) == {"stderr", "replications"}
        assert all(r == 2000 for r in extras["replications"].values())
        total = sum(probs.values())
        assert total == pytest.approx(1.0, abs=1e-9)
