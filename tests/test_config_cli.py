import argparse
import inspect
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bqnet import ValidationError, bundled_config_path, config, load_config
from bqnet.cli import _resolve_config, compare_outputs, main
from bqnet.tables import (LatticePMF, canonical_json, read_occupancy_csv,
                          simplex_rank, write_occupancy_csv)

# every config the package ships and the benchmark runs
SHIPPED_CONFIGS = sorted(
    list(bundled_config_path("mm_infty").parent.glob("*.json"))
    + list((Path(__file__).resolve().parents[1] / "perfbench" / "configs").glob("*.json")))


class TestConfigLoading:
    def test_bundled_mm_infty(self):
        model = load_config(bundled_config_path("mm_infty"))
        assert model.J == 1
        # a constant rate is the piecewise-constant rate with one piece
        assert model.arrival.kind == "piecewise-constant"
        assert model.arrival.segments(5.0) == [(0.0, 5.0, 1.0)]
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

    @pytest.mark.parametrize("table", ["_ARRIVAL_KINDS", "_FAMILY_KINDS", "_SERVICE_KINDS"])
    def test_kind_keys_are_the_constructor_parameters(self, table):
        # the keys are the file format: renaming a constructor's parameter
        # must fail here, not change what a config may say
        for kind, (build, keys) in getattr(config, table).items():
            assert set(inspect.signature(build).parameters) == keys, kind

    def test_batch_table_path_to_a_directory(self, tmp_path):
        # a directory where the table file should be is a missing file
        (tmp_path / "batch.csv").mkdir()
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["batch"] = {"variant": "finite-table", "path": "batch.csv"}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert err.value.failures == [
            f"batch.table: batch table file {tmp_path / 'batch.csv'} not found"]

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config_loads(self, path):
        # the readers reject unknown keys; no shipped config may carry one
        assert load_config(path).J >= 1

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

    def test_bad_batch_csv_keeps_the_other_failures(self, tmp_path):
        # the CSV reader's failure is one more collected failure, under the
        # batch.table field path, not the only one reported
        (tmp_path / "batch.csv").write_text("n_1,prob\n-1,1.0\n")
        raw = {
            "J": 1,
            "arrival": {"kind": "constant", "rate": -1.0},
            "batch": {"variant": "finite-table", "path": "batch.csv"},
            "nodes": [{"service": {"kind": "exponential", "rate": 1.0},
                       "routing": [0.0, 1.0]}],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_config(path)
        failures = err.value.failures
        assert any(f.startswith("arrival:") for f in failures)
        assert any(f.startswith("batch.table:") and "negative or non-finite" in f
                   for f in failures)

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

    def test_lattice_json_without_queues(self):
        doc = LatticePMF(1, 2, np.full(3, 0.25)).to_json_dict()
        doc.update(J=0, entries=[[0.25], [0.25]])
        with pytest.raises(ValidationError, match="J >= 1"):
            LatticePMF.from_json_dict(doc)

    def test_lattice_json_negative_cap(self):
        doc = LatticePMF(2, 0, np.array([0.5])).to_json_dict()
        doc["cap"] = -1
        with pytest.raises(ValidationError, match="cap >= 0"):
            LatticePMF.from_json_dict(doc)

    @pytest.mark.parametrize("J, cap", [(1.7, 2), (2, 2.9), (2.0, 2), (True, 2),
                                        (2, False), ("2", 2), (None, 2)])
    def test_lattice_json_non_integer_shape(self, J, cap):
        # int() would load J = 1.7, cap = 2.9 as J = 1, cap = 2
        doc = LatticePMF(2, 2, np.full(6, 0.125)).to_json_dict()
        doc.update(J=J, cap=cap)
        with pytest.raises(ValidationError, match="integers J >= 1 and cap >= 0"):
            LatticePMF.from_json_dict(doc)

    @pytest.mark.parametrize("count", [1.5, 1.0, True, "1", None])
    def test_lattice_json_non_integer_occupancy(self, count):
        # [1.5, 0, p] would be truncated to n = (1, 0)
        doc = LatticePMF(2, 2, np.full(6, 0.125)).to_json_dict()
        doc["entries"][1] = [count, 0, 0.125]
        with pytest.raises(ValidationError, match="counts must be integers"):
            LatticePMF.from_json_dict(doc)

    def test_lattice_json_entry_of_the_wrong_width(self):
        for entry in ([1, 0.125], [1, 0, 0, 0.125], [0.125]):
            doc = LatticePMF(2, 2, np.full(6, 0.125)).to_json_dict()
            doc["entries"][-1] = entry
            with pytest.raises(ValidationError, match="holds 3 numbers"):
                LatticePMF.from_json_dict(doc)

    def test_lattice_json_nan_entry(self):
        doc = LatticePMF(1, 2, np.full(3, 0.25)).to_json_dict()
        doc["entries"][-1] = [2, math.nan]
        with pytest.raises(ValidationError, match="NaN"):
            LatticePMF.from_json_dict(doc)

    @pytest.mark.parametrize("tail", [math.nan, math.inf])
    def test_lattice_json_non_finite_tail_mass(self, tail):
        doc = LatticePMF(1, 2, np.full(3, 0.25)).to_json_dict()
        doc["tail_mass"] = tail
        with pytest.raises(ValidationError, match="tail mass"):
            LatticePMF.from_json_dict(doc)

    @pytest.mark.parametrize("entry, tail, message", [
        ([1, 0, "0.125"], 0.25, "must be numbers"),
        ([1, 0, 0.125], True, "must be numbers"),
        ([0, 0, 0.125], 0.25, r"vector \(0, 0\) appears twice"),
    ], ids=["string-probability", "boolean-tail", "vector-twice"])
    def test_lattice_json_entries_are_numbers_once(self, entry, tail, message):
        # float() would load "0.125" and true; a repeated vector kept its last entry
        doc = LatticePMF(2, 2, np.full(6, 0.125)).to_json_dict()
        doc["entries"][1] = entry
        doc["tail_mass"] = tail
        with pytest.raises(ValidationError, match=message):
            LatticePMF.from_json_dict(doc)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            read_occupancy_csv(path)


NAN = math.nan
ZERO_PROB = ["zero-prob", "--t", "1"]


def _family(**law):
    """A one-queue batch whose size has the univariate ``law``."""
    return "batch", {"variant": "iid-assignment", "entry_probs": [1.0], "family": law}, ZERO_PROB


def _service(**service):
    """A single node with the given service law."""
    return "nodes", [{"service": service, "routing": [0.0, 1.0]}], ZERO_PROB


def _sinusoid(**params):
    """A sinusoidal arrival rate with ``params`` overriding 1 + 0.5 sin(t)."""
    rate = {"kind": "sinusoidal", "base": 1.0, "amplitude": 0.5, "frequency": 1.0,
            "phase": 0.0}
    return "arrival", {**rate, **params}, ZERO_PROB


_CERTIFIED = ('"exponential_two_sided_tail":true,"exponential_upper_tail":true,'
              '"finite_network_time":true,"spectral_radius_routing":0.0')
ERGODICITY_STDOUT = {
    "mm_infty": ('{"criterion":"finite-mean-batch","diagnostics":{"delta":1.0,'
                 '"ew_horizon":64.0,' + _CERTIFIED + '},'
                 '"expected_batch_time":1.0000000000005942,"verdict":"ergodic"}'),
    "zeta_batch": ('{"criterion":"log-moment","diagnostics":{"delta":1.0,'
                   '"ew_horizon":128.0,' + _CERTIFIED + '},'
                   '"expected_batch_time":2.3056800286526546,"verdict":"ergodic"}'),
    "vivax": ('{"criterion":"absorbing-reachable","diagnostics":{'
              '"exponential_two_sided_tail":false,"exponential_upper_tail":false,'
              '"finite_network_time":false,"spectral_radius_routing":0.0},'
              '"expected_batch_time":"infinity","verdict":"non-ergodic"}'),
}


class TestCli:
    def test_missing_config_exit_66(self, capsys):
        assert main(["pmf", "--config", "no-such-file.json",
                     "--t", "1"]) == 66

    def test_existing_path_beats_bundled_name(self, tmp_path, capsys, monkeypatch):
        # a file named like a bundled config, in the working directory, is read
        # instead of the bundled one: here mm_infty at twice the arrival rate
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["arrival"]["rate"] = 2.0
        (tmp_path / "mm_infty").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert _resolve_config("mm_infty") == Path("mm_infty")
        assert _resolve_config("vivax") == bundled_config_path("vivax")
        assert main(["zero-prob", "--config", "mm_infty", "--t", "1"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert value == pytest.approx(math.exp(-2.0 * (1.0 - math.exp(-1.0))), rel=1e-8)

    def test_unknown_bundled_name_exit_66(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            _resolve_config("no_such_model")
        assert main(["zero-prob", "--config", "no_such_model", "--t", "1"]) == 66
        assert "file not found: no_such_model" in capsys.readouterr().err

    def test_directory_named_like_a_bundled_config(self, tmp_path, capsys, monkeypatch):
        # a directory is not a config file: the bundled config of that name is
        # read, and a directory given as a path is a missing file
        (tmp_path / "mm_infty").mkdir()
        monkeypatch.chdir(tmp_path)
        assert _resolve_config("mm_infty") == bundled_config_path("mm_infty")
        assert main(["pmf", "--config", "mm_infty", "--t", "3", "--cap", "5",
                     "-o", "pmf.csv", "--meta", "pmf.json"]) == 0
        assert main(["zero-prob", "--config", str(tmp_path / "mm_infty"), "--t", "1"]) == 66
        assert "file not found" in capsys.readouterr().err

    def test_tabulated_kernel_path_to_a_directory_exit_66(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kernel.csv").mkdir()
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        del raw["nodes"]
        raw["kernel"] = {"representation": "tabulated", "path": "kernel.csv"}
        (tmp_path / "model.json").write_text(json.dumps(raw))
        assert main(["zero-prob", "--config", "model.json", "--t", "1"]) == 66
        assert "file not found" in capsys.readouterr().err

    def test_compare_with_a_directory_exit_66(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["pmf", "--config", "mm_infty", "--t", "1", "-o", "a.csv", "--meta", "a.json"])
        (tmp_path / "b.csv").mkdir()
        assert main(["compare", "a.csv", "b.csv", "--tol", "0.1"]) == 66
        assert "file not found: b.csv" in capsys.readouterr().err

    def test_main_calls_share_one_parser(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        for t in ("1", "2"):
            assert main(["zero-prob", "--config", "mm_infty", "--t", t]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_failed_parse_and_help_leave_the_parser_as_built(self, tmp_path, capsys,
                                                             monkeypatch):
        argv = ["pmf", "--config", "mm_infty", "--t", "3", "--cap", "6",
                "-o", "pmf.csv", "--meta", "pmf.json"]
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        fresh.mkdir()
        here.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-m", "bqnet.cli", *argv], cwd=fresh,
                              env=env, capture_output=True, text=True, check=True)
        monkeypatch.chdir(here)
        for bad, code in ((["pmf"], 2), (["--help"], 0), (["pmf", "--help"], 0),
                          (["pmf", "--config", "mm_infty", "--t", "x"], 2)):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == code
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == proc.stdout
        for name in ("pmf.csv", "pmf.json"):
            assert (here / name).read_bytes() == (fresh / name).read_bytes()

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

    @pytest.mark.parametrize("table", [
        # a JSON string is not a number, in either form; an object's keys are
        # strings, as every JSON key is, and must spell the integers n
        [["1", "0.5"], [2, "0.5"]],
        {"1": "0.5", "2": 0.5},
        {"1.0": 1.0},
        {" 1": 1.0},
        {"-1": 1.0},
        [[1, 0.5, 0.5]],
        5,
    ])
    @pytest.mark.parametrize("where", ["family", "marginals"])
    def test_family_table_entries_are_numbers_exit_2(self, tmp_path, capsys, table, where):
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        law = {"name": "finite-table", "table": table}
        raw["batch"] = ({"variant": "iid-assignment", "entry_probs": [1.0], "family": law}
                        if where == "family" else
                        {"variant": "independent-marginals", "marginals": [law]})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert main(["zero-prob", "--config", str(path), "--t", "1"]) == 2
        field = "batch.family.table" if where == "family" else "batch.marginals[0].table"
        assert f"{field}: expected [n, p] pairs of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("block, value, field, message", [
        ("nodes", [{"service": {"kind": "exponential", "rate": 1.0},
                    "routing": ["0", "1"]}], "nodes[0].routing", "every entry must be a number"),
        ("batch", {"variant": "iid-assignment", "entry_probs": ["1"],
                   "family": {"name": "poisson", "mean": 1.0}},
         "batch.entry_probs", "every entry must be a number"),
        *[(*_sinusoid(**{key: value})[:2], "arrival",
           "sinusoidal base, amplitude, frequency and phase must be numbers")
          for key, value in [("base", "1"), ("amplitude", "0.5"), ("frequency", "1"),
                             ("phase", "0")]],
        (*_service(kind="tabulated", times=["0", "1"], values=[0.0, 1.0])[:2],
         "nodes[0].service", "tabulated CDF times and values must be numbers"),
        (*_service(kind="tabulated", times=[0.0, 1.0], values=["0", "1"])[:2],
         "nodes[0].service", "tabulated CDF times and values must be numbers"),
    ], ids=["routing", "entry_probs", "sinusoidal-base", "sinusoidal-amplitude",
            "sinusoidal-frequency", "sinusoidal-phase", "tabulated-times",
            "tabulated-values"])
    def test_string_numbers_exit_2(self, tmp_path, capsys, block, value, field, message):
        # float() and np.asarray(..., dtype=float) would read "1" as 1.0
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw[block] = value
        with pytest.raises(ValidationError) as err:
            config.parse_config(raw)
        assert err.value.failures == [f"{field}: {message}"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert main(ZERO_PROB + ["--config", str(path)]) == 2

    @pytest.mark.parametrize("batch, field", [
        ({"variant": "finite-table", "table": [["1", 1.0]]}, "batch.table[0]"),
        ({"variant": "finite-table", "table": [[1, 0.5], [2, "0.5"]]}, "batch.table[1]"),
        ({"variant": "finite-table", "table": [[1, None]]}, "batch.table[0]"),
        ({"variant": "constant", "vector": ["1"]}, "batch.vector"),
        ({"variant": "constant", "vector": [None]}, "batch.vector"),
    ], ids=["table-size", "table-prob", "table-null", "vector-string", "vector-null"])
    def test_batch_row_entries_are_numbers_exit_2(self, batch, field):
        # not a Python comparison error under the block path
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["batch"] = batch
        with pytest.raises(ValidationError) as err:
            config.parse_config(raw)
        assert err.value.failures == [f"{field}: every entry must be a number"]

    def test_family_table_failure_keeps_the_blocks_other_failures(self):
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["batch"] = {"variant": "iid-assignment", "entry_probs": [1.0],
                        "family": {"name": "finite-table", "table": [["1", 1.0]], "foo": 1}}
        with pytest.raises(ValidationError) as err:
            config.parse_config(raw)
        assert [f.split(":")[0] for f in err.value.failures] == ["batch.family.table",
                                                                 "batch.family"]
        assert "unexpected keys ['foo']" in err.value.failures[1]

    @pytest.mark.parametrize("table", [{"1": 0.25, "02": 0.75}, [[1, 0.25], [2.0, 0.75]]])
    def test_family_table_of_numbers_loads(self, table):
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["batch"] = {"variant": "iid-assignment", "entry_probs": [1.0],
                        "family": {"name": "finite-table", "table": table}}
        law = config.parse_config(raw).batch.law
        assert law.support.tolist() == [1, 2] and law.probs.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("batch", [
        {"variant": "finite-table", "table": [[10 ** 400, 1.0]]},
        {"variant": "iid-assignment", "entry_probs": [1.0],
         "family": {"name": "finite-table", "table": [[10 ** 400, 1.0]]}},
    ])
    def test_support_point_past_every_float_exit_2(self, tmp_path, capsys, batch):
        # an integer too large for a float is refused by its bound, before
        # any conversion to float can overflow
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["batch"] = batch
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert main(["zero-prob", "--config", str(path), "--t", "1"]) == 2
        assert "up to 2^62" in capsys.readouterr().err

    @pytest.mark.parametrize("block, value, field", [
        (*_service(kind="exponential", rate=10 ** 400)[:2], "nodes[0].service"),
        (*_service(kind="erlang", shape=10 ** 400, rate=1.0)[:2], "nodes[0].service"),
        (*_service(kind="deterministic", duration=10 ** 400)[:2], "nodes[0].service"),
        ("nodes", [{"service": {"kind": "exponential", "rate": 1.0},
                    "routing": [10 ** 400, 1.0]}], "nodes[0].routing"),
        (*_family(name="poisson", mean=10 ** 400)[:2], "batch.family"),
        (*_family(name="binomial", count=10 ** 400, prob=0.5)[:2], "batch.family"),
        (*_family(name="zeta", exponent=10 ** 400)[:2], "batch.family"),
        (*_family(name="finite-table", table=[[1, 10 ** 400]])[:2], "batch.family"),
        ("batch", {"variant": "finite-table", "table": [[1, 10 ** 400]]}, "batch"),
        ("analysis", {"rtol": 10 ** 400}, "analysis"),
    ], ids=["rate", "erlang-shape", "duration", "routing", "poisson-mean",
            "binomial-count", "zeta-exponent", "family-table-prob", "batch-table-prob",
            "analysis-rtol"])
    def test_number_past_every_float_exit_2(self, tmp_path, capsys, block, value, field):
        # a 401-digit integer is a JSON number that float() cannot convert
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw[block] = value
        with pytest.raises(ValidationError) as err:
            config.parse_config(raw)
        assert [f.split(":")[0] for f in err.value.failures] == [field]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert main(ZERO_PROB + ["--config", str(path)]) == 2
        assert f"{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("batch", [
        # NaN compares false both with 0 and with a sum tolerance
        {"variant": "finite-table", "table": [[1, math.nan]]},
        {"variant": "iid-assignment", "entry_probs": [1.0],
         "family": {"name": "finite-table", "table": [[1, math.nan]]}},
        {"variant": "iid-assignment", "entry_probs": [math.nan],
         "family": {"name": "poisson", "mean": 2.0}},
    ])
    def test_nan_probability_exit_2(self, tmp_path, capsys, batch):
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw["batch"] = batch
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert "NaN" in path.read_text()
        assert main(["zero-prob", "--config", str(path), "--t", "1"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("block, value, command", [
        _family(name="poisson", mean=NAN),
        _family(name="poisson", mean=math.inf),
        _family(name="negative-binomial", shape=NAN, scale=1.0),
        _family(name="negative-binomial", shape=1.0, scale=NAN),
        _family(name="zeta", exponent=NAN),
        _service(kind="exponential", rate=NAN),
        _service(kind="erlang", shape=2, rate=NAN),
        _service(kind="deterministic", duration=NAN),
        _service(kind="tabulated", times=[0.0, NAN], values=[0.0, 1.0]),
        _service(kind="tabulated", times=[0.0, 1.0], values=[0.0, NAN]),
        ("nodes", [{"service": {"kind": "exponential", "rate": 1.0},
                    "routing": [NAN, 1.0]}], ZERO_PROB),
        ("arrival", {"kind": "constant", "rate": NAN}, ZERO_PROB),
        ("arrival", {"kind": "constant", "rate": math.inf}, ZERO_PROB),
        ("arrival", {"kind": "piecewise-constant", "breakpoints": [0.0, NAN],
                     "rates": [1.0, 1.0]}, ZERO_PROB),
        ("arrival", {"kind": "piecewise-constant", "breakpoints": [0.0, 1.0],
                     "rates": [1.0, NAN]}, ZERO_PROB),
        _sinusoid(base=NAN, amplitude=0.0),
        _sinusoid(amplitude=NAN),
        _sinusoid(frequency=NAN),
        _sinusoid(phase=NAN),
        ("analysis", {"rtol": NAN}, ZERO_PROB),
        ("kernel", {"representation": "renewal-grid", "end": NAN}, ZERO_PROB),
        (None, None, ["zero-prob", "--t", "nan"]),
        (None, None, ["zero-prob", "--t", "inf"]),
        (None, None, ["pgf", "--t", "1", "--z", "nan"]),
        # batch sizes beyond the int64 tallies
        _family(name="degenerate", value=1e30),
        ("batch", {"variant": "constant", "vector": [1e30]}, ZERO_PROB),
        # a rate that is not a number
        ("arrival", {"kind": "constant", "rate": "2"}, ZERO_PROB),
        # kernel blocks: keys per representation, a numeric grid end and an
        # odd integer node count (appended, so earlier case ids keep their index)
        ("kernel", {"representation": "renewal-grid", "end": "x"}, ZERO_PROB),
        ("kernel", {"representation": "renewal-grid", "end": True}, ZERO_PROB),
        ("kernel", {"representation": "renewal-grid", "nodes": NAN}, ZERO_PROB),
        ("kernel", {"representation": "renewal-grid", "nodes": "abc"}, ZERO_PROB),
        ("kernel", {"representation": "renewal-grid", "nodes": 1025.5}, ZERO_PROB),
        ("kernel", {"representation": "renewal-grid", "nodez": 5}, ZERO_PROB),
        ("kernel", {"representation": "markov-uniformization", "nodes": 1025}, ZERO_PROB),
        ("kernel", {"representation": "tabulated", "path": 5}, ZERO_PROB),
        # an unknown key in the batch block
        ("batch", {"variant": "iid-assignment", "entry_probs": [1.0],
                   "family": {"name": "poisson", "mean": 1.0}, "famly": 1}, ZERO_PROB),
        # the analysis block: an object of integer cap and seed and numeric
        # rtol, with no other key; and no unknown key at the root
        ("analysis", [1], ZERO_PROB),
        ("analysis", {"cap": 2.7}, ZERO_PROB),
        ("analysis", {"cap": True}, ZERO_PROB),
        ("analysis", {"cap": "2"}, ZERO_PROB),
        ("analysis", {"seed": 1.5}, ZERO_PROB),
        ("analysis", {"rtol": "1e-8"}, ZERO_PROB),
        ("analysis", {"rtoll": 1e-8}, ZERO_PROB),
        ("anaysis", {"cap": 5}, ZERO_PROB),
        # a --z that is not numbers
        (None, None, ["pgf", "--t", "1", "--z", "abc"]),
        # an object takes its own keys and _note; no value is a boolean
        ("name", "mm", ZERO_PROB),
        ("variant", 3, ZERO_PROB),
        ("J", True, ZERO_PROB),
        ("arrival", {"kind": "constant", "rate": 1.0, "variant": 3}, ZERO_PROB),
        ("batch", {"variant": "constant", "vector": [1], "kind": "constant"}, ZERO_PROB),
        ("kernel", {"representation": "markov-uniformization", "variant": 3}, ZERO_PROB),
        ("nodes", [{"service": {"kind": "exponential", "rate": 1.0},
                    "routing": [0.0, 1.0], "foo": 1}], ZERO_PROB),
        ("nodes", [{"service": {"kind": "exponential", "rate": 1.0, "name": "x"},
                    "routing": [0.0, 1.0]}], ZERO_PROB),
        ("batch", {"variant": "constant", "vector": [True]}, ZERO_PROB),
        ("nodes", [{"service": {"kind": "exponential", "rate": 1.0},
                    "routing": [False, True]}], ZERO_PROB),
        _service(kind="exponential", rate=True),
        # a batch-table path that is not a string
        ("batch", {"variant": "finite-table", "path": 5}, ZERO_PROB),
    ])
    def test_bad_numeric_parameter_exit_2(self, tmp_path, capsys, block, value, command):
        # NaN compares false with every bound, so each check must ask for
        # the value it accepts rather than reject the values it does not
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        if block is not None:
            raw[block] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert main(command + ["--config", str(path)]) == 2
        assert "validation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["constant"], {"kind": "constant"}],
                             ids=["list", "dict"])
    @pytest.mark.parametrize("block, value, message", [
        ("arrival", lambda kind: {"kind": kind, "rate": 1.0}, "unknown arrival kind"),
        ("batch", lambda kind: _family(name=kind, mean=1.0)[1], "unknown family"),
        ("nodes", lambda kind: _service(kind=kind, rate=1.0)[1], "unknown service kind"),
    ], ids=["arrival", "family", "service"])
    def test_unhashable_kind_exit_2(self, tmp_path, capsys, kind, block, value, message):
        # a kind that is not a string is an unknown kind, not a lookup crash
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        raw[block] = value(kind)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert main(ZERO_PROB + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "validation failed" in err and f"{message} {kind!r}" in err

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

    def test_pgf_argument_above_one_exit_2(self, capsys):
        assert main(["pgf", "--config", "mm_infty", "--t", "3", "--z", "1.0005"]) == 2
        assert "PGF argument entries must lie in [0, 1]" in capsys.readouterr().err
        assert main(["pgf", "--config", "mm_infty", "--t", "3", "--z", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1.0

    @pytest.mark.parametrize("flags", [[], ["--tail-alpha", "2"], ["--tail-alpha", "1.2"]],
                             ids=["no-flag", "alpha-2", "alpha-1.2"])
    @pytest.mark.parametrize("name", ["mm_infty", "zeta_batch", "vivax"])
    def test_ergodicity_stdout_is_pinned(self, capsys, name, flags):
        # the documents these models gave before the stability ladder was
        # made to compute E[W] once, byte for byte; no bundled model reaches
        # the fractional rung, so the asserted tail changes nothing
        assert main(["ergodicity", "--config", name, *flags]) == 0
        assert capsys.readouterr().out == ERGODICITY_STDOUT[name] + "\n"

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

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-0.1"),
        ("--min-expected", "0"), ("--min-expected", "-1"), ("--min-expected", "nan"),
        ("--min-expected", "inf")])
    def test_compare_bad_threshold_exit_2(self, tmp_path, capsys, monkeypatch, flag, value):
        # the analytic table gives (2,) probability 0: a z-score there would
        # divide by 0, and a non-finite tol would not serialise
        monkeypatch.chdir(tmp_path)
        write_occupancy_csv(tmp_path / "a.csv", 1, [((0,), 0.5), ((1,), 0.5), ((2,), 0.0)])
        write_occupancy_csv(tmp_path / "e.csv", 1, [((0,), 0.5, 0.05), ((1,), 0.5, 0.05)],
                            stderr=True, replications=100)
        args = {"--tol": "0.1", "--min-expected": "5", flag: value}
        assert main(["compare", "a.csv", "e.csv", *(x for kv in args.items() for x in kv)]) == 2
        assert f"{flag} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        ["n_1,prob,stderr,replications", "0,0.5,abc,10", "1,0.5,0.1,10"],
        ["n_1,prob,stderr,replications", "0,0.5,-0.1,10", "1,0.5,0.1,10"],
        ["n_1,prob", "0,0.5", "0,0.5"],
        ["n_1,prob", "-1,0.5", "0,0.5"],
    ], ids=["stderr-abc", "negative-stderr", "duplicate-vector", "negative-count"])
    def test_compare_malformed_table_exit_2(self, tmp_path, capsys, monkeypatch, lines):
        monkeypatch.chdir(tmp_path)
        write_occupancy_csv(tmp_path / "good.csv", 1, [((0,), 0.5), ((1,), 0.5)])
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        assert main(["compare", "good.csv", "bad.csv", "--tol", "0.1"]) == 2
        assert "validation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["pmf", "--t", "1"], ["zero-prob", "--t", "1"], ["moments", "--t", "1"],
        ["pgf", "--t", "1", "--z", "0.5"]], ids=lambda command: command[0])
    def test_nan_kernel_cell_exit_2_fast(self, tmp_path, capsys, monkeypatch, command):
        # a NaN kernel value must fail the kernel's checks, not stall the
        # quadrature that would otherwise run on it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kernel.csv").write_text("t,q_1_1\n0,1\n1,nan\n2,0.3\n")
        raw = json.loads(bundled_config_path("mm_infty").read_text())
        del raw["nodes"]
        raw["kernel"] = {"representation": "tabulated", "path": "kernel.csv"}
        (tmp_path / "model.json").write_text(json.dumps(raw))
        start = time.perf_counter()
        assert main(command + ["--config", "model.json"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "kernel values" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_simulate_needs_a_worker_exit_2(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", "mm_infty", "--t", "1", "--reps", "100",
                     "--workers", workers]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("alpha", ["0.5", "inf"])
    def test_ergodicity_checks_tail_alpha_first(self, capsys, alpha):
        # mm_infty's finite-mean certificate answers before the asserted
        # tail would be read; an alpha <= 1, or an infinite one, must fail
        # all the same
        assert main(["ergodicity", "--config", "mm_infty", "--tail-alpha", alpha]) == 1
        assert "alpha > 1" in capsys.readouterr().err

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
