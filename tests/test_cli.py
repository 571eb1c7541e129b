import json
import subprocess
import sys
from pathlib import Path

import pytest

from subsetsched.cli import main


def base_config(out_dir: str) -> dict:
    return {
        "num_users": 2,
        "arrival_rates": ["2/5", "2/5"],
        "channels": {
            "kind": "product",
            "per_user": [{"0": 0.5, "2": 0.5}, {"0": 0.5, "2": 0.5}],
        },
        "subsets": [[0], [1]],
        "policy": {"name": "max_queue"},
        "horizon": 5000,
        "levels": [2, 4],
        "replicas": 2,
        "seed": 777,
        "sample_stride": 1,
        "bounds": {"grid_resolution": 0.02, "multistarts": 8},
        "estimation": {"method": "direct"},
        "output_dir": out_dir,
    }


def write_config(tmp_path: Path, cfg: dict, name="cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSimulateCommand:
    def test_minimal_run_summary(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        cfg["num_users"] = 1
        cfg["arrival_rates"] = ["1/2"]
        cfg["channels"] = {"kind": "product", "per_user": [{"0": 0.5, "2": 0.5}]}
        cfg["subsets"] = [[0]]
        rc = main(["simulate", str(write_config(tmp_path, cfg))])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
        assert summary["peak"] >= 0
        assert summary["meta"]["seed"] == 777
        assert len(summary["meta"]["config_hash"]) == 64

    def test_bad_subset_index_exits_2(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["subsets"] = [[0], [9]]
        rc = main(["simulate", str(write_config(tmp_path, cfg))])
        captured = capsys.readouterr()
        assert rc == 2
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "config"
        assert "out of range" in err["message"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        path = write_config(tmp_path, cfg)
        assert main(["simulate", str(path)]) == 0
        first = (tmp_path / "out" / "run_summary.json").read_bytes()
        assert main(["simulate", str(path)]) == 0
        second = (tmp_path / "out" / "run_summary.json").read_bytes()
        assert first == second

    def test_trace_csv_roundtrip(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        cfg["horizon"] = 200
        cfg["record_trace"] = True
        rc = main(["simulate", str(write_config(tmp_path, cfg))])
        assert rc == 0
        lines = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "k,subset,substate,user,q0,q1"
        assert len(lines) == 202

    def test_output_dir_override(self, tmp_path):
        cfg = base_config(str(tmp_path / "ignored"))
        rc = main([
            "simulate", str(write_config(tmp_path, cfg)),
            "--output-dir", str(tmp_path / "explicit"),
        ])
        assert rc == 0
        assert (tmp_path / "explicit" / "run_summary.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestBoundsCommand:
    def test_reference_report(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        rc = main(["bounds", str(write_config(tmp_path, cfg))])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "exponent_report.json").read_text())
        assert rep["gap"] < 1e-2
        assert rep["jstar"] > 0
        assert rep["meta"]["config_hash"]

    def test_unstable_errors(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["arrival_rates"] = ["3/5", "3/5"]
        rc = main(["bounds", str(write_config(tmp_path, cfg))])
        captured = capsys.readouterr()
        assert rc == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "unstable arrival vector"

    def test_policy_name_does_not_change_bounds(self, tmp_path):
        # a singleton system under max_exp is the same instance: identical
        # exponent fields
        cfg = base_config(str(tmp_path / "a"))
        assert main(["bounds", str(write_config(tmp_path, cfg, "a.json"))]) == 0
        cfg2 = base_config(str(tmp_path / "b"))
        cfg2["policy"] = {"name": "max_exp"}
        assert main(["bounds", str(write_config(tmp_path, cfg2, "b.json"))]) == 0
        ra = json.loads((tmp_path / "a" / "exponent_report.json").read_text())
        rb = json.loads((tmp_path / "b" / "exponent_report.json").read_text())
        assert ra["jstar"] == rb["jstar"]
        assert ra["ub_min"] == rb["ub_min"]


class TestExponentCommand:
    def test_csv_fit_and_comparison(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        cfg["horizon"] = 60_000
        cfg["replicas"] = 4
        cfg["levels"] = [2, 3, 4, 5]
        rc = main(["exponent", str(write_config(tmp_path, cfg)), "--workers", "2"])
        assert rc == 0
        rows = (tmp_path / "out" / "overflow_estimates.csv").read_text().strip().splitlines()
        assert rows[0].startswith("# config_hash=")
        assert rows[1].startswith("level,p_hat,ci_lo,ci_hi")
        assert len(rows) == 6
        fit = json.loads((tmp_path / "out" / "exponent_fit.json").read_text())
        assert fit["comparison"]["predicted_exponent"] > 0
        assert fit["fit"]["exponent"] > 0

    def test_too_deep_levels_flagged_and_excluded(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        cfg["horizon"] = 20_000
        cfg["replicas"] = 2
        cfg["levels"] = [2, 3, 4, 400]
        rc = main(["exponent", str(write_config(tmp_path, cfg))])
        assert rc == 0
        rows = (tmp_path / "out" / "overflow_estimates.csv").read_text().strip().splitlines()
        deep = [r for r in rows[2:] if r.startswith("400,")]
        assert deep and "level_too_deep_for_direct_mc" in deep[0]
        fit = json.loads((tmp_path / "out" / "exponent_fit.json").read_text())
        assert 400 not in fit["fit"]["levels"]

    def test_needs_levels(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["levels"] = []
        rc = main(["exponent", str(write_config(tmp_path, cfg))])
        capsys.readouterr()
        assert rc == 2


class TestConfigValidation:
    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"num_users": 2}))
        assert main(["simulate", str(path)]) == 2
        capsys.readouterr()

    def test_bad_probabilities(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["channels"]["per_user"][0] = {"0": 0.5, "2": 0.6}
        assert main(["simulate", str(write_config(tmp_path, cfg))]) == 2
        capsys.readouterr()

    def test_uncovered_positive_arrival_user(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["subsets"] = [[0]]
        assert main(["simulate", str(write_config(tmp_path, cfg))]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("key,value", [("cycles", 0), ("is_horizon", -3)])
    def test_empty_importance_runs(self, tmp_path, capsys, key, value):
        cfg = base_config(str(tmp_path / "out"))
        cfg["estimation"] = {"method": "importance", key: value}
        assert main(["exponent", str(write_config(tmp_path, cfg))]) == 2
        assert f"estimation.{key}" in capsys.readouterr().err

    def test_not_json(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2
        capsys.readouterr()


def test_env_output_dir_override(tmp_path, monkeypatch):
    cfg = base_config(str(tmp_path / "ignored"))
    monkeypatch.setenv("SUBSETSCHED_OUTPUT_DIR", str(tmp_path / "via_env"))
    assert main(["simulate", str(write_config(tmp_path, cfg))]) == 0
    assert (tmp_path / "via_env" / "run_summary.json").exists()


def test_console_script_entrypoint(tmp_path):
    cfg = base_config(str(tmp_path / "out"))
    cfg_path = write_config(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "subsetsched.cli", "simulate", str(cfg_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "run_summary.json").exists()


def test_bounds_general_disjoint_subsets(tmp_path):
    cfg = base_config(str(tmp_path / "out"))
    cfg["subsets"] = [[0, 1]]
    cfg["policy"] = {"name": "max_exp"}
    rc = main(["bounds", str(write_config(tmp_path, cfg))])
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "exponent_report.json").read_text())
    assert rep["method"] == "subset_upper_bound"
    assert rep["jstar"] > 0
    assert rep["diagnostics"]["lambda_max_dominated"] is True


def test_selftest_passes(capsys):
    # the built-in oracle battery behind `subsetsched selftest`
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_simulate_many_user_product_channels(tmp_path):
    # 24 independent users: their 2^24 joint states are never built
    cfg = base_config(str(tmp_path / "out"))
    cfg["num_users"] = 24
    cfg["arrival_rates"] = ["1/50"] * 24
    cfg["channels"] = {"kind": "product", "per_user": [{"0": 0.5, "2": 0.5}] * 24}
    cfg["subsets"] = [[2 * i, 2 * i + 1] for i in range(12)]
    cfg["policy"] = {"name": "max_exp"}
    cfg["horizon"] = 2000
    cfg["replicas"] = 1
    assert main(["simulate", str(write_config(tmp_path, cfg))]) == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["peak"] >= 0
