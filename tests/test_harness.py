"""Experiment harness and CLI tests.

These run the real subcommands end to end against tiny problems, asserting on
exit codes, file schemas, and byte-level reproducibility of the outputs.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradnoise import bounds, dynamics, harness, problems
from gradnoise.dynamics import TrainConfig
from gradnoise.errors import ConfigError, GradnoiseError
from gradnoise.harness import (
    SWEEP_BOUNDS,
    TERMINAL_BOUNDS,
    TRAJ_BOUNDS,
    TRAJECTORY_CSV_HEADER,
    cmd_bounds_terminal,
    cmd_bounds_traj,
    cmd_compare,
    cmd_stationary,
    cmd_sweep_n,
    cmd_train,
    estimate_generalization_error,
    load_experiment_config,
    run_cli,
)
from test_bounds import make_record, quad_config


def quad_raw(**train_overrides):
    train = {"n": 8, "b": 2, "lr": 0.1, "steps": 40, "log_every": 10}
    train.update(train_overrides)
    return {
        "problem": {"family": "quadratic", "dim": 2, "curvature": 1.0,
                    "scatter": 1.0, "pop_oracle_size": 300},
        "train": train,
    }


# Optional train keys -> valid values next to n=8, b=2, steps=40 and a 2-d
# problem: the tail checkpoints reach back at most 20 steps, past burn_in <= 5.
OPTIONAL_TRAIN = {
    "mode": st.sampled_from(["sgd", "sde", "gld"]),
    "dataset_seed": st.integers(0, 2**32),
    "log_every": st.integers(1, 50),
    "record_weights": st.booleans(),
    "burn_in": st.integers(0, 5),
    "w0": st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
    "tail_checkpoints": st.integers(0, 5),
    "tail_spacing": st.integers(1, 5),
    "log_lambda1": st.booleans(),
}


# A 2 x 2 SGD grid at eta just past 2 / lambda_max: at seed 0 one run
# (dataset 0, seed 1) diverges at step T = 280 and the others finish; at
# seed 9 two runs diverge.
MIXED_DIVERGENCE = {
    "problem": {"family": "quadratic", "dim": 2, "curvature": 1.0,
                "scatter": 1.0, "pop_oracle_size": 300},
    "train": {"n": 20, "b": 2, "lr": 2.045, "steps": 280, "log_every": 10},
    "ensemble": {"dataset_seeds": 2, "run_seeds": 2},
    "seed": 0,
}


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def write_text(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return path


class TestConfigLoading:
    def test_dict_and_file_sources_agree(self, tmp_path):
        raw = quad_raw()
        from_dict = load_experiment_config(raw)
        from_file = load_experiment_config(write_config(tmp_path, raw))
        for cfg in (from_dict, from_file):
            assert cfg.train.n == 8
            assert cfg.train.b == 2
            assert cfg.train.lr_schedule == ((1, 0.1),)
            assert cfg.train.log_every == 10
            np.testing.assert_array_equal(cfg.train.spec.curvature, np.eye(2))
        assert from_dict.out_dir == from_file.out_dir == "."

    @settings(max_examples=60, deadline=None)
    @given(given_keys=st.fixed_dictionaries({}, optional=OPTIONAL_TRAIN))
    def test_train_section_round_trips(self, tmp_path_factory, given_keys):
        raw = {**quad_raw(), "train": {"n": 8, "b": 2, "lr": 0.1, "steps": 40,
                                       **given_keys}}
        from_dict = load_experiment_config(raw)
        from_file = load_experiment_config(
            write_config(tmp_path_factory.mktemp("cfg"), raw))
        for a, b in ((from_dict, from_file), (from_dict.train.spec, from_file.train.spec),
                     (from_dict.train, from_file.train)):
            for field in dataclasses.fields(a):
                if field.name not in ("spec", "train"):
                    np.testing.assert_array_equal(getattr(a, field.name),
                                                  getattr(b, field.name))
        defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        for key in OPTIONAL_TRAIN:
            expected = given_keys.get(key, defaults[key])
            np.testing.assert_array_equal(getattr(from_dict.train, key), expected)

    def test_all_unknown_keys_reported_at_once(self):
        raw = quad_raw()
        raw["problem"]["curvatur"] = 2.0
        raw["train"]["lr_scheduel"] = [[1, 0.1]]
        raw["extra_section"] = {}
        with pytest.raises(ConfigError) as err:
            load_experiment_config(raw)
        msg = str(err.value)
        assert "problem.curvatur" in msg
        assert "train.lr_scheduel" in msg
        assert "extra_section" in msg

    @settings(max_examples=60, deadline=None)
    @given(extra=st.fixed_dictionaries({
        section: st.sets(st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
                         max_size=3)
        for section in ("", "train", "ensemble", "problem")}))
    def test_unknown_keys_named_exactly(self, extra):
        raw = quad_raw()
        raw["ensemble"] = {"dataset_seeds": 2}
        allowed = {
            "": {"problem", "train", "bounds", "ensemble", "sweep_n", "seed",
                 "oracle_seed", "out_dir", "g_tilde", "R", "M",
                 "compare_seeds"},
            "train": {"n", "b", "lr", "lr_schedule", "steps", "mode",
                      "log_every", "record_weights", "burn_in", "w0",
                      "dataset_seed", "tail_checkpoints", "tail_spacing",
                      "log_lambda1"},
            "ensemble": {"dataset_seeds", "run_seeds"},
            "problem": {"family", "dim", "curvature", "center", "scatter",
                        "pop_oracle_size"},
        }
        expected = []
        for section, keys in extra.items():
            target = raw[section] if section else raw
            for key in keys - allowed[section]:
                target[key] = None
                expected.append(f"{section}.{key}" if section else key)
        assume(expected)
        with pytest.raises(ConfigError) as err:
            load_experiment_config(raw)
        assert str(err.value) == "unknown config keys: " + ", ".join(sorted(expected))

    @pytest.mark.parametrize("dotted, value", [
        pytest.param(dotted, value, id=dotted) for dotted, value in (
            ("train.log_alignment", True), ("train.cov_refresh", 10),
            ("train.init_scale", 2.0),
            ("stationary", {"modes": ["small-lr"], "b": 2}),
            ("reference", "init"))])
    def test_removed_key_rejected(self, dotted, value):
        *section, key = dotted.split(".")
        raw = quad_raw()
        target = raw[section[0]] if section else raw
        target[key] = value
        with pytest.raises(ConfigError,
                           match=f"^unknown config keys: {dotted}$"):
            load_experiment_config(raw)

    def test_exactly_one_learning_rate_spelling(self):
        raw = quad_raw()
        raw["train"]["lr_schedule"] = [[1, 0.1]]
        with pytest.raises(ConfigError):
            load_experiment_config(raw)
        del raw["train"]["lr"]
        cfg = load_experiment_config(raw)
        assert cfg.train.lr_schedule == ((1, 0.1),)
        del raw["train"]["lr_schedule"]
        with pytest.raises(ConfigError):
            load_experiment_config(raw)

    def test_unknown_bound_names_rejected(self):
        raw = quad_raw()
        raw["bounds"] = ["terminal-general", "pac-bayes-flat"]
        with pytest.raises(ConfigError, match="pac-bayes-flat"):
            load_experiment_config(raw)

    def test_g_tilde_and_reference_validated(self):
        raw = quad_raw()
        raw["g_tilde"] = "full-batch"
        with pytest.raises(ConfigError):
            load_experiment_config(raw)
        raw = quad_raw()
        raw["reference"] = "median"
        with pytest.raises(ConfigError):
            load_experiment_config(raw)

    def test_seed_override_reaches_train_config(self):
        cfg = load_experiment_config(quad_raw(), seed_override=7)
        assert "seed" not in {f.name for f in dataclasses.fields(cfg)}
        assert cfg.train.seed == 7

    def test_logistic_separation_shorthand(self):
        raw = {
            "problem": {"family": "logistic", "dim": 4, "separation": 2.0},
            "train": {"n": 10, "b": 2, "lr": 0.1, "steps": 5},
        }
        cfg = load_experiment_config(raw)
        gap = cfg.train.spec.mean1 - cfg.train.spec.mean0
        assert np.linalg.norm(gap) == pytest.approx(2.0)

    def test_train_constraints_are_config_errors(self):
        raw = quad_raw(b=20)  # larger than n
        with pytest.raises(ConfigError):
            load_experiment_config(raw)


class TestFormatting:
    def test_float_formatting_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8, 50):
            assert float(harness._fmt(float(x))) == x

    def test_integers_stay_integers(self):
        assert harness._fmt(7) == "7"
        assert harness._fmt(np.int64(-3)) == "-3"


class TestTrainCommand:
    def test_trajectory_csv_schema(self, tmp_path):
        cfg = load_experiment_config(quad_raw())
        payload, record = cmd_train(cfg, out_dir=tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRAJECTORY_CSV_HEADER)
        assert len(lines) == 1 + 40 // 10 + 1  # header + logged states
        assert payload["rows"] == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == record.train_loss[0]

    def test_every_row_has_a_finite_test_loss(self, tmp_path):
        """A train run evaluates the oracle loss at every logged state; only
        ensembles skip it before T."""
        cfg = load_experiment_config(quad_raw(log_every=5))
        _, record = cmd_train(cfg, out_dir=tmp_path)
        assert len(record.test_loss) == 40 // 5 + 1
        assert np.isfinite(record.test_loss).all()
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert all(np.isfinite(float(row.split(",")[2])) for row in rows)

    def test_weights_json_written_when_recorded(self, tmp_path):
        raw = quad_raw(record_weights=True)
        cfg = load_experiment_config(raw)
        cmd_train(cfg, out_dir=tmp_path)
        data = json.loads((tmp_path / "weights.json").read_text())
        assert len(data["weights"]) == len(data["steps"])
        assert data["weights"][0] != data["final_w"]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = load_experiment_config(quad_raw())
        cmd_train(cfg, out_dir=tmp_path / "a")
        cmd_train(cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_cli_train_exit_codes(self, tmp_path):
        path = write_config(tmp_path, quad_raw())
        out = tmp_path / "out"
        assert run_cli(["train", "--config", str(path),
                        "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()

    def test_cli_reports_divergence(self, tmp_path, capsys):
        path = write_config(tmp_path, quad_raw(lr=2.5, steps=200))
        code = run_cli(["train", "--config", str(path),
                        "--out", str(tmp_path / "div")])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    def test_cli_reports_divergence_at_step_0(self, tmp_path, capsys):
        """w0 = (1e7, 1e7) puts the initial training loss past the
        divergence threshold: the run stops at step 0, logging no row, and
        the command exits 3 like any diverged run."""
        path = write_config(tmp_path, quad_raw(n=20, b=20, lr=0.5, steps=60,
                                               w0=[1e7, 1e7]))
        out = tmp_path / "div"
        assert run_cli(["train", "--config", str(path), "--out", str(out)]) == 3
        assert "diverged at step 0" in capsys.readouterr().err
        assert (out / "trajectory.csv").read_text().splitlines() == [
            ",".join(TRAJECTORY_CSV_HEADER)]

    def test_cli_config_error_exit_code(self, tmp_path, capsys):
        raw = quad_raw()
        raw["train"]["learning_rate"] = 0.1
        path = write_config(tmp_path, raw)
        assert run_cli(["train", "--config", str(path)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key, raw", [
        pytest.param("train.n", {**quad_raw(), "train": {
            "b": 2, "lr": 0.1, "steps": 5}}, id="train.n"),
        pytest.param("train.steps", {**quad_raw(), "train": {
            "n": 8, "b": 2, "lr": 0.1}}, id="train.steps"),
        pytest.param("problem.dim", {**quad_raw(), "problem": {
            "family": "logistic"}}, id="problem.dim"),
        pytest.param("problem.hidden", {**quad_raw(), "problem": {
            "family": "mlp", "in_dim": 3, "classes": 2}}, id="problem.hidden"),
        pytest.param("train.lr", quad_raw(lr="fast"), id="train.lr"),
        pytest.param("train.lr_schedule", {**quad_raw(), "train": {
            "n": 8, "b": 2, "steps": 5, "lr_schedule": [1, 0.1]}},
            id="train.lr_schedule"),
        pytest.param("bounds", {**quad_raw(), "bounds": "terminal-general"},
                     id="bounds"),
        pytest.param("train", {**quad_raw(), "train": 5}, id="train"),
        pytest.param("problem.center", {**quad_raw(), "problem": {
            **quad_raw()["problem"], "center": "abc"}}, id="problem.center"),
        pytest.param("problem.curvature", {**quad_raw(), "problem": {
            **quad_raw()["problem"], "curvature": "x"}}, id="problem.curvature"),
        pytest.param("train.w0", quad_raw(w0="abc"), id="train.w0"),
        pytest.param("train.record_weights", quad_raw(record_weights="false"),
                     id="train.record_weights"),
        pytest.param("train.log_lambda1", quad_raw(log_lambda1=1),
                     id="train.log_lambda1"),
        pytest.param("train.mode", quad_raw(mode="langevin"), id="train.mode"),
        pytest.param("problem.dim", {**quad_raw(), "problem": {
            **quad_raw()["problem"], "dim": 0}}, id="problem.dim-quadratic-0"),
        pytest.param("problem.dim", {**quad_raw(), "problem": {
            **quad_raw()["problem"], "dim": -1}}, id="problem.dim-quadratic-neg"),
        pytest.param("problem.dim", {**quad_raw(), "problem": {
            "family": "logistic", "dim": 0}}, id="problem.dim-logistic-0"),
        pytest.param("train.lr", quad_raw(lr=float("nan")), id="lr-nan"),
        pytest.param("train.lr", quad_raw(lr="inf"), id="lr-inf"),
        pytest.param("train.lr", quad_raw(lr=0), id="lr-0"),
        pytest.param("train.lr_schedule", {**quad_raw(), "train": {
            "n": 8, "b": 2, "steps": 5, "lr_schedule": [[1, float("nan")]]}},
            id="lr_schedule-nan"),
        pytest.param("train.lr_schedule", {**quad_raw(), "train": {
            "n": 8, "b": 2, "steps": 5, "lr_schedule": [[1, 0.1], [3, "inf"]]}},
            id="lr_schedule-inf"),
        pytest.param("train.lr_schedule", {**quad_raw(), "train": {
            "n": 8, "b": 2, "steps": 5, "lr_schedule": [[1, 0.1], [3, -0.1]]}},
            id="lr_schedule-negative"),
        pytest.param("train.lr_schedule", {**quad_raw(), "train": {
            "n": 8, "b": 2, "steps": 5, "lr_schedule": [[1.5, 0.1]]}},
            id="lr_schedule-fractional-step"),
        pytest.param("train.n", quad_raw(n=2.7), id="train.n-fractional"),
        pytest.param("train.steps", quad_raw(steps=True), id="train.steps-true"),
        pytest.param("train.log_every", quad_raw(log_every=True),
                     id="train.log_every-true"),
        pytest.param("train.log_every", quad_raw(log_every=0),
                     id="train.log_every-0"),
        pytest.param("train.cov_refresh", quad_raw(cov_refresh=0),
                     id="train.cov_refresh-0"),
        pytest.param("train.tail_spacing", quad_raw(tail_spacing=0),
                     id="train.tail_spacing-0"),
        pytest.param("train.b", quad_raw(b=0), id="train.b-0"),
        pytest.param("train.n", quad_raw(n=0), id="train.n-0"),
        pytest.param("train.steps", quad_raw(steps=0), id="train.steps-0"),
        pytest.param("train.burn_in", quad_raw(burn_in=-1),
                     id="train.burn_in-neg"),
        pytest.param("train.tail_checkpoints", quad_raw(tail_checkpoints=-1),
                     id="train.tail_checkpoints-neg"),
        pytest.param("problem.pop_oracle_size", {**quad_raw(), "problem": {
            **quad_raw()["problem"], "pop_oracle_size": 0}},
            id="problem.pop_oracle_size-0"),
        pytest.param("problem.hidden", {**quad_raw(), "problem": {
            "family": "mlp", "in_dim": 3, "hidden": 0, "classes": 2}},
            id="problem.hidden-0"),
        pytest.param("problem.in_dim", {**quad_raw(), "problem": {
            "family": "mlp", "in_dim": 0, "hidden": 3, "classes": 2}},
            id="problem.in_dim-0"),
        pytest.param("problem.classes", {**quad_raw(), "problem": {
            "family": "mlp", "in_dim": 3, "hidden": 3, "classes": 0}},
            id="problem.classes-0"),
        pytest.param("seed", {**quad_raw(), "seed": -1}, id="seed-neg"),
        pytest.param("oracle_seed", {**quad_raw(), "oracle_seed": -1},
                     id="oracle_seed-neg"),
        pytest.param("train.dataset_seed", quad_raw(dataset_seed=-1),
                     id="train.dataset_seed-neg"),
        pytest.param("problem.teacher_seed", {**quad_raw(), "problem": {
            "family": "mlp", "in_dim": 3, "hidden": 3, "classes": 2,
            "teacher_seed": -1}}, id="problem.teacher_seed-neg"),
        pytest.param("R", {**quad_raw(), "R": "nan"}, id="R-nan"),
        pytest.param("M", {**quad_raw(), "M": "inf"}, id="M-inf"),
        pytest.param("train.init_scale", quad_raw(init_scale="nan"),
                     id="train.init_scale-nan"),
        pytest.param("problem.separation", {**quad_raw(), "problem": {
            "family": "logistic", "dim": 2, "separation": "nan"}},
            id="problem.separation-nan"),
        pytest.param("problem.l2", {**quad_raw(), "problem": {
            "family": "logistic", "dim": 2, "l2": "nan"}}, id="problem.l2-nan"),
        pytest.param("R", {**quad_raw(), "R": "2"}, id="R-numeric-string"),
        pytest.param("R", {**quad_raw(), "R": -2.0}, id="R-neg"),
        pytest.param("M", {**quad_raw(), "M": 0}, id="M-0"),
        pytest.param("problem.cov", {**quad_raw(), "problem": {
            "family": "logistic", "dim": 2, "cov": True}}, id="problem.cov-true"),
        pytest.param("problem.balance", {**quad_raw(), "problem": {
            "family": "logistic", "dim": 2, "balance": 1.5}},
            id="problem.balance-1.5"),
        pytest.param("problem.l2", {**quad_raw(), "problem": {
            "family": "logistic", "dim": 2, "l2": -1}}, id="problem.l2-neg"),
        pytest.param("problem.center", {**quad_raw(), "problem": {
            **quad_raw()["problem"], "center": [0, 0, 0]}},
            id="problem.center-vs-dim"),
        pytest.param("ensemble.dataset_seeds", {
            **quad_raw(), "ensemble": {"dataset_seeds": 0}},
            id="ensemble.dataset_seeds-0"),
        pytest.param("ensemble.run_seeds", {
            **quad_raw(), "ensemble": {"run_seeds": 0}},
            id="ensemble.run_seeds-0"),
        pytest.param("sweep_n", {**quad_raw(), "sweep_n": [8, 0]},
                     id="sweep_n-0"),
    ])
    def test_cli_bad_config_values_name_the_key(self, tmp_path, capsys, key, raw):
        path = write_config(tmp_path, raw)
        assert run_cli(["train", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    def test_cli_negative_seed_override_names_the_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, quad_raw())
        assert run_cli(["train", "--config", str(path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_vector_center_without_dim_sets_the_dimension(self):
        problem = {**quad_raw()["problem"], "center": [0, 0, 0]}
        del problem["dim"]
        config = load_experiment_config({**quad_raw(), "problem": problem})
        assert config.train.spec.dim == 3

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_cli_compare_needs_a_seed(self, tmp_path, capsys, seeds):
        path = write_config(tmp_path, {**quad_raw(), "compare_seeds": seeds})
        assert run_cli(["compare", "--config", str(path)]) == 2
        assert "compare_seeds" in capsys.readouterr().err

    def test_cli_empty_bounds_list_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch):
        """An empty ``bounds`` list names no bound to evaluate: it is a
        config error, not the command's default set."""
        calls = []
        monkeypatch.setattr(harness, "run_ensemble",
                            lambda *a, **k: calls.append(a))
        path = write_config(tmp_path, {**quad_raw(), "bounds": []})
        for command in ("bounds-terminal", "bounds-traj", "sweep-n"):
            assert run_cli([command, "--config", str(path)]) == 2
            assert "bad value for bounds" in capsys.readouterr().err
        assert calls == []


class TestCli:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda tmp: tmp / "missing.json", id="missing"),
        pytest.param(lambda tmp: tmp, id="directory"),
        pytest.param(lambda tmp: write_text(tmp, "{bad json"), id="bad-json"),
        pytest.param(lambda tmp: write_config(tmp, "problemtrain"),
                     id="top-level-string"),
        pytest.param(lambda tmp: write_config(tmp, [quad_raw()]),
                     id="top-level-list"),
    ])
    def test_unreadable_config_file_exits_2_naming_the_path(
            self, tmp_path, capsys, make):
        path = make(tmp_path)
        assert run_cli(["train", "--config", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("key, section", [
        ("stationary.modes", {"modes": "general"}),
        ("stationary.modes", {"modes": ["general", "genral"]}),
        ("stationary.b", {"b": 0}),
    ])
    def test_bad_stationary_section_fails_before_training(
            self, tmp_path, capsys, monkeypatch, key, section):
        """The removed ``stationary`` section is an unknown key, named as a
        whole, not by the ``key`` it carries, before any run trains."""
        calls = []
        monkeypatch.setattr(harness, "train_run",
                            lambda *a, **k: calls.append(a))
        path = write_config(tmp_path, {**quad_raw(), "stationary": section})
        assert run_cli(["stationary", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys: stationary\n" in err
        assert key not in err
        assert calls == []


@pytest.fixture(scope="module")
def compare_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    raw = {
        "problem": {"family": "logistic", "dim": 4, "separation": 3.0,
                    "pop_oracle_size": 500},
        "train": {"n": 60, "b": 6, "lr": 0.2, "steps": 60, "log_every": 20},
        "compare_seeds": 3,
    }
    cfg = load_experiment_config(raw)
    summary = cmd_compare(cfg, out_dir=out)
    return out, summary


class TestCompareCommand:
    def test_summary_keys(self, compare_outputs):
        _, summary = compare_outputs
        assert summary["n_seeds"] == 3
        assert summary["diverged_runs"] == 0
        for key in ("terminal_test_loss_sgd", "terminal_test_loss_sde",
                    "test_loss_abs_diff", "terminal_accuracy_sgd",
                    "terminal_accuracy_sde", "accuracy_abs_diff"):
            assert key in summary
        assert 0.5 < summary["terminal_accuracy_sgd"] <= 1.0

    def test_paired_curves_written(self, compare_outputs):
        out, summary = compare_outputs
        for mode in ("sgd", "sde"):
            lines = (out / f"compare_{mode}.csv").read_text().splitlines()
            assert lines[0] == ",".join(TRAJECTORY_CSV_HEADER)
            assert len(lines) == 1 + 60 // 20 + 1
        on_disk = json.loads((out / "compare_summary.json").read_text())
        assert on_disk["accuracy_abs_diff"] == summary["accuracy_abs_diff"]

    def test_every_curve_row_has_a_finite_test_loss(self, compare_outputs):
        out, _ = compare_outputs
        for mode in ("sgd", "sde"):
            rows = (out / f"compare_{mode}.csv").read_text().splitlines()[1:]
            assert all(np.isfinite(float(row.split(",")[2])) for row in rows)

    def test_all_diverged_mode_exits_3_naming_it(self, tmp_path, capsys):
        """At eta 2.5 > 2/lambda every SGD run diverges: compare fails
        instead of averaging the losses of their last logged states."""
        raw = quad_raw(lr_schedule=[[1, 0.1], [20, 2.5]], steps=200)
        del raw["train"]["lr"]
        path = write_config(tmp_path, {**raw, "compare_seeds": 3})
        assert run_cli(["compare", "--config", str(path)]) == 3
        assert "sgd" in capsys.readouterr().err

    def test_diverged_run_left_out_of_the_means(self, tmp_path, monkeypatch):
        cfg = load_experiment_config({**quad_raw(), "compare_seeds": 3})
        records = {"sgd": [], "sde": []}
        run = harness.train_run

        def train_run(c, *a):
            rec = run(c, *a)
            if c.mode == "sgd" and c.seed == 1:
                rec = dataclasses.replace(rec, diverged_step=5,
                                          test_loss=rec.test_loss + 1e9,
                                          steps=rec.steps[:2])
            records[c.mode].append(rec)
            return rec

        monkeypatch.setattr(harness, "train_run", train_run)
        summary = cmd_compare(cfg, out_dir=tmp_path)
        kept = [r for r in records["sgd"] if not r.diverged]
        assert len(kept) == 2
        assert summary["diverged_runs"] == 1
        assert summary["terminal_test_loss_sgd"] == np.mean(
            [r.test_loss[-1] for r in kept])
        lines = (tmp_path / "compare_sgd.csv").read_text().splitlines()[1:]
        assert len(lines) == len(kept[0].steps)
        assert float(lines[-1].split(",")[2]) == np.mean(
            [r.test_loss[-1] for r in kept])

    def test_pairs_read_the_dataset_seed(self, tmp_path, monkeypatch):
        """Pair i runs seed ``seed + i`` on the dataset of seed
        ``dataset_seed + i``; a ``dataset_seed`` equal to ``seed`` writes
        the bytes of the unset key, and another one other bytes."""
        runs = []
        run = harness.train_run

        def train_run(c, dataset, *a):
            runs.append((c.mode, c.seed, c.dataset_seed, dataset.seed))
            return run(c, dataset, *a)

        monkeypatch.setattr(harness, "train_run", train_run)
        outputs = {}
        for name, dataset_seed in (("unset", None), ("equal", 1), ("other", 77)):
            raw = {**quad_raw(), "compare_seeds": 2, "seed": 1}
            if dataset_seed is not None:
                raw["train"]["dataset_seed"] = dataset_seed
            runs.clear()
            cmd_compare(load_experiment_config(raw), out_dir=tmp_path / name)
            base = 1 if dataset_seed is None else dataset_seed
            assert runs == [(mode, 1 + i, base + i, base + i)
                            for i in range(2) for mode in ("sgd", "sde")]
            outputs[name] = {f.name: f.read_bytes()
                             for f in sorted((tmp_path / name).iterdir())}
        assert outputs["equal"] == outputs["unset"]
        assert outputs["other"]["compare_summary.json"] != (
            outputs["unset"]["compare_summary.json"])

    def test_curves_average_every_column(self, tmp_path):
        """With ``log_lambda1`` the curves carry the seed mean of lambda1 and
        the gap, like every other column."""
        cfg = load_experiment_config({**quad_raw(log_lambda1=True),
                                      "compare_seeds": 2})
        cmd_compare(cfg, out_dir=tmp_path)
        lines = (tmp_path / "compare_sgd.csv").read_text().splitlines()[1:]
        # The quadratic's Hessian is the identity everywhere: lambda1 = 1.
        for line in lines:
            lam, gap = map(float, line.split(",")[-2:])
            assert lam == pytest.approx(1.0, rel=1e-9)
            assert gap == pytest.approx(2.0 / 0.1 - 1.0, rel=1e-9)


class TestBoundsCommands:
    def traj_config(self, **kw):
        raw = {
            "problem": {"family": "quadratic", "dim": 2, "curvature": 1.0,
                        "scatter": 1.0, "pop_oracle_size": 300},
            "train": {"n": 6, "b": 1, "lr": 0.1, "steps": 5},
            "ensemble": {"dataset_seeds": 1, "run_seeds": 2},
        }
        raw.update(kw)
        return load_experiment_config(raw)

    def test_all_trajectory_bounds_run_and_serialize(self, tmp_path):
        cfg = self.traj_config()
        reports = cmd_bounds_traj(cfg, out_dir=tmp_path)
        assert [r.name for r in reports] == [
            "trajectory-isotropic", "trajectory-langevin",
            "trajectory-anisotropic", "trajectory-data-dependent",
            "terminal-gradient-accumulation"]
        payload = json.loads((tmp_path / "bounds.json").read_text())
        assert [p["name"] for p in payload] == [r.name for r in reports]
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert len(lines) == 1 + len(TRAJ_BOUNDS)
        assert lines[0].startswith("name,value,core,n_runs_used,flags")

    def test_bound_subset_selection(self, tmp_path):
        cfg = self.traj_config(bounds=["traj-langevin"])
        reports = cmd_bounds_traj(cfg, out_dir=tmp_path)
        assert [r.name for r in reports] == ["trajectory-langevin"]
        # Every command evaluates exactly the bounds the config names, in
        # order, whatever their kind.
        cfg2 = self.traj_config(bounds=["terminal-general", "traj-langevin"])
        reports = cmd_bounds_traj(cfg2, out_dir=tmp_path)
        assert [r.name for r in reports] == ["terminal-general",
                                             "trajectory-langevin"]
        payload = json.loads((tmp_path / "bounds.json").read_text())
        assert [p["name"] for p in payload] == [r.name for r in reports]

    def test_terminal_bounds_in_bounds_traj_match_bounds_terminal(self, tmp_path):
        """Logging touches no RNG stream, so on a grid that does not diverge
        the runs bounds-traj trains at the config's cadence, weights recorded,
        give the terminal bounds the files bounds-terminal writes."""
        path = write_config(tmp_path, {
            "problem": quad_problem(),
            "train": {**TERMINAL_TRAIN, "log_every": 10}, "ensemble": GRID,
            "bounds": list(TERMINAL_BOUNDS)})
        outputs = []
        for command in ("bounds-traj", "bounds-terminal"):
            out = tmp_path / command
            assert run_cli([command, "--config", str(path),
                            "--out", str(out)]) == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in ("bounds.json", "bounds.csv")})
        assert outputs[0] == outputs[1]
        names = [p["name"] for p in json.loads(outputs[0]["bounds.json"])]
        assert len(names) == len(TERMINAL_BOUNDS)

    @pytest.mark.parametrize("names, g_tilde, population", [
        (["traj-data-dependent"], "population-gradient", False),
        (["traj-data-dependent", "traj-isotropic"], "population-gradient", True),
        (["traj-langevin"], "zero", False),
        (["traj-anisotropic"], "zero", True)])
    def test_tape_builds_its_population_half_only_for_a_bound_reading_it(
            self, monkeypatch, names, g_tilde, population):
        """The tape's oracle ``grad_moments`` call runs only for
        ``traj-anisotropic`` and for a bound taking the population-gradient
        ``g_tilde``: ``traj-data-dependent`` alone pays for none, though
        ``g_tilde`` defaults to the population gradient."""
        cfg = self.traj_config(bounds=names, g_tilde=g_tilde)
        rows = []
        grad_moments = problems.QuadraticProblem.grad_moments
        monkeypatch.setattr(problems.QuadraticProblem, "grad_moments",
                            lambda self, ws, features, labels: rows.append(
                                len(features)) or grad_moments(
                                    self, ws, features, labels))
        cmd_bounds_traj(cfg)
        oracle = cfg.train.spec.pop_oracle_size
        assert rows == [cfg.train.n, *[oracle] * population] * 2

    @pytest.mark.parametrize("names, leave_one_out", [
        (["traj-data-dependent"], True),
        (["traj-isotropic", "traj-data-dependent"], True),
        (["traj-isotropic", "traj-langevin", "traj-anisotropic"], False)])
    def test_tape_takes_leave_one_out_gaps_only_for_the_bound_reading_them(
            self, monkeypatch, names, leave_one_out):
        """The tape's pass computes the leave-one-out gaps only when
        ``traj-data-dependent`` is named."""
        cfg = self.traj_config(bounds=names)
        seen, chunks = [], []
        tape_from_records = bounds.tape_from_records
        monkeypatch.setattr(bounds, "tape_from_records",
                            lambda runs, **kw: seen.append(kw)
                            or tape_from_records(runs, **kw))
        gaps = bounds._loo_log_det_gaps
        monkeypatch.setattr(bounds, "_loo_log_det_gaps",
                            lambda *a: chunks.append(1) or gaps(*a))
        cmd_bounds_traj(cfg)
        assert [kw["leave_one_out"] for kw in seen] == [leave_one_out]
        assert bool(chunks) == leave_one_out

    def test_records_carry_weights_only_for_a_tape(self, monkeypatch):
        """``terminal-gradient-accum`` reads only logged scalars, so alone it
        gets records without weights."""
        cfg = self.traj_config(bounds=["terminal-gradient-accum"])
        seen = []
        bound = bounds.terminal_bound_gradient_accum
        monkeypatch.setattr(bounds, "terminal_bound_gradient_accum",
                            lambda records, **kw: seen.extend(records)
                            or bound(records, **kw))
        cmd_bounds_traj(cfg)
        assert len(seen) == 2 and all(rec.weights is None for rec in seen)

    def test_trajectory_reports_attach_generalization_estimate(self):
        reports = cmd_bounds_traj(self.traj_config())
        gen = reports[0].components["generalization_error_estimate"]
        assert np.isfinite(gen)
        for rep in reports:
            assert rep.components["generalization_error_estimate"] == gen

    @pytest.mark.parametrize("command, bound", [
        ("bounds-terminal", "terminal-loo"),
        ("bounds-traj", "traj-data-dependent")])
    def test_loo_size_checked_before_any_run(self, monkeypatch, tmp_path,
                                             capsys, command, bound):
        """At n = 6, b = 5 a leave-one-out subset of 5 examples is not larger
        than b: the command exits 2 naming train.b before any run trains."""
        path = write_config(tmp_path, {
            "problem": quad_problem(),
            "train": {**TERMINAL_TRAIN, "n": 6, "b": 5},
            "ensemble": {"dataset_seeds": 4, "run_seeds": 4},
            "bounds": ["terminal-general", bound]})
        calls = []
        monkeypatch.setattr(harness, "run_ensemble",
                            lambda *a, **k: calls.append(a))
        assert run_cli([command, "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "train.b" in err and bound in err
        assert calls == []
        assert not (tmp_path / "out" / "bounds.csv").exists()

    @pytest.mark.parametrize("command, extra", [
        ("bounds-terminal", {}),
        ("bounds-traj", {}),
        ("sweep-n", {"sweep_n": [20, 10]})])
    def test_diverged_grid_exits_3(self, tmp_path, capsys, command, extra):
        """eta = 2.5 > 2 / lambda_max on the unit quadratic: every run of
        the grid diverges, and the command exits 3, as a diverged train run
        does, writing no bounds."""
        path = write_config(tmp_path, {
            "problem": quad_problem(),
            "train": {"n": 20, "b": 2, "lr": 2.5, "steps": 60, "log_every": 10},
            "ensemble": {"dataset_seeds": 2, "run_seeds": 2}, **extra})
        out = tmp_path / "out"
        assert run_cli([command, "--config", str(path), "--out", str(out)]) == 3
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("names", [None, ["traj-data-dependent"]])
    def test_mixed_divergence_grid_leaves_diverged_runs_out(self, tmp_path,
                                                            names):
        """At eta = 2.045 one run of the 2 x 2 grid diverges and is cut at
        another logged step than the others: every trajectory bound leaves
        it out, as the terminal bounds do, flags ``diverged-runs`` and
        evaluates the other three, and the command exits 0."""
        raw = {"problem": quad_problem(),
               "train": {"n": 20, "b": 2, "lr": 2.045, "steps": 280,
                         "log_every": 10},
               "ensemble": {"dataset_seeds": 2, "run_seeds": 2}, "seed": 0,
               **({"bounds": names} if names else {})}
        cfg = load_experiment_config(raw)
        runs = dynamics.run_ensemble(cfg.train, 2, 2, terminal_only=False)
        assert [r.diverged for r in runs].count(True) == 1
        assert len({len(r.steps) for r in runs}) > 1
        out = tmp_path / "out"
        assert run_cli(["bounds-traj", "--config", str(write_config(tmp_path, raw)),
                        "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in
                         (out / "bounds.csv").read_text().splitlines()]
        rows = [dict(zip(header, row)) for row in rows]
        assert len(rows) == len(names or TRAJ_BOUNDS)
        for row in rows:
            assert "diverged-runs" in row["flags"].split("|")
            assert row["n_runs_used"] == "3"

    def test_terminal_bounds_attach_generalization_estimate(self, tmp_path):
        raw = {
            "problem": {"family": "quadratic", "dim": 2, "curvature": 1.0,
                        "scatter": 1.0, "pop_oracle_size": 300},
            "train": {"n": 8, "b": 2, "lr": 0.1, "steps": 60, "mode": "sde",
                      "tail_checkpoints": 6, "tail_spacing": 2,
                      "log_every": 60},
            "ensemble": {"dataset_seeds": 2, "run_seeds": 2},
        }
        cfg = load_experiment_config(raw)
        reports = cmd_bounds_terminal(cfg, out_dir=tmp_path)
        assert [r.name for r in reports] == list(TERMINAL_BOUNDS)
        for rep in reports:
            assert "generalization_error_estimate" in rep.components
        payload = json.loads((tmp_path / "bounds.json").read_text())
        assert len(payload) == len(TERMINAL_BOUNDS)
        gen = reports[0].components["generalization_error_estimate"]
        for entry in payload:
            assert entry["components"]["generalization_error_estimate"] == gen

    def test_terminal_outputs_independent_of_worker_count(self, tmp_path):
        raw = {
            "problem": {"family": "quadratic", "dim": 2, "curvature": 1.0,
                        "scatter": 1.0, "pop_oracle_size": 300},
            "train": {"n": 8, "b": 2, "lr": 0.1, "steps": 30, "log_every": 30},
            "ensemble": {"dataset_seeds": 2, "run_seeds": 2},
            "bounds": ["terminal-general", "terminal-isotropic"],
        }
        path = write_config(tmp_path, raw)
        outputs = []
        for label, flag in (("one", ["--jobs", "1"]), ("four", ["--jobs", "4"]),
                            ("none", [])):
            out = tmp_path / label
            assert run_cli(["bounds-terminal", "--config", str(path),
                            "--out", str(out)] + flag) == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in ("bounds.json", "bounds.csv")})
        assert outputs[0] == outputs[1] == outputs[2]

    def test_flat_hessian_direction_exits_0(self, tmp_path):
        """A Hessian eigenvalue floored at the absolute floor 1e-12 leaves
        terminal-anisotropic's commutator diagnostic finite: it is read off
        H's eigenpairs, with no stationary solve whose positivity test such
        an eigenvalue fails."""
        path = write_config(tmp_path, {
            "problem": {"family": "quadratic", "dim": 2,
                        "curvature": [1e-5, 0], "pop_oracle_size": 300},
            "train": {"n": 20, "b": 2, "lr": 0.5, "steps": 60, "mode": "sde",
                      "log_every": 60, "tail_checkpoints": 6, "tail_spacing": 2},
            "ensemble": {"dataset_seeds": 2, "run_seeds": 2},
            "bounds": ["terminal-general", "terminal-anisotropic"]})
        out = tmp_path / "out"
        assert run_cli(["bounds-terminal", "--config", str(path),
                        "--out", str(out)]) == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert np.isfinite(payload[1]["components"]["commutator_norm_mean"])

    def test_ensemble_and_loo_pairs_run_from_the_train_seed(self, monkeypatch):
        """The TrainConfig owns the seeds: with its seed replaced, the
        ensemble and the leave-one-out runs of terminal-loo all start from
        the new seed, and the full runs of the pairs are the ensemble's own
        runs, so each cell trains twice."""
        cfg = load_experiment_config({
            "problem": quad_problem(), "train": TERMINAL_TRAIN,
            "ensemble": {"dataset_seeds": 1, "run_seeds": 2},
            "bounds": ["terminal-general", "terminal-loo"]})
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=5))
        seeds = []
        group = dynamics._run_group
        monkeypatch.setattr(
            dynamics, "_run_group",
            lambda cs, *a, **kw: seeds.extend(c.seed for c in cs)
            or group(cs, *a, **kw))
        cmd_bounds_terminal(cfg)
        assert sorted(seeds) == [5, 5, 6, 6]

    def test_group_short_for_diverged_runs_exits_3(self, tmp_path, capsys):
        """Two run seeds per dataset give terminal-general its 2 samples; a
        group left with one because a run diverged is a divergence (exit 3),
        not a configuration error."""
        path = write_config(tmp_path, {**MIXED_DIVERGENCE,
                                       "bounds": ["terminal-general"]})
        assert run_cli(["bounds-terminal", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_grid_with_one_sample_per_group_exits_2(self, tmp_path, capsys):
        """One run seed and no tail checkpoints: the grid itself gives each
        dataset group one sample."""
        path = write_config(tmp_path, {
            **quad_raw(), "ensemble": {"dataset_seeds": 2, "run_seeds": 1},
            "bounds": ["terminal-general"]})
        assert run_cli(["bounds-terminal", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 2
        assert "at least 2 weight samples" in capsys.readouterr().err

    def test_loo_leaves_out_pairs_that_hold_a_diverged_run(self):
        """On the eta = 2.045 grid two of the four pairs hold a run that
        diverged at step 280: terminal-loo flags ``diverged-runs``, counts
        the two clean pairs and takes its core from them alone (1,314,370;
        averaging all four pairs gave 1,071,966)."""
        cfg = load_experiment_config({**MIXED_DIVERGENCE,
                                      "bounds": ["terminal-loo"]})
        pairs = harness._loo_pairs(dynamics.run_ensemble(cfg.train, 2, 2))
        clean = [(f, l) for f, l in pairs if not (f.diverged or l.diverged)]
        assert len(clean) == 2
        report, = cmd_bounds_terminal(cfg)
        assert "diverged-runs" in report.flags
        assert report.n_runs_used == 2
        assert report.core == bounds.terminal_bound_loo(clean).core
        assert round(report.core) == 1_314_370

    def test_loo_report_equals_hand_built_pairs(self):
        """The terminal-loo report of bounds-terminal is terminal_bound_loo
        over full runs from train_run and leave-one-out runs from loo_train on
        the same grid, at the config's own logging cadence."""
        cfg = load_experiment_config({
            "problem": quad_problem(), "seed": 3,
            "train": {**TERMINAL_TRAIN, "log_every": 10}, "ensemble": GRID,
            "bounds": ["terminal-loo"]})
        train = cfg.train
        oracle = problems.population_oracle_sample(train.spec, train.oracle_seed)
        pairs = []
        for i in range(GRID["dataset_seeds"]):
            ds_seed = train.effective_dataset_seed + i
            dataset = problems.generate_dataset(train.spec, ds_seed, train.n)
            subset = [k for k in range(train.n) if k != ds_seed % train.n]
            for j in range(GRID["run_seeds"]):
                run_cfg = dataclasses.replace(train, dataset_seed=ds_seed,
                                              seed=train.seed + j)
                pairs.append((dynamics.train_run(run_cfg, dataset, oracle),
                              dynamics.loo_train(run_cfg, dataset, subset, oracle)))
        expected = bounds.report_to_json_dict(bounds.terminal_bound_loo(pairs))
        report, = cmd_bounds_terminal(cfg)
        got = bounds.report_to_json_dict(report)
        assert got["components"].pop("generalization_error_estimate") is not None
        assert got == expected


class TestStationaryCommand:
    def test_quadratic_residuals_and_empirical_check(self, tmp_path):
        raw = {
            "problem": {"family": "quadratic", "dim": 2,
                        "curvature": [[1.0, 0.0], [0.0, 0.5]],
                        "scatter": [1.0, 0.6], "pop_oracle_size": 300},
            "train": {"n": 40, "b": 4, "lr": 0.1, "steps": 4000, "mode": "sde",
                      "log_every": 4000, "tail_checkpoints": 400,
                      "tail_spacing": 5},
        }
        cfg = load_experiment_config(raw)
        result = cmd_stationary(cfg, out_dir=tmp_path)
        assert set(result["modes"]) == {"general", "commuting",
                                        "hessian-matches-gnc", "small-lr"}
        general = result["modes"]["general"]
        assert general["residual"] <= 1e-9
        assert general["empirical_rel_frobenius_error"] < 0.5
        on_disk = json.loads((tmp_path / "stationary.json").read_text())
        assert on_disk["empirical"]["tail_samples"] == 400

    def test_requires_analytic_hessian_family(self):
        raw = {
            "problem": {"family": "logistic", "dim": 3, "separation": 2.0},
            "train": {"n": 20, "b": 2, "lr": 0.1, "steps": 10},
        }
        cfg = load_experiment_config(raw)
        with pytest.raises(ConfigError):
            cmd_stationary(cfg)


class TestSweepCommand:
    def test_rows_cover_the_grid(self, tmp_path):
        raw = {
            "problem": {"family": "quadratic", "dim": 2, "curvature": 1.0,
                        "scatter": 1.0, "pop_oracle_size": 300},
            "train": {"n": 8, "b": 8, "lr": 0.1, "steps": 30, "log_every": 30},
            "ensemble": {"dataset_seeds": 2, "run_seeds": 2},
            "sweep_n": [6, 10],
            "bounds": ["terminal-isotropic", "fim-takeuchi"],
        }
        cfg = load_experiment_config(raw)
        rows = cmd_sweep_n(cfg, out_dir=tmp_path)
        assert [(r[0], r[1]) for r in rows] == [
            (6, "terminal-isotropic"), (6, "fim-takeuchi"),
            (10, "terminal-isotropic"), (10, "fim-takeuchi")]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,bound,core,value,gen_error,seeds_used"
        assert len(lines) == 5
        assert all(row[5] == 4 for row in rows)

    def test_seeds_used_counts_the_runs_each_bound_used(self, tmp_path):
        """Two of the four runs diverge: each row's seeds_used is its
        report's n_runs_used, not the grid size."""
        cfg = load_experiment_config({
            **MIXED_DIVERGENCE, "seed": 9, "sweep_n": [20],
            "bounds": ["terminal-general", "traj-isotropic"]})
        reports = cmd_bounds_traj(cfg)
        assert all("diverged-runs" in r.flags for r in reports)
        assert [r.n_runs_used for r in reports] == [2, 2]
        rows = cmd_sweep_n(cfg, out_dir=tmp_path)
        assert [row[5] for row in rows] == [2, 2]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [line.split(",")[-1] for line in lines] == ["2", "2"]

    def sweep_config(self, bound_names):
        return load_experiment_config({
            "problem": {"family": "quadratic", "dim": 1, "pop_oracle_size": 100},
            "train": {"n": 6, "b": 2, "lr": 0.1, "steps": 5},
            "sweep_n": [4, 6],
            "bounds": bound_names,
        })

    def test_terminal_loo_is_swept(self):
        """Every terminal bound can be swept, terminal-loo included, though
        it is not among the default SWEEP_BOUNDS."""
        rows = cmd_sweep_n(self.sweep_config(["terminal-general", "terminal-loo"]))
        assert [(r[0], r[1]) for r in rows] == [
            (4, "terminal-general"), (4, "terminal-loo"),
            (6, "terminal-general"), (6, "terminal-loo")]
        assert all(np.isfinite(r[2]) for r in rows)
        assert "terminal-loo" not in SWEEP_BOUNDS

    def test_oracle_is_drawn_once_for_every_size(self, monkeypatch):
        """The oracle sample does not depend on n: a three-size sweep, with
        leave-one-out runs, draws it once."""
        calls = []
        real = problems.population_oracle_sample
        for module in (harness, dynamics):
            monkeypatch.setattr(module, "population_oracle_sample",
                                lambda *a: calls.append(a) or real(*a))
        cfg = load_experiment_config({
            "problem": {"family": "quadratic", "dim": 1, "pop_oracle_size": 100},
            "train": {"n": 6, "b": 2, "lr": 0.1, "steps": 5},
            "sweep_n": [4, 5, 6],
            "bounds": ["terminal-general", "terminal-loo"],
        })
        rows = cmd_sweep_n(cfg)
        assert len(calls) == 1
        assert [r[0] for r in rows] == [4, 4, 5, 5, 6, 6]

    def test_trajectory_bounds_are_swept(self):
        """sweep-n takes any bound: at each n a trajectory and a terminal
        bound have the cores bounds-traj and bounds-terminal give at that n
        (b clipped to n)."""
        cfg = self.sweep_config(["traj-isotropic", "terminal-general"])
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, steps=20, log_every=5))
        rows = cmd_sweep_n(cfg)
        assert [(r[0], r[1]) for r in rows] == [
            (4, "traj-isotropic"), (4, "terminal-general"),
            (6, "traj-isotropic"), (6, "terminal-general")]
        for n in cfg.sweep_n:
            point = dataclasses.replace(cfg, train=dataclasses.replace(
                cfg.train, n=n, b=min(cfg.train.b, n)))
            traj, = cmd_bounds_traj(dataclasses.replace(
                point, bound_names=("traj-isotropic",)))
            terminal, = cmd_bounds_terminal(dataclasses.replace(
                point, bound_names=("terminal-general",)))
            got = {r[1]: r for r in rows if r[0] == n}
            for name, rep in (("traj-isotropic", traj),
                              ("terminal-general", terminal)):
                assert got[name][2] == rep.core
                assert got[name][4] == rep.components[
                    "generalization_error_estimate"]

    def test_loo_size_too_small_exits_before_any_ensemble(
            self, monkeypatch, tmp_path, capsys):
        """At n = 6 with b = 8 the point's b is 6, and a leave-one-out run
        on n - 1 = 5 examples needs 5 > b: the sweep exits 2 naming sweep_n
        and that n before the n = 20 ensemble trains or a row is written."""
        raw = {"problem": quad_problem(),
               "train": {"n": 20, "b": 8, "lr": 0.1, "steps": 5},
               "sweep_n": [20, 6],
               "bounds": ["terminal-isotropic", "terminal-loo"]}
        path, out = tmp_path / "sweep.json", tmp_path / "out"
        path.write_text(json.dumps(raw))
        calls = []
        monkeypatch.setattr(harness, "run_ensemble",
                            lambda *a, **k: calls.append(a))
        assert run_cli(["sweep-n", "--config", str(path),
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sweep_n" in err and "n=6" in err
        assert calls == []
        assert not (out / "sweep.csv").exists()
        # Without terminal-loo the same sizes sweep.
        raw["bounds"] = ["terminal-isotropic"]
        monkeypatch.undo()
        rows = cmd_sweep_n(load_experiment_config(raw))
        assert [r[0] for r in rows] == [20, 6]

    def test_empty_sweep_rejected(self):
        cfg = load_experiment_config(quad_raw())
        with pytest.raises(ConfigError):
            cmd_sweep_n(cfg)


def loss_record(train, test, diverged_step=None, dataset_seed=0):
    """A hand-built record whose every logged loss is ``train`` / ``test``."""
    return make_record(quad_config(), [0.0, 0.0], dataset_seed=dataset_seed,
                       diverged_step=diverged_step, train_loss=train,
                       test_loss=test)


class TestGeneralizationEstimate:
    def test_mean_gap_over_runs(self):
        runs = [loss_record(0.2, 0.5), loss_record(0.4, 0.5, dataset_seed=1)]
        assert estimate_generalization_error(runs) == pytest.approx(0.2)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            estimate_generalization_error([])

    def test_diverged_runs_are_left_out(self):
        """A diverged run's losses are those of its last logged state, not
        of W_T, so its gap must not enter the mean."""
        runs = [loss_record(0.2, 0.5), loss_record(0.4, 0.5),
                loss_record(3.0, 9.0, diverged_step=2)]
        assert estimate_generalization_error(runs) == pytest.approx(0.2)
        with pytest.raises(GradnoiseError) as err:
            estimate_generalization_error(runs[2:])
        assert not isinstance(err.value, ConfigError)


def quad_problem(dim=2):
    return {"family": "quadratic", "dim": dim, "curvature": 1.0,
            "scatter": 1.0, "pop_oracle_size": 300}


TERMINAL_TRAIN = {"n": 8, "b": 2, "lr": 0.1, "steps": 60, "mode": "sde",
                  "tail_checkpoints": 6, "tail_spacing": 2, "log_every": 60}
GRID = {"dataset_seeds": 2, "run_seeds": 3}
D = GRID["dataset_seeds"]


class TestDrawCounts:
    """Every command draws each dataset of its dataset-seed x run-seed grid,
    and the oracle, once; runs and bounds read the data the runs carry."""

    @pytest.mark.parametrize("command, raw, draws", [
        pytest.param(cmd_bounds_traj, {
            "problem": quad_problem(),
            "train": {"n": 6, "b": 1, "lr": 0.1, "steps": 5},
            "ensemble": GRID}, D + 1, id="bounds-traj"),
        pytest.param(cmd_bounds_terminal, {
            "problem": quad_problem(), "train": TERMINAL_TRAIN, "ensemble": GRID,
            "bounds": ["terminal-general", "terminal-anisotropic",
                       "terminal-isotropic", "fim-takeuchi"]},
            D + 1, id="bounds-terminal"),
        pytest.param(cmd_bounds_terminal, {
            "problem": quad_problem(), "train": TERMINAL_TRAIN, "ensemble": GRID,
            "bounds": ["terminal-general", "terminal-anisotropic",
                       "terminal-isotropic", "terminal-loo", "fim-takeuchi"]},
            D + 1, id="bounds-terminal-with-loo"),
        pytest.param(cmd_compare, {
            "problem": quad_problem(),
            "train": {"n": 8, "b": 2, "lr": 0.1, "steps": 10},
            "compare_seeds": 3}, 3 + 1, id="compare"),
        pytest.param(cmd_stationary, {
            "problem": quad_problem(),
            "train": {"n": 20, "b": 4, "lr": 0.1, "steps": 200, "mode": "sde",
                      "log_every": 200, "tail_checkpoints": 20,
                      "tail_spacing": 5}}, 2, id="stationary"),
    ])
    def test_draw_count(self, monkeypatch, command, raw, draws):
        cfg = load_experiment_config(raw)
        calls = []
        sample = problems._sample
        monkeypatch.setattr(problems, "_sample",
                            lambda *a: calls.append(a) or sample(*a))
        command(cfg)
        assert len(calls) == draws
