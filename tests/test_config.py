"""Run configuration: defaults, file parsing, and override precedence."""

import argparse
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eventnilm
from eventnilm import classifier, evaluation, features, modes, synth
from eventnilm.cli import _config_from, main
from eventnilm.config import RunConfig, read_config
from eventnilm.errors import ConfigError, ParseError


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A 2-day demo dataset's manifest and its trained model file."""
    root = tmp_path_factory.mktemp("config")
    args = ["--days", "2", "--train-days", "1", "--period", "60"]
    assert main(["synth", "--output", str(root), *args]) == 0
    manifest, models = root / "manifest.cfg", root / "models.json"
    assert main(["train", "--manifest", str(manifest), "--output", str(models)]) == 0
    return manifest, models


class TestDefaults:
    def test_values(self):
        c = RunConfig()
        assert c.k_clusters == 10
        assert c.merge_ratio == 0.15
        assert c.off_threshold == 5.0
        assert c.all_off_margin == 10.0
        assert c.overshoot_floor == 50.0
        assert c.search_budget == 1_000_000
        assert c.match_tolerance == 1
        assert c.n_days_variant is False
        assert c.seed == 0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().seed = 3

    @pytest.mark.parametrize(
        "function, parameter, field",
        [
            (modes.distance_merge, "merge_ratio", "merge_ratio"),
            (modes.states_from_clusters, "off_threshold", "off_threshold"),
            (modes.extract_states, "k", "k_clusters"),
            (modes.extract_states, "merge_ratio", "merge_ratio"),
            (modes.extract_states, "off_threshold", "off_threshold"),
            (features.participation_index, "count_all_days", "n_days_variant"),
            (features.overshoot_floor, "floor", "overshoot_floor"),
            (features.train_appliance, "overshoot_floor_w", "overshoot_floor"),
            (features.train_appliance, "count_all_days", "n_days_variant"),
            (evaluation.match_events, "tolerance", "match_tolerance"),
            (classifier.all_off_threshold, "margin", "all_off_margin"),
            (classifier.refine_by_compatibility, "budget", "search_budget"),
            (classifier.enforce_cycle_closure, "budget", "search_budget"),
            (classifier.classify, "all_off_margin", "all_off_margin"),
            (classifier.classify, "budget", "search_budget"),
            (synth.generate, "seed", "seed"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_library_defaults_are_the_config_defaults(self, function, parameter, field):
        default = inspect.signature(function).parameters[parameter].default
        assert default == getattr(RunConfig(), field)

    def test_import_loads_no_other_module(self):
        """The config is a leaf: every other module may read its defaults."""
        src = str(Path(eventnilm.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        code = "import sys, eventnilm.config\nprint(*sorted(m for m in sys.modules if 'nilm' in m))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.stdout.split() == ["eventnilm", "eventnilm.config", "eventnilm.errors"]


class TestValidation:
    def test_each_bound(self):
        bad = [
            {"k_clusters": 9},
            {"merge_ratio": 0.0},
            {"merge_ratio": 1.0},
            {"off_threshold": -1.0},
            {"all_off_margin": -0.5},
            {"overshoot_floor": -2.0},
            {"search_budget": 0},
            {"match_tolerance": -1},
        ]
        for kwargs in bad:
            with pytest.raises(ConfigError):
                RunConfig(**kwargs)

    def test_boundaries_allowed(self):
        RunConfig(k_clusters=10, off_threshold=0.0, match_tolerance=0)
        RunConfig(merge_ratio=0.999, search_budget=1)

    def test_negative_seed(self):
        RunConfig(seed=0)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_negative_seed_is_a_data_error_in_synth(self, tmp_path, capsys, where):
        """numpy's generator refuses a negative seed; the config does first."""
        out = tmp_path / "house"
        args = ["synth", "--output", str(out), "--days", "2", "--train-days", "1"]
        if where == "flag":
            args += ["--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("seed = -5\n", encoding="utf-8")
            args += ["--config", str(tmp_path / "run.cfg")]
        assert main(args) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()


class TestReadConfig:
    def test_parses_values_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# tuning\n"
            "k_clusters = 12\n"
            "merge_ratio = 0.2\n"
            "n_days_variant = yes\n"
            "seed = 7\n",
            encoding="utf-8",
        )
        c = read_config(p)
        assert c.k_clusters == 12
        assert c.merge_ratio == 0.2
        assert c.n_days_variant is True
        assert c.seed == 7
        assert c.off_threshold == 5.0

    def test_bool_spellings(self, tmp_path):
        for text, expect in [
            ("1", True),
            ("true", True),
            ("yes", True),
            ("on", True),
            ("0", False),
            ("false", False),
            ("no", False),
            ("off", False),
        ]:
            p = tmp_path / "run.cfg"
            p.write_text(f"n_days_variant = {text}\n", encoding="utf-8")
            assert read_config(p).n_days_variant is expect

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"seed = 1\r\nk_clusters = \xa0\r\n")
        with pytest.raises(ParseError, match=r"run\.cfg:2: not UTF-8 text"):
            read_config(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("clusters = 11\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown"):
            read_config(p)

    def test_repeated_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\n\n# again\nseed = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"run\.cfg:4: key 'seed' repeats line 1"):
            read_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="seed"):
            read_config(p)

    def test_bad_bool(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n_days_variant = maybe\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_config(tmp_path / "nope.cfg")

    def test_invalid_combination_caught(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("k_clusters = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_config(p)


def flags(**given):
    """The settings a command line gives, over the defaults: flags not given are None."""
    return _config_from(argparse.Namespace(config=None, **given))


class TestApplyOverrides:
    def test_none_values_skipped(self):
        out = flags(seed=None, k_clusters=14)
        assert out.seed == 0
        assert out.k_clusters == 14

    def test_empty_returns_same_config(self):
        base = RunConfig()
        assert flags() == base

    def test_revalidates(self):
        with pytest.raises(ConfigError):
            flags(merge_ratio=2.0)


WATT_KNOBS = ("off_threshold", "all_off_margin", "overshoot_floor")
NON_FINITE = ("nan", "inf", "-inf")


class TestFiniteWatts:
    """NaN passes a ``< 0`` test and inf a ``>= 0`` one; both must be refused,
    from the file and from the flag alike, as a data error (exit 2)."""

    @pytest.mark.parametrize("knob", WATT_KNOBS)
    @pytest.mark.parametrize("text", NON_FINITE)
    def test_file_and_override_refuse(self, tmp_path, knob, text):
        with pytest.raises(ConfigError, match="finite"):
            RunConfig(**{knob: float(text)})
        p = tmp_path / "run.cfg"
        p.write_text(f"{knob} = {text}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="finite"):
            read_config(p)
        with pytest.raises(ConfigError, match="finite"):
            flags(**{knob: float(text)})

    @pytest.mark.parametrize("knob", WATT_KNOBS)
    @pytest.mark.parametrize("text", NON_FINITE)
    def test_cli_exits_with_data_error(self, dataset, tmp_path, capsys, knob, text):
        """The file goes to ``synth``, which checks every key; the flag goes to
        the command that reads it."""
        manifest, models = dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{knob} = {text}\n", encoding="utf-8")
        synth = ["synth", "--days", "2", "--train-days", "1"]
        reader = {
            "off_threshold": ["train", "--manifest", str(manifest)],
            "overshoot_floor": ["train", "--manifest", str(manifest)],
            "all_off_margin": ["disaggregate", "--manifest", str(manifest), "--model", str(models)],
        }[knob]
        flag = "--" + knob.replace("_", "-")
        assert main([*synth, "--output", str(tmp_path / "a"), "--config", str(cfg)]) == 2
        assert main([*reader, "--output", str(tmp_path / "b"), f"{flag}={text}"]) == 2
        err = capsys.readouterr().err
        assert err.count("must be finite") == 2
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
