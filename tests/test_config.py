"""Run configuration: defaults, file parsing, and override precedence."""

import dataclasses

import pytest

from eventnilm.cli import main
from eventnilm.config import RunConfig, apply_overrides, read_config
from eventnilm.errors import ConfigError, ParseError


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


class TestApplyOverrides:
    def test_none_values_skipped(self):
        base = RunConfig()
        out = apply_overrides(base, {"seed": None, "k_clusters": 14})
        assert out.seed == 0
        assert out.k_clusters == 14

    def test_empty_returns_same_config(self):
        base = RunConfig()
        assert apply_overrides(base, {}) == base

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            apply_overrides(RunConfig(), {"speed": 3})

    def test_revalidates(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"merge_ratio": 2.0})


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
            apply_overrides(RunConfig(), {knob: float(text)})

    @pytest.mark.parametrize("knob", WATT_KNOBS)
    @pytest.mark.parametrize("text", NON_FINITE)
    def test_cli_exits_with_data_error(self, tmp_path, capsys, knob, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{knob} = {text}\n", encoding="utf-8")
        synth = ["synth", "--days", "2", "--train-days", "1"]
        flag = "--" + knob.replace("_", "-")
        assert main([*synth, "--output", str(tmp_path / "a"), "--config", str(cfg)]) == 2
        assert main([*synth, "--output", str(tmp_path / "b"), f"{flag}={text}"]) == 2
        err = capsys.readouterr().err
        assert err.count("must be finite") == 2
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
