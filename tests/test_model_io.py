"""Model persistence: JSON round trips and the plain-text number format."""

import json
import os

import numpy as np
import pytest

from eventnilm.config import RunConfig
from eventnilm.errors import ParseError
from eventnilm.features import ApplianceModel, BehaviorSet, Transition
from eventnilm.model_io import (
    SCHEMA_VERSION,
    atomic_write,
    fits_one_cell,
    format_number,
    format_numbers,
    format_table,
    join_cells,
    load_models,
    save_models,
)
from eventnilm.modes import State, StateSet
from eventnilm.pipeline import train_models
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import reference_format_numbers, sig, state, two_mode_model


def rich_model():
    """A model exercising every optional field."""
    states = StateSet(
        (state("off", 0.0, 0.0), state("on1", 80.0, 120.0), state("on2", 400.0, 450.0))
    )
    transitions = (
        Transition("off", "on1", 80.0, 120.0),
        Transition("on1", "on2", 280.0, 370.0),
        Transition("on2", "off", -450.0, -400.0),
    )
    behaviors = BehaviorSet(
        signature=Transition("on1", "on2", 280.0, 370.0),
        overshoot_min=75.5,
        min_off_gap_s=120.0,
    )
    return ApplianceModel(
        appliance_id="washer",
        states=states,
        transitions=transitions,
        participation={("off", "on1"): 0.25, ("on1", "on2"): 0.25},
        behaviors=behaviors,
    )


class TestFormatNumber:
    def test_integral_values_bare(self):
        assert format_number(0.0) == "0"
        assert format_number(500.0) == "500"
        assert format_number(-20.0) == "-20"

    def test_fractional_values_full(self):
        assert format_number(2.5) == "2.5"
        assert float(format_number(0.1)) == 0.1

    def test_numpy_scalars_clean(self):
        assert format_number(np.float64(3.0)) == "3"
        text = format_number(np.float64(2.5))
        assert "float64" not in text
        assert float(text) == 2.5


    def test_column_form_matches(self):
        values = np.array([0.0, -0.0, 500.0, -20.0, 2.5, 0.1, 1e16, 1e300, -1e-300, np.inf, np.nan])
        values = np.concatenate([values, np.random.default_rng(0).normal(0.0, 1e4, 1000)])
        assert format_numbers(values).tolist() == [format_number(v) for v in values]

    @pytest.mark.parametrize("seed", range(3))
    def test_distinct_values_match_the_per_element_rule(self, seed):
        rng = np.random.default_rng(seed)
        big = [2.0**63, -(2.0**63), 1e300]
        specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, *big])
        cases = [
            rng.choice(rng.normal(0.0, 1e3, 40).round(1), 5000),  # heavy repeats
            rng.normal(0.0, 1e4, 5000),  # all distinct
            np.full(1000, rng.normal(0.0, 1e3)),  # one value repeated
            np.array([]),
            rng.choice(np.array([-0.0, 0.0]), 500),  # mixes of -0.0 and 0.0
            np.concatenate([np.full(20, np.nan), [1.0, -0.0], np.full(30, np.nan)]),
            rng.choice(specials, 2000),
            rng.permutation(np.concatenate([specials, rng.integers(-9, 9, 200) * 0.5])),
        ]
        for values in cases:
            assert format_numbers(values).tolist() == reference_format_numbers(values)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sep", ["", " ", "\t", "\n"])
    def test_cells_match_the_scalar_rule(self, seed, sep):
        """Runs, signed zeros, NaN, infinities, whole numbers on both sides of
        2**53 and 2**63, negative whole numbers and subnormals, shuffled into
        runs of random length: each cell is ``format_number`` plus ``sep``."""
        rng = np.random.default_rng(seed)
        edges = [2.0**53, 2.0**63]
        pool = np.array(
            [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 0.1, 1e16, 1e300]
            + [s * np.nextafter(e, d) for e in edges for d in (0.0, np.inf) for s in (1, -1)]
            + [s * e for e in edges for s in (1, -1)]
            + (rng.integers(-5000, 5000, 20) * 1.0).tolist()
            + rng.normal(0.0, 1e3, 20).round(rng.integers(0, 4)).tolist()
        )
        values = np.repeat(rng.choice(pool, 300), rng.integers(1, 40, 300))
        cells = format_numbers(values, sep)
        assert cells.dtype == object and cells.shape == values.shape
        assert cells.tolist() == [format_number(v) + sep for v in values.tolist()]

    def test_join_cells_lays_rows_out_in_order(self):
        cells = format_numbers([1.0, 2.5, -0.0], " "), format_numbers([np.nan, 7.0, 1e20], "\n")
        assert join_cells(*cells) == "1 nan\n2.5 7\n0 100000000000000000000\n"
        assert join_cells(format_numbers([], "\t"), format_numbers([], "\n")) == ""


class TestFormatTable:
    def test_zero_rows_give_the_header_alone(self):
        assert format_table("a\tb", np.array([]), ([], np.array([], np.int64))) == "a\tb\n"
        assert format_table("# kind\na", []) == "# kind\na\n"

    def test_label_column_reads_texts_at_codes(self):
        text = format_table("n\tname", [1.0, 2.5, -0.0], (("kettle", "oven"), [1, 0, 1]))
        assert text == "n\tname\n1\toven\n2.5\tkettle\n0\toven\n"

    def test_last_cell_ends_the_line(self):
        text = format_table("name\tn", (["a", "b"], [1, 0]), [7.0, 2.0**60])
        assert text == "name\tn\nb\t7\na\t1152921504606846976\n"
        assert format_table("x", [0.5, 3.0]) == "x\n0.5\n3\n"


# every line break str.splitlines splits on
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestFitsOneCell:
    @pytest.mark.parametrize("bad", [*BREAKS, "\t"])
    def test_tab_or_line_break_anywhere_is_refused(self, bad):
        for name in (f"my{bad}kettle", f"kettle{bad}", f"{bad}kettle", bad):
            assert not fits_one_cell(name)

    @pytest.mark.parametrize("name", ["kettle", "my kettle", "on1", "Küche", ""])
    def test_other_text_fits(self, name):
        assert fits_one_cell(name)


class TestAtomicWrite:
    def test_creates_and_replaces(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write(p, "first\n")
        assert p.read_text() == "first\n"
        atomic_write(p, "second\n")
        assert p.read_text() == "second\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_bytes_written_as_given(self, tmp_path):
        p = tmp_path / "out.bin"
        atomic_write(p, b"\x00\xff\r\n")
        assert p.read_bytes() == b"\x00\xff\r\n"
        atomic_write(p, "\u00e9\n")
        assert p.read_bytes() == "\u00e9\n".encode("utf-8")
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_is_what_open_gives(self, tmp_path, umask, mode):
        p = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            atomic_write(p, "x\n")
            with open(tmp_path / "by_open.txt", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        assert p.stat().st_mode & 0o777 == mode
        assert (tmp_path / "by_open.txt").stat().st_mode & 0o777 == mode


class TestRoundTrip:
    def test_full_model(self, tmp_path):
        path = tmp_path / "models.json"
        save_models(path, [rich_model()])
        loaded = load_models(path)
        assert loaded == [rich_model()]

    def test_minimal_model_without_behaviors(self, tmp_path):
        m = two_mode_model("heater", 900.0, 1100.0)
        m = ApplianceModel(
            appliance_id=m.appliance_id,
            states=m.states,
            transitions=m.transitions,
            participation=m.participation,
            behaviors=None,
        )
        path = tmp_path / "models.json"
        save_models(path, [m])
        assert load_models(path) == [m]

    def test_appliances_sorted_by_id(self, tmp_path):
        a = two_mode_model("zed", 10.0, 20.0)
        b = two_mode_model("abc", 30.0, 40.0)
        path = tmp_path / "models.json"
        save_models(path, [a, b])
        loaded = load_models(path)
        assert [m.appliance_id for m in loaded] == ["abc", "zed"]

    def test_save_is_deterministic(self, tmp_path):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        save_models(p1, [rich_model(), two_mode_model("b", 40.0, 60.0)])
        save_models(p2, [rich_model(), two_mode_model("b", 40.0, 60.0)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_then_save_is_stable(self, tmp_path):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        save_models(p1, [rich_model()])
        save_models(p2, load_models(p1))
        assert p1.read_bytes() == p2.read_bytes()


class TestNonFiniteModel:
    """A model holding a non-finite number is refused before a file is made."""

    @staticmethod
    def overflowing_model():
        flat = sig(np.full(48, 1e308))
        with np.errstate(over="ignore"):  # its mode's centroid overflows to inf
            models = train_models({"x": flat}, flat, RunConfig()).models
        assert not np.isfinite([s.centroid for s in models[0].states.states]).all()
        return models

    def test_no_new_file(self, tmp_path):
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_models(tmp_path / "m.json", self.overflowing_model())
        assert list(tmp_path.iterdir()) == []

    def test_existing_file_untouched(self, tmp_path):
        path = tmp_path / "m.json"
        save_models(path, [rich_model()])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_models(path, self.overflowing_model())
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestTrainedRoundTrip:
    """save -> load -> save keeps the bytes of models trained on every household."""

    @pytest.mark.parametrize("household", ["demo", "balanced"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_resave_is_identical(self, tmp_path, household, seed):
        make = demo_household if household == "demo" else balanced_household
        result = generate(make(), days=7, seed=seed)
        models = train_models(result.appliances, result.aggregate, RunConfig()).models
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_models(first, models)
        save_models(second, load_models(first))
        assert second.read_bytes() == first.read_bytes()


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_models(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="not valid JSON"):
            load_models(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_bytes(b'{\n"schema_version": 1,\n"id": "\xff"}')
        with pytest.raises(ParseError, match=r"m\.json:3: not UTF-8 text"):
            load_models(p)

    def test_missing_schema_version(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"appliances": []}), encoding="utf-8")
        with pytest.raises(ParseError, match="schema_version"):
            load_models(p)

    def test_wrong_schema_version(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps({"schema_version": 99, "appliances": []}), encoding="utf-8"
        )
        with pytest.raises(ParseError, match=r"schema version 99 unsupported"):
            load_models(p)

    def test_truncated_model_entry(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION, "appliances": [{"id": "x"}]}),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="malformed"):
            load_models(p)

    @pytest.mark.parametrize("bad", ["\t", "\n", "\u2028", "\x85"])
    @pytest.mark.parametrize("key, name", [("id", "washer"), ("mode", "on1")])
    def test_name_a_report_cannot_hold(self, tmp_path, key, name, bad):
        """Such an id or mode would split its report line in two."""
        p = tmp_path / "m.json"
        save_models(p, [rich_model()])
        p.write_text(p.read_text().replace(f'"{name}"', json.dumps(f"x{bad}y")), encoding="utf-8")
        want = rf"m\.json: malformed model entry: '{key}' .* holds a tab or line break"
        with pytest.raises(ParseError, match=want):
            load_models(p)
