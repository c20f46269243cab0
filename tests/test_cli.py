"""Command-line interface, driven in process through main()."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eventnilm
from eventnilm import dataset as dataset_module
from eventnilm import signals
from eventnilm.cli import _read_signal, main
from eventnilm.evaluation import LabelPoint
from eventnilm.filtering import filter_and_detect
from eventnilm.model_io import save_models
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import reference_filter_table, two_mode_model


def copy_dataset(src, dst):
    for f in src.iterdir():
        if f.suffix in (".cfg", ".dat"):
            (dst / f.name).write_bytes(f.read_bytes())
    return dst / "manifest.cfg"


def write_channel(path, values, period=10.0, start=0.0):
    lines = [f"{start + i * period:g} {v:g}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def step_values(n=60, lo=0.0, hi=800.0, on=(20, 40)):
    vals = np.full(n, lo)
    vals[on[0] : on[1]] = hi
    return vals


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["filter", "--output", "x"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "disaggregation" in capsys.readouterr().out

    def test_data_error(self, tmp_path, capsys):
        code = main(
            ["train", "--manifest", str(tmp_path / "nope.cfg"), "--output", "m.json"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_synth_needs_test_days(self, tmp_path, capsys):
        # a zero or negative count must fail before anything is written
        for train_days in ("3", "0", "-1"):
            args = ["synth", "--output", str(tmp_path), "--days", "3"]
            code = main(args + ["--train-days", train_days])
            assert code == 1
            assert "train day count" in capsys.readouterr().err
            assert not any(tmp_path.iterdir())

    def test_period_must_be_positive(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        out = tmp_path / "out"
        for command in ("synth", "filter", "detect-events", "extract-modes", "plot-data"):
            args = [command, "--output", str(out)]
            if command != "synth":
                args += ["--input", str(channel)]
            for period in ("0", "-5"):
                assert main(args + ["--period", period]) == 1
                assert "period must be a positive number" in capsys.readouterr().err
                assert not out.exists()

    def test_bad_manifest_number_is_data_error(self, dataset, tmp_path, capsys):
        manifest = copy_dataset(dataset, tmp_path)
        manifest.write_text(manifest.read_text().replace("period = 30", "period = nan"))
        code = main(["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert "period must be a finite positive number" in capsys.readouterr().err

    def test_report_index_not_integer_is_data_error(self, dataset, tmp_path, capsys):
        model = tmp_path / "m.json"
        save_models(model, [two_mode_model("heater", 790.0, 810.0)])
        report = tmp_path / "report.tsv"
        report.write_text(
            "# event report 1\n"
            "timestamp\tindex\tmagnitude\tappliance\tfrom_mode\tto_mode\tstage\n"
            "1600000000\t12\t800\theater\toff\ton1\tcontainment\n"
            "1600000300\t2x\t-800\theater\ton1\toff\tcontainment\n",
            encoding="utf-8",
        )
        args = ["--manifest", str(dataset / "manifest.cfg"), "--model", str(model)]
        assert main(["evaluate", *args, "--report", str(report)]) == 2
        assert "report.tsv:4: index must be an integer" in capsys.readouterr().err


class TestChannelCommands:
    def test_filter_removes_spike(self, tmp_path, capsys):
        vals = step_values()
        vals[10] = 4000.0
        channel = write_channel(tmp_path / "ch.dat", vals)
        out = tmp_path / "filtered.tsv"
        assert main(["filter", "--input", str(channel), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time\tfiltered"
        assert len(lines) == 1 + len(vals)
        filtered = [float(line.split("\t")[1]) for line in lines[1:]]
        assert max(filtered) == 800.0
        assert "wrote 60 filtered samples" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [0, 1])
    def test_filter_text_equals_per_sample_reference(self, seed, tmp_path, capsys):
        result = generate(demo_household(), days=1, seed=seed)
        channels = [result.aggregate, *result.appliances.values()]
        for k, s in enumerate(channels):
            times = 1.6e9 + 0.5 + np.arange(len(s)) * s.sample_period
            rows = [f"{t!r} {w!r}" for t, w in zip(times.tolist(), s.values.tolist())]
            if k == 1:  # signed zeros in the file
                rows = [r.replace(" 0.0", " -0.0") for r in rows]
                assert any(r.endswith(" -0.0") for r in rows)
            channel = tmp_path / f"ch{k}.dat"
            channel.write_text("\n".join(rows) + "\n", encoding="utf-8")
            out = tmp_path / f"filtered{k}.tsv"
            assert main(["filter", "--input", str(channel), "--output", str(out)]) == 0
            filtered, _ = filter_and_detect(_read_signal(str(channel), None))
            assert out.read_text() == reference_filter_table(filtered)

    def test_detect_events_table(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        out = tmp_path / "events.tsv"
        code = main(["detect-events", "--input", str(channel), "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index\ttime\tmagnitude\tpre_level\tpost_level"
        rows = [line.split("\t") for line in lines[1:]]
        assert [r[2] for r in rows] == ["800", "-800"]
        capsys.readouterr()

    def test_extract_modes_table(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values(n=120, on=(30, 80)))
        out = tmp_path / "states.tsv"
        code = main(["extract-modes", "--input", str(channel), "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode\tlow\thigh\tcentroid\tsize"
        modes = [line.split("\t")[0] for line in lines[1:]]
        assert modes == ["off", "on1"]
        capsys.readouterr()

    def test_plot_data_files(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        outdir = tmp_path / "plots"
        code = main(["plot-data", "--input", str(channel), "--output", str(outdir)])
        assert code == 0
        assert (outdir / "signal.tsv").is_file()
        assert (outdir / "events.tsv").is_file()
        assert not (outdir / "cycles.tsv").exists()
        capsys.readouterr()

    def test_plot_events_equal_detect_events(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        outdir, events = tmp_path / "plots", tmp_path / "events.tsv"
        assert main(["plot-data", "--input", str(channel), "--output", str(outdir)]) == 0
        assert main(["detect-events", "--input", str(channel), "--output", str(events)]) == 0
        assert (outdir / "events.tsv").read_bytes() == events.read_bytes()
        assert len(events.read_text().splitlines()) > 1
        capsys.readouterr()

    def test_plot_data_with_model_adds_cycles(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        model_path = tmp_path / "models.json"
        save_models(model_path, [two_mode_model("heater", 790.0, 810.0)])
        outdir = tmp_path / "plots"
        code = main(
            [
                "plot-data",
                "--input",
                str(channel),
                "--output",
                str(outdir),
                "--model",
                str(model_path),
            ]
        )
        assert code == 0
        lines = (outdir / "cycles.tsv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0\t1\t")
        capsys.readouterr()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("flow")
    code = main(
        [
            "synth",
            "--output",
            str(root),
            "--days",
            "4",
            "--train-days",
            "3",
            "--period",
            "30",
            "--household",
            "balanced",
            "--seed",
            "11",
        ]
    )
    assert code == 0
    return root


class TestMeterFaults:
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_is_data_error(self, tmp_path, capsys, bad):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        lines = channel.read_text().splitlines()
        lines[5] = f"50 {bad}"
        channel.write_text("\n".join(lines) + "\n")
        out = tmp_path / "events.tsv"
        assert main(["detect-events", "--input", str(channel), "--output", str(out)]) == 2
        assert "ch.dat:6: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_fails_train(self, dataset, tmp_path, capsys, bad):
        for f in dataset.iterdir():
            if f.suffix in (".cfg", ".dat"):
                (tmp_path / f.name).write_bytes(f.read_bytes())
        channel = tmp_path / "channel_1.dat"
        lines = channel.read_text().splitlines()
        lines[3] = lines[3].split()[0] + " " + bad
        channel.write_text("\n".join(lines) + "\n")
        manifest, out = tmp_path / "manifest.cfg", tmp_path / "m.json"
        code = main(["train", "--manifest", str(manifest), "--output", str(out)])
        assert code == 2
        assert "channel_1.dat:4: non-finite" in capsys.readouterr().err

    def test_not_utf8_channel_is_data_error(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        channel.write_bytes(channel.read_bytes().replace(b"\n50 ", b"\n50 \xff", 1))
        out = tmp_path / "events.tsv"
        assert main(["detect-events", "--input", str(channel), "--output", str(out)]) == 2
        assert "ch.dat:6: not UTF-8 text" in capsys.readouterr().err

    def test_not_utf8_channel_fails_train(self, dataset, tmp_path, capsys):
        manifest = copy_dataset(dataset, tmp_path)
        channel = tmp_path / "channel_2.dat"
        channel.write_bytes(channel.read_bytes() + b"\xff\xfe\n")
        code = main(["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert "channel_2.dat" in capsys.readouterr().err

    def test_negative_sample_is_clipped(self, tmp_path, capsys):
        vals = step_values()
        vals[5] = -12.0
        channel = write_channel(tmp_path / "ch.dat", vals)
        out = tmp_path / "events.tsv"
        assert main(["detect-events", "--input", str(channel), "--output", str(out)]) == 0
        assert "wrote 2 events" in capsys.readouterr().out


    def test_negative_readings_noted(self, tmp_path, capsys):
        vals = step_values()
        vals[[5, 7]] = -12.0
        channel = write_channel(tmp_path / "ch.dat", vals)
        out = tmp_path / "events.tsv"
        assert main(["detect-events", "--input", str(channel), "--output", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == "note: ch: 2 negative readings clipped to 0 W, 0 gaps longer than 60 s\n"

    def test_gap_noted(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        lines = channel.read_text().splitlines()
        channel.write_text("\n".join(lines[:10] + lines[18:]) + "\n")  # a 90 s hole
        out = tmp_path / "filtered.tsv"
        assert main(["filter", "--input", str(channel), "--output", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == "note: ch: 0 negative readings clipped to 0 W, 1 gaps longer than 60 s\n"

    def test_slow_channel_gaps_judged_by_its_period(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "slow.dat", step_values(200, on=(50, 120)), 120.0)
        out = tmp_path / "events.tsv"
        args = ["detect-events", "--input", str(channel), "--output", str(out)]
        assert main(args) == 0
        assert capsys.readouterr().err == ""  # regular 120 s spacing is no gap
        lines = channel.read_text().splitlines()
        channel.write_text("\n".join(lines[:80] + lines[81:]) + "\n")  # one 240 s hole
        assert main(args) == 0
        err = capsys.readouterr().err
        assert err == "note: slow: 0 negative readings clipped to 0 W, 1 gaps longer than 180 s\n"

    @pytest.mark.parametrize("period", [None, "20"])
    def test_20s_channel_gaps_judged_as_before(self, tmp_path, capsys, period):
        channel = write_channel(tmp_path / "ch.dat", step_values(), 20.0)
        lines = channel.read_text().splitlines()
        out = tmp_path / "filtered.tsv"
        args = ["filter", "--input", str(channel), "--output", str(out)]
        args += ["--period", period] if period else []
        channel.write_text("\n".join(lines[:10] + lines[11:]) + "\n")  # a 40 s hole
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        channel.write_text("\n".join(lines[:10] + lines[13:]) + "\n")  # an 80 s hole
        assert main(args) == 0
        err = capsys.readouterr().err
        assert err == "note: ch: 0 negative readings clipped to 0 W, 1 gaps longer than 60 s\n"

    def test_duplicate_and_swapped_timestamps_noted(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        out = tmp_path / "events.tsv"
        args = ["detect-events", "--input", str(channel), "--output", str(out)]
        assert main(args) == 0
        assert capsys.readouterr().err == ""  # clean data
        lines = channel.read_text().splitlines()
        lines.insert(6, lines[5].split()[0] + " 3")  # a second reading at line 6's time
        lines[30], lines[31] = lines[31], lines[30]
        channel.write_text("\n".join(lines) + "\n")
        assert main(args) == 0
        assert capsys.readouterr().err == (
            "note: ch: 0 negative readings clipped to 0 W, 0 gaps longer than 60 s,"
            " 1 duplicate and 1 out-of-order timestamps\n"
        )

    def test_dataset_disorder_noted_per_appliance(self, dataset, tmp_path, capsys):
        manifest = copy_dataset(dataset, tmp_path)
        names = dict(line.split() for line in (tmp_path / "labels.dat").read_text().splitlines())
        second = tmp_path / "channel_2.dat"
        lines = second.read_text().splitlines()
        lines[40], lines[41] = lines[41], lines[40]
        lines.insert(51, lines[50])  # the same line twice
        second.write_text("\n".join(lines) + "\n")
        code = main(["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.json")])
        assert code == 0
        notes = [n for n in capsys.readouterr().err.splitlines() if "negative readings" in n]
        assert notes == [
            f"note: {names['2']}: 0 negative readings clipped to 0 W, 0 gaps longer than 60 s,"
            " 1 duplicate and 1 out-of-order timestamps"
        ]

    def test_dataset_faults_noted_per_appliance(self, dataset, tmp_path, capsys):
        manifest = copy_dataset(dataset, tmp_path)
        names = dict(line.split() for line in (tmp_path / "labels.dat").read_text().splitlines())
        first = tmp_path / "channel_1.dat"
        lines = first.read_text().splitlines()
        first.write_text("\n".join(lines[:100] + lines[110:]) + "\n")  # a 330 s hole
        second = tmp_path / "channel_2.dat"
        lines = second.read_text().splitlines()
        lines[3] = lines[3].split()[0] + " -7"
        second.write_text("\n".join(lines) + "\n")
        code = main(["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.json")])
        assert code == 0
        notes = [n for n in capsys.readouterr().err.splitlines() if "negative readings" in n]
        assert notes == [
            f"note: {names['1']}: 0 negative readings clipped to 0 W, 1 gaps longer than 60 s",
            f"note: {names['2']}: 1 negative readings clipped to 0 W, 0 gaps longer than 60 s",
        ]

    def test_clean_dataset_prints_no_fault_note(self, dataset, tmp_path, capsys):
        manifest, out = dataset / "manifest.cfg", tmp_path / "m.json"
        assert main(["train", "--manifest", str(manifest), "--output", str(out)]) == 0
        assert "negative readings" not in capsys.readouterr().err

    def test_slow_dataset_gaps_judged_by_its_period(self, tmp_path, capsys):
        result = generate(balanced_household()[:2], days=2, period=120.0, seed=1)
        manifest = dataset_module.write_dataset(tmp_path, result, (0, 0), (1, 1))
        args = ["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.json")]
        assert main(args) == 0
        assert "gaps longer" not in capsys.readouterr().err  # regular 120 s spacing is no gap
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("max_gap = 60\n")  # an explicit max_gap still wins
        assert main(args) == 0
        notes = [n for n in capsys.readouterr().err.splitlines() if "gaps longer" in n]
        assert notes == [
            f"note: {name}: 0 negative readings clipped to 0 W, 1439 gaps longer than 60 s"
            for name in sorted(result.appliances)
        ]


class TestFullFlow:
    def test_train_then_disaggregate_then_evaluate(self, dataset, capsys):
        manifest = dataset / "manifest.cfg"
        models = dataset / "models.json"
        report = dataset / "report.tsv"
        metrics = dataset / "metrics.tsv"

        assert main(["train", "--manifest", str(manifest), "--output", str(models)]) == 0
        assert models.is_file()

        code = main(
            [
                "disaggregate",
                "--manifest",
                str(manifest),
                "--model",
                str(models),
                "--output",
                str(report),
            ]
        )
        assert code == 0
        report_lines = report.read_text().splitlines()
        assert report_lines[0] == "# event report 1"
        assert len(report_lines) > 2

        code = main(
            [
                "evaluate",
                "--manifest",
                str(manifest),
                "--model",
                str(models),
                "--report",
                str(report),
                "--output",
                str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        table = metrics.read_text()
        assert table in out
        last = table.strip().splitlines()[-1]
        assert last.startswith("average_f\t")
        avg = float(last.split("\t")[1])
        assert 0.0 <= avg <= 1.0

    def test_disaggregate_is_deterministic(self, dataset, capsys):
        manifest = dataset / "manifest.cfg"
        models = dataset / "models.json"
        r1 = dataset / "rep1.tsv"
        r2 = dataset / "rep2.tsv"
        for out in (r1, r2):
            code = main(
                [
                    "disaggregate",
                    "--manifest",
                    str(manifest),
                    "--model",
                    str(models),
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()
        capsys.readouterr()


    def test_disaggregate_stderr_holds_only_notes(self, dataset, tmp_path, capsys):
        # a fresh process: logging is unconfigured there, as for users, while
        # pytest would capture any log record of an in-process call
        models = tmp_path / "models.json"
        manifest = dataset / "manifest.cfg"
        assert main(["train", "--manifest", str(manifest), "--output", str(models)]) == 0
        capsys.readouterr()
        src = str(Path(eventnilm.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-m", "eventnilm.cli", "disaggregate", "--manifest", str(manifest)]
        argv += ["--model", str(models), "--output", str(tmp_path / "report.tsv")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        notes = proc.stderr.splitlines()
        assert any(re.fullmatch(r"note: \d+ cycle\(s\) left unrefined", n) for n in notes)
        assert all(n.startswith("note: ") for n in notes)


    def test_evaluate_builds_no_label_points(self, dataset, tmp_path, capsys, monkeypatch):
        manifest = dataset / "manifest.cfg"
        models, report = tmp_path / "models.json", tmp_path / "report.tsv"
        assert main(["train", "--manifest", str(manifest), "--output", str(models)]) == 0
        args = ["--manifest", str(manifest), "--model", str(models)]
        assert main(["disaggregate", *args, "--output", str(report)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("LabelPoint built on the scoring path")

        monkeypatch.setattr(LabelPoint, "__init__", refuse)
        assert main(["evaluate", *args, "--report", str(report)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("average_f\t")

    def test_evaluate_leaves_numpy_ma_unloaded(self, dataset, tmp_path, capsys):
        # a fresh process: this one may have loaded numpy.ma for other tests
        manifest = dataset / "manifest.cfg"
        models, report = tmp_path / "models.json", tmp_path / "report.tsv"
        assert main(["train", "--manifest", str(manifest), "--output", str(models)]) == 0
        args = ["--manifest", str(manifest), "--model", str(models)]
        assert main(["disaggregate", *args, "--output", str(report)]) == 0
        capsys.readouterr()
        src = str(Path(eventnilm.__file__).parents[1])
        code = (
            "import sys\n"
            "from eventnilm.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules, 'numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-c", code, "evaluate", *args, "--report", str(report)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.stdout.splitlines()[-1] == "0 False True"


class TestRoundTrip:
    @pytest.mark.parametrize("household", ["demo", "balanced"])
    def test_loaded_channels_equal_the_generated_signals(
        self, household, tmp_path, capsys, monkeypatch
    ):
        args = ["synth", "--output", str(tmp_path), "--days", "2", "--train-days", "1"]
        assert main(args + ["--household", household, "--seed", "5"]) == 0
        capsys.readouterr()
        make = demo_household if household == "demo" else balanced_household
        result = generate(make(), days=2, period=20.0, seed=5)

        def refuse(*args, **kwargs):
            raise AssertionError("searched a channel written on its grid")

        monkeypatch.setattr(signals.np, "searchsorted", refuse)
        manifest = dataset_module.read_manifest(tmp_path / "manifest.cfg")
        bundle = dataset_module.load_dataset(manifest)
        assert sorted(bundle.appliances) == sorted(result.appliances)
        for name, loaded in bundle.appliances.items():
            assert loaded.sample_period == 20.0
            assert loaded.values.tobytes() == result.appliances[name].values.tobytes()
        assert bundle.aggregate.values.tobytes() == result.aggregate.values.tobytes()


class TestChannelCache:
    def test_warm_run_equals_cold_run(self, dataset, tmp_path, capsys, monkeypatch):
        manifest = copy_dataset(dataset, tmp_path)
        first = tmp_path / "channel_1.dat"
        lines = first.read_text().splitlines()
        lines[3] = lines[3].split()[0] + " -7"  # a negative reading
        lines[40], lines[41] = lines[41], lines[40]  # out of order
        lines.insert(51, lines[50])  # a duplicate
        first.write_text("\n".join(lines[:100] + lines[110:]) + "\n")  # and a gap
        models, report, metrics = tmp_path / "m.json", tmp_path / "r.tsv", tmp_path / "e.tsv"
        steps = [
            ["train", "--output", str(models)],
            ["disaggregate", "--model", str(models), "--output", str(report)],
            ["evaluate", "--model", str(models), "--report", str(report), "--output", str(metrics)],
        ]
        runs = []
        for run in ("cold", "warm"):
            if run == "warm":  # every channel must come from the cache now
                monkeypatch.setattr(dataset_module, "_parse_channel", None)
            outputs = []
            for step in steps:
                assert main([step[0], "--manifest", str(manifest), *step[1:]]) == 0
                outputs.append(capsys.readouterr())
            runs.append((outputs, [p.read_bytes() for p in (models, report, metrics)]))
            cache = tmp_path / ".eventnilm-cache"
            assert len(list(cache.iterdir())) == len(list(tmp_path.glob("channel_*.dat")))
        assert runs[1] == runs[0]
        assert (
            "1 negative readings clipped to 0 W, 1 gaps longer than 60 s,"
            " 1 duplicate and 1 out-of-order timestamps"
        ) in runs[0][0][0].err


class TestOutputPaths:
    """An output path the file system refuses is a data error, not an internal one."""

    def test_train_into_a_missing_directory(self, dataset, tmp_path, capsys):
        manifest = str(dataset / "manifest.cfg")
        out = tmp_path / "nodir" / "m.json"
        assert main(["train", "--manifest", manifest, "--output", str(out)]) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err
        assert not (tmp_path / "nodir").exists()

    def test_train_onto_a_directory(self, dataset, tmp_path, capsys):
        manifest = str(dataset / "manifest.cfg")
        assert main(["train", "--manifest", manifest, "--output", str(tmp_path)]) == 2
        assert f"error: cannot write {tmp_path}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no temp file left behind

    def test_synth_into_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n", encoding="utf-8")
        argv = ["synth", "--output", str(out), "--days", "2", "--train-days", "1"]
        assert main(argv) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "keep\n"


class TestFileModes:
    def test_outputs_follow_the_umask(self, dataset, tmp_path, capsys):
        manifest = copy_dataset(dataset, tmp_path)
        model = tmp_path / "m.json"
        old = os.umask(0o022)
        try:
            assert main(["train", "--manifest", str(manifest), "--output", str(model)]) == 0
        finally:
            os.umask(old)
        entries = list((tmp_path / ".eventnilm-cache").iterdir())
        assert entries
        for path in [model, *entries]:
            assert path.stat().st_mode & 0o777 == 0o644, path.name


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n", encoding="utf-8")

        def dataset_bytes(out, extra):
            code = main(
                ["synth", "--output", str(out), "--days", "2", "--train-days", "1"]
                + extra
            )
            assert code == 0
            return (out / "channel_1.dat").read_bytes()

        from_config = dataset_bytes(tmp_path / "a", ["--config", str(cfg)])
        plain_seed1 = dataset_bytes(tmp_path / "b", ["--seed", "1"])
        overridden = dataset_bytes(
            tmp_path / "c", ["--config", str(cfg), "--seed", "2"]
        )
        assert from_config == plain_seed1
        assert overridden != plain_seed1
        capsys.readouterr()

    def test_bad_config_file_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("merge_ratio = 3.0\n", encoding="utf-8")
        channel = write_channel(tmp_path / "ch.dat", step_values())
        code = main(
            [
                "extract-modes",
                "--input",
                str(channel),
                "--output",
                str(tmp_path / "s.tsv"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.dat", step_values())
        code = main(
            [
                "extract-modes",
                "--input",
                str(channel),
                "--output",
                str(tmp_path / "s.tsv"),
                "--k-clusters",
                "many",
            ]
        )
        assert code == 1
        capsys.readouterr()
