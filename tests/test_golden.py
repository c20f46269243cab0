"""Pinned output bytes of the library flow at seed 0.

A change meant to keep every output byte-identical, such as a refactor or a
speed-up, must leave these digests as they are. A change that alters the
model file, the event report or the scoring on purpose updates the pin and
says why. The pinned model file must also survive a load and a save byte
for byte.
"""

import hashlib

import pytest

from eventnilm import model_io, pipeline
from eventnilm.config import RunConfig
from eventnilm.dataset import slice_days
from eventnilm.evaluation import LabelPoint
from eventnilm.synth import balanced_household, demo_household, generate

# (household, days, training days): sha256 of the model file, of the event report
PINS = {
    ("balanced", 120, 7): (
        "b79aa3db834072554f47a891996806caa7dc31568bd549eb21c345ebf4a72f75",
        "628c57192a52418e557211efed55f884cb3579cee438ddb71904d9545ff82045",
    ),
    ("demo", 28, 21): (
        "5a1e74cd5d5f75d09fda4391be9da10a371d6411b0e678ed3c156aefd2c5a433",
        "7acd20be79a5e0b00e6a0c6a9cbdaade22cb80b9c74767c9b0e797cd2eeccc6d",
    ),
}

# (household, days, training days): sha256 of the ground-truth rows, of the
# ``format_metrics`` text scoring the event report against them
SCORING_PINS = {
    ("balanced", 120, 7): (
        "0bf58c140b81753db436b82672960149417b84ab29ca0b795c8405cce56fe93c",
        "891814c7c75e8d7896854202d32f8a609b8957fadca3cab57e91ca6e480596ec",
    ),
    ("demo", 28, 21): (
        "cae79699c320907fc9a2d956cd4a6691df4183136716eac296ac4e54e7342dac",
        "d13d044c37f287538e0e22bb180aa76aad6dfe3bdf4a9ba751f3e1bd9ab5934b",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_flow(household, days, train_days):
    """Train on the first days, label the rest: (generated, config, models, labeled)."""
    result = generate(
        demo_household() if household == "demo" else balanced_household(), days=days, seed=0
    )
    base = result.aggregate.start_time
    config = RunConfig()
    models = pipeline.train_models(
        {n: slice_days(s, (0, train_days - 1), base) for n, s in result.appliances.items()},
        slice_days(result.aggregate, (0, train_days - 1), base),
        config,
    ).models
    aggregate = slice_days(result.aggregate, (train_days, days - 1), base)
    labeled, _ = pipeline.disaggregate(aggregate, models, config)
    return result, config, models, labeled


@pytest.mark.parametrize("household, days, train_days", sorted(PINS))
def test_model_and_report_bytes(household, days, train_days, tmp_path):
    result, _, models, labeled = run_flow(household, days, train_days)
    model_path = tmp_path / "models.json"
    model_io.save_models(model_path, models)
    base = result.aggregate.start_time
    aggregate = slice_days(result.aggregate, (train_days, days - 1), base)
    report = pipeline.format_event_report(labeled, aggregate)
    assert (sha256(model_path.read_bytes()), sha256(report.encode())) == PINS[
        household, days, train_days
    ]
    resaved = tmp_path / "resaved.json"
    model_io.save_models(resaved, model_io.load_models(model_path))
    assert resaved.read_bytes() == model_path.read_bytes()


@pytest.mark.parametrize("household, days, train_days", sorted(SCORING_PINS))
def test_ground_truth_and_metrics_bytes(household, days, train_days):
    result, config, models, labeled = run_flow(household, days, train_days)
    base = result.aggregate.start_time
    test_apps = {
        n: slice_days(s, (train_days, days - 1), base) for n, s in result.appliances.items()
    }
    truth = pipeline.build_ground_truth(test_apps, models)
    rows = "".join(f"{p.index}\t{p.appliance}\t{p.from_mode}\t{p.to_mode}\n" for p in truth)
    predicted = [
        LabelPoint(l.event.index, l.appliance, l.transition.from_mode, l.transition.to_mode)
        for l in labeled
    ]
    counts, _ = pipeline.evaluate_points(predicted, truth, config.match_tolerance)
    metrics = pipeline.format_metrics(counts)
    assert (sha256(rows.encode()), sha256(metrics.encode())) == SCORING_PINS[
        household, days, train_days
    ]
