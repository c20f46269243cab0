"""Pinned output bytes of the library flow at seed 0.

A change meant to keep every output byte-identical, such as a refactor or a
speed-up, must leave these digests as they are. A change that alters the
model file or the event report on purpose updates the pin and says why.
The pinned model file must also survive a load and a save byte for byte.
"""

import hashlib

import pytest

from eventnilm import model_io, pipeline
from eventnilm.config import RunConfig
from eventnilm.dataset import slice_days
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("household, days, train_days", sorted(PINS))
def test_model_and_report_bytes(household, days, train_days, tmp_path):
    result = generate(
        demo_household() if household == "demo" else balanced_household(), days=days, seed=0
    )
    base = result.aggregate.start_time
    train, test = (0, train_days - 1), (train_days, days - 1)
    config = RunConfig()
    models = pipeline.train_models(
        {n: slice_days(s, train, base) for n, s in result.appliances.items()},
        slice_days(result.aggregate, train, base),
        config,
    ).models
    model_path = tmp_path / "models.json"
    model_io.save_models(model_path, models)
    aggregate = slice_days(result.aggregate, test, base)
    labeled, _ = pipeline.disaggregate(aggregate, models, config)
    report = pipeline.format_event_report(labeled, aggregate)
    assert (sha256(model_path.read_bytes()), sha256(report.encode())) == PINS[
        household, days, train_days
    ]
    resaved = tmp_path / "resaved.json"
    model_io.save_models(resaved, model_io.load_models(model_path))
    assert resaved.read_bytes() == model_path.read_bytes()
