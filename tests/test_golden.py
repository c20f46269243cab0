"""Pinned output bytes of the library flow at seed 0.

A change meant to keep every output byte-identical, such as a refactor or a
speed-up, must leave these digests as they are. A change that alters the
model file or the event report on purpose updates the pin and says why.
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
        "971651ab915a9b2b0f4b3a3088cbefa6aa712bb52da60b7826461cadfb0d4882",
        "628c57192a52418e557211efed55f884cb3579cee438ddb71904d9545ff82045",
    ),
    ("demo", 28, 21): (
        "7e52eab25d7b8faaf19a3f7204c6685221fd7f93d7f3daf1e288856b89e4ce7a",
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
