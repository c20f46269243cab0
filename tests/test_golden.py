"""Pinned output bytes of the library flow, the written dataset and the
single-channel commands, at seed 0, and of the generator at seeds 1 and 2.

A change meant to keep every output byte-identical, such as a refactor or a
speed-up, must leave these digests as they are. A change that alters the
dataset files, the model file, the event report or the scoring on purpose
updates the pin and says why. The pinned model file must also survive a load
and a save byte for byte.
"""

import hashlib

import pytest

from eventnilm import model_io, pipeline
from eventnilm.cli import main
from eventnilm.config import RunConfig
from eventnilm.dataset import slice_days
from eventnilm.evaluation import LabelPoint
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import truth_events

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

# (household, days, training days): sha256 of each file ``eventnilm synth``
# writes at seed 0
DATASET_PINS = {
    ("balanced", 3, 2): {
        "channel_1.dat": "f012e34f78e65c78e1c4ec87eadc0237b5877dc6cf10f6fbf103bf5f884e7d1a",
        "channel_2.dat": "6dd93d5194ba1bcfef1c96943f897a6740547fa553ffd8bc9254719cbe734b98",
        "channel_3.dat": "fbbaa3a69fe9f2198c30e1b64a414b009d8829191e04a9646bf3e58d3b9defc4",
        "channel_4.dat": "422390d97d118918d7e16cecb08fac88114acb50265bb03719277d0038624697",
        "channel_5.dat": "4b277e936b3337c4f57c9c91fc70457538229007091715bc21281493f378494f",
        "channel_6.dat": "09cadfb66326c0f40be5b17def15826b1274806ebfcc5dfce43603e826731847",
        "channel_7.dat": "5a7b84fce45bcf7be5bc24d2512317ad3e3b5e05820bfcafc96d661ded8136d9",
        "ground_truth.tsv": "d9a19ad2e6489aea6911a8abbf23ebddc7f635715b690c257ded4bfbcaac41f7",
        "labels.dat": "b8bc0083df8688b173ded2f523edb1c0364cc83b2a7b40e8d6a98661d103213e",
        "manifest.cfg": "ca4ab8b8a6bc4467249b3fd8297d81a40bc7f8c74fa42d06d9952c300932b690",
    },
    ("demo", 28, 21): {
        "channel_1.dat": "cc1ba33822a7bafeeb7ce22630d7c2e22fdb530631d91b84050a8fde1ed7ec30",
        "channel_2.dat": "053df6536b223b1474c440788db269e762c66563a1d86b8f068c9e4621d3091f",
        "channel_3.dat": "b22088cfcb2e5014baa3b7f30a4a2cecba12c455c8d0b40d6de02c2848299af8",
        "channel_4.dat": "92ed5c8649f5746c9ba2d0f60cb6cd74e2f02ebc2e0f7c1c48be67a3694e5686",
        "channel_5.dat": "d32f54884fbb681a59c042e3364d40e28091a5723a9727d40e65f89cb7966108",
        "channel_6.dat": "3095a9b0d88aa691638f2bb73caedc0390c23dc09a59ea4cbe6cb41e08f6ad52",
        "channel_7.dat": "9ac4e5aa68a4ef6030768ec4aad97277ab2c82284563a358acaa44fd743bd363",
        "ground_truth.tsv": "c6bd608e46d7f248fc30f13758933089a07d9e13f5171a30f720ec2c9740836c",
        "labels.dat": "2f8bbd7a9a6b286452fd8fe1a6bd6e8852a17ce8f18ba419141ada77c0f68cb9",
        "manifest.cfg": "54b70209aaf4841579b2bd9332d4dbd50cd1fb54e7635a4fd82cc7f7d4c34f29",
    },
}


# (household, days, training days, channel): sha256 of each file the
# single-channel commands write for that channel of the seed-0 dataset, with
# ``plot-data`` given the model trained on it
CHANNEL_PINS = {
    ("balanced", 3, 2, 1): {
        "cycles.tsv": "c7b3f7242e447cb0eac1ad46fab98e1d60ed27b6f056af8787acaf79778fce54",
        "detected.tsv": "4fa4a9bdca75d8cf1d8c8c3aab0e815b1365732c5d41ac9bc85fa40f7fd4b5c1",
        "events.tsv": "4fa4a9bdca75d8cf1d8c8c3aab0e815b1365732c5d41ac9bc85fa40f7fd4b5c1",
        "filtered.tsv": "3dadc8e037760c9b307d984e5b51a4078cc98d2eaeafb384f56df44cc02ff840",
        "modes.tsv": "7c8121cf95f412b838540bc6bf456b7ce49716ba6cc98b5b9b78374e4cfcefb1",
        "signal.tsv": "42b2c6b1a2f81ec2b896c9b6bbd5f4f4e9c940d7a9e70f5c1378172198bf0b83",
    },
    ("demo", 3, 2, 2): {
        "cycles.tsv": "bb7e99d5ef456d9471b0c610fbfb4253057bebe35e42f21d551ba9129968e906",
        "detected.tsv": "7c739481603e51d2fb5b21d5a8f8d4b5a197f6dd0303a4cae6c4ed261ae85501",
        "events.tsv": "7c739481603e51d2fb5b21d5a8f8d4b5a197f6dd0303a4cae6c4ed261ae85501",
        "filtered.tsv": "786126fd59a1ec001b90e20bd373c489c83f1398b79e7a910d0b7d96b2acee19",
        "modes.tsv": "efd8e04ed5e8c1f9c89735e2eed9e6b4c8670d4b7185dfd79b30fd9349b57dd6",
        "signal.tsv": "1078374c99f8c18de4fc1e171005d656533d2190e0f4a97aa7a7927c332114d5",
    },
}


# (household, seed, sample period, days): sha256 of ``generate``'s arrays (each
# appliance's values after its name, in name order, then the aggregate's), of
# its truth rows with ``repr`` magnitudes
GENERATE_PINS = {
    ("balanced", 1, 6.0, 2): (
        "64ee446bbc2dc073f88836d735850782fb88dd625c66cfa8be9aa6c7bb0439d6",
        "df11314af4a80a38c6f55c27b2c249c13a4dc7e175ddb875308245a6be6e0fc3",
    ),
    ("balanced", 1, 60.0, 5): (
        "4c05d791a9f5677707687e645c6e8034baa5294e7378ef0bdfd278224a58fbdd",
        "f6dbaf06c126f7952b85131eb040866a0efb262d6e0c9545de0db19cdbcc2c03",
    ),
    ("balanced", 2, 6.0, 2): (
        "46fd2a917f58bf69e6d4d2564895c7e9f8550cc209756aa080871f56567d734f",
        "4252a6cf60de1129ca000616dbf4a58ddc7ffef3e099fe4edafb6a99fcba3c50",
    ),
    ("balanced", 2, 60.0, 5): (
        "c6cf6b88d9824be4f672f91bdfdbedcefb55516bea29963445165990898b0ec5",
        "0fb20e59ac1ba5c199cbcbc0b9fd409b6e61ca89fc8c355892c2c6b92f5f05e5",
    ),
    ("demo", 1, 6.0, 2): (
        "8eb08a37947dfcddfa2f962d71f4ccebcdb3b5b90a64a8cec239d1e6ba6d7c58",
        "0a4cfafded4026e6a359e1632e970e6ab44b79155eba94a593205fbe1ed7f397",
    ),
    ("demo", 1, 60.0, 5): (
        "682e833bcf437610972a8a2ff4d9329ba0ffc3e4ff826613244a7f3016d35b81",
        "49eee2028dc8b7f584900a6a905fe8ce4e5af275f40ed21d979c3c62138d8c7e",
    ),
    ("demo", 2, 6.0, 2): (
        "8bdef1e6dcac5b7ff2bf7229e9e3e0c444b7786580196723bb2a157e52d634a1",
        "8cb6509d8dc98c1c12eee7792e54974db0ebbab5aa638d4d6c8493b11f4e5135",
    ),
    ("demo", 2, 60.0, 5): (
        "642732c486693bdc4ff6cc13ef77289217e385a00fd7756552beb216641bed3b",
        "82e0b9b3d7a40512efe591939c647b2969f1c23496009b9260d2fe353588115a",
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
    counts = pipeline.match_events(predicted, truth, config.match_tolerance)
    metrics = pipeline.format_metrics(counts)
    assert (sha256(rows.encode()), sha256(metrics.encode())) == SCORING_PINS[
        household, days, train_days
    ]


@pytest.mark.parametrize("household, days, train_days", sorted(DATASET_PINS))
def test_written_dataset_bytes(household, days, train_days, tmp_path, capsys):
    args = ["synth", "--output", str(tmp_path), "--household", household, "--seed", "0"]
    assert main(args + ["--days", str(days), "--train-days", str(train_days)]) == 0
    capsys.readouterr()
    written = {f.name: sha256(f.read_bytes()) for f in tmp_path.iterdir()}
    assert written == DATASET_PINS[household, days, train_days]


@pytest.mark.parametrize("household, days, train_days, channel", sorted(CHANNEL_PINS))
def test_single_channel_command_bytes(household, days, train_days, channel, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    out.mkdir()
    args = ["synth", "--output", str(data), "--household", household, "--seed", "0"]
    assert main(args + ["--days", str(days), "--train-days", str(train_days)]) == 0
    models = str(tmp_path / "models.json")
    assert main(["train", "--manifest", str(data / "manifest.cfg"), "--output", models]) == 0
    source = ["--input", str(data / f"channel_{channel}.dat")]
    for command, target in [
        ("filter", "filtered.tsv"),
        ("detect-events", "detected.tsv"),
        ("extract-modes", "modes.tsv"),
    ]:
        assert main([command, *source, "--output", str(out / target)]) == 0
    assert main(["plot-data", *source, "--output", str(out), "--model", models]) == 0
    capsys.readouterr()
    written = {f.name: sha256(f.read_bytes()) for f in out.iterdir()}
    assert written == CHANNEL_PINS[household, days, train_days, channel]


def generate_digests(result):
    arrays = hashlib.sha256()
    for name in sorted(result.appliances):
        arrays.update(name.encode() + b"\0" + result.appliances[name].values.tobytes())
    arrays.update(result.aggregate.values.tobytes())
    rows = "".join(
        f"{t.index}\t{t.appliance}\t{t.from_mode}\t{t.to_mode}\t{t.magnitude!r}\n"
        for t in truth_events(result)
    )
    return arrays.hexdigest(), sha256(rows.encode())


@pytest.mark.parametrize("household, seed, period, days", sorted(GENERATE_PINS))
def test_generated_household_bytes(household, seed, period, days):
    specs = demo_household() if household == "demo" else balanced_household()
    result = generate(specs, days=days, period=period, seed=seed)
    assert generate_digests(result) == GENERATE_PINS[household, seed, period, days]
