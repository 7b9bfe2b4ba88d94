"""Byte-identity pins for IL-CNN inference and training.

Every headline campaign drives the IL-CNN agent, so a change to how its
forward pass is computed must leave every ``RunRecord`` byte in place.
The SHA-256 digests below were captured from the ``np.pad`` im2col,
2-D ``x @ W`` layers and ``mean`` pooling that the frozen reference in
``ilcnn_reference.py`` keeps.  They pin:

* the records of a small NN-agent campaign under ``none``, ``gaussian``,
  ``output-delay`` and ``weight-bitflip``, run serially and multiplexed;
* the weights (and training losses) after a short seeded training run,
  so the training numerics provably do not move.

The digests hold for this numpy/OpenBLAS build; BLAS kernels on other
CPUs may round differently.

The property tests hold the batch-invariance guarantee the episode
multiplexer relies on: in inference mode every row of a batched
forward pass equals, bit for bit, the reference forward over that
sample alone, and the camera pooling equals ``mean`` at every integer
factor.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ilcnn_reference import reference_forward, reference_preprocess

from repro.agent import nn_agent_factory
from repro.agent.dataset import DrivingDataset
from repro.agent.ilcnn import ILCNN, ILCNNConfig, preprocess_image
from repro.agent.training import TrainConfig, train_ilcnn
from repro.core import Campaign, standard_scenarios
from repro.core.faults import GaussianNoise, OutputDelay, WeightBitFlip
from repro.sim.builders import SimulationBuilder
from repro.sim.town import GridTownConfig

#: Injector -> SHA-256 of its records (``to_dict``, key-sorted JSON).
RECORD_DIGESTS = {
    "none": "3319647104307dee91820134729e78bb77352feac1e3dfd693229a00ddf07c88",
    "gaussian": "8402b66a8c6531d5c9bdc49f6eca2845e1026b9eb09d75083cf5606fc9db9b7a",
    "output-delay": "c2348aad30b5e86fa187956d43d9ccc37a861ce95519b385306bf85dab506ee8",
    "weight-bitflip": "059347f3bebe97ca41b28945d88cda9cb4347353daa201656612012154268a04",
}

#: SHA-256 over the name-sorted weights and the per-epoch training losses.
TRAINED_DIGEST = "e2dbfe4e9dafcfff07cc445da8384316c49aa8a471b9c0170694ed33094f4526"

TINY = ILCNNConfig(input_hw=(16, 24), conv_channels=(4, 6, 6), trunk_dim=16,
                   speed_dim=4, branch_hidden=8, dropout=0.25, seed=3)


def driving_model() -> ILCNN:
    """The default architecture on seeded, untrained weights, with the
    output biases of every branch set to throttle and release the brake,
    so the ego moves and the records depend on what the network says."""
    model = ILCNN(ILCNNConfig(seed=11))
    model.set_training(False)
    for branch in model.branches:
        branch.modules[-1].b.data[:] = [0.0, 0.6, -1.0]
    return model


def campaign_scenarios():
    """Three short missions, one per weather, cut to a 6 s time limit."""
    suite = standard_scenarios(
        3, seed=5, town_config=GridTownConfig(rows=2, cols=3),
        n_npc_vehicles=1, n_pedestrians=1, min_distance=20, max_distance=40,
    )
    weathers = ("ClearNoon", "HardRainNoon", "FoggyNoon")
    return [
        replace(s, weather=w, mission=replace(s.mission, time_limit_s=6.0))
        for s, w in zip(suite, weathers)
    ]


def campaign_injectors():
    return {
        "none": [],
        "gaussian": [GaussianNoise(sigma=0.1)],
        "output-delay": [OutputDelay(delay_frames=3)],
        "weight-bitflip": [WeightBitFlip(n_flips=2)],
    }


def record_digests(result) -> dict[str, str]:
    grouped: dict[str, list[dict]] = {}
    for record in result.records:
        grouped.setdefault(record.injector, []).append(record.to_dict())
    return {
        name: hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        for name, rows in grouped.items()
    }


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(with_lidar=False)


class TestPinnedRecords:
    @pytest.mark.parametrize(
        "backend", [{}, {"backend": "multiplexed", "episodes_per_slot": 4}],
        ids=["serial", "multiplexed"],
    )
    def test_campaign_records_match_pinned_digests(self, builder, backend):
        result = Campaign(
            campaign_scenarios(), nn_agent_factory(driving_model()),
            campaign_injectors(), builder=builder, base_seed=3, **backend,
        ).run()
        assert all(r.distance_km > 0 for r in result.records)
        assert record_digests(result) == RECORD_DIGESTS


class TestPinnedTraining:
    def test_trained_weights_match_pinned_digest(self):
        gen = np.random.default_rng(42)
        n = 48
        dataset = DrivingDataset(
            images=gen.integers(0, 256, (n, 32, 48, 3), dtype=np.uint8),
            speeds=gen.uniform(0, 8, n).astype(np.float32),
            commands=gen.integers(0, 4, n).astype(np.int8),
            actions=gen.uniform(-1, 1, (n, 3)).astype(np.float32),
        )
        model, history = train_ilcnn(
            dataset, TINY, TrainConfig(epochs=2, batch_size=16, seed=5)
        )
        digest = hashlib.sha256()
        for name, weights in sorted(model.state_dict().items()):
            digest.update(name.encode())
            digest.update(weights.tobytes())
        digest.update(np.asarray(history.train_loss, dtype=np.float64).tobytes())
        assert digest.hexdigest() == TRAINED_DIGEST


class TestReferenceAgreement:
    """The production single-frame path equals the frozen reference."""

    def test_single_frame_forward(self):
        model = driving_model()
        gen = np.random.default_rng(0)
        image = gen.integers(0, 256, (64, 96, 3), dtype=np.uint8)
        x = preprocess_image(image, model.config.input_hw)
        assert np.array_equal(x, reference_preprocess(image, model.config.input_hw))
        for command in range(4):
            out = model.forward(x[None], np.array([4.5]), np.array([command]))
            ref = reference_forward(model, x[None], np.array([4.5]), np.array([command]))
            assert out.tobytes() == ref.tobytes()


@functools.lru_cache(maxsize=None)
def inference_model(config: str, seed: int) -> ILCNN:
    base = TINY if config == "tiny" else ILCNNConfig()
    model = ILCNN(replace(base, seed=seed))
    model.set_training(False)
    return model


#: Values a corrupted image or speed may carry besides ordinary ones.
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 3.0e38, -1.0e30, 1.0e-42]


def corrupt(gen: np.random.Generator, values: np.ndarray, share: float) -> np.ndarray:
    mask = gen.random(values.shape) < share
    values[mask] = gen.choice(SPECIAL, size=int(mask.sum()))
    return values


class TestBatchInvariance:
    @given(
        config=st.sampled_from(["tiny", "default"]),
        weight_seed=st.integers(0, 2),
        commands=st.lists(st.integers(0, 3), min_size=1, max_size=6),
        data_seed=st.integers(0, 2**32 - 1),
        share=st.sampled_from([0.0, 0.01, 0.2]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_batched_rows_equal_single_reference(
        self, config, weight_seed, commands, data_seed, share
    ):
        model = inference_model(config, weight_seed)
        gen = np.random.default_rng(data_seed)
        n = len(commands)
        h, w = model.config.input_hw
        images = corrupt(gen, gen.random((n, 3, h, w)).astype(np.float32), share)
        speeds = corrupt(gen, gen.uniform(-5.0, 40.0, n), share)
        with np.errstate(all="ignore"):  # non-finite inputs are the point
            batched = model.forward(images, speeds, np.array(commands))
            for i, command in enumerate(commands):
                alone = reference_forward(
                    model, images[i : i + 1], speeds[i : i + 1], np.array([command])
                )
                assert batched[i].tobytes() == alone[0].tobytes(), (i, commands)

    @pytest.mark.parametrize("config", ["tiny", "default"])
    def test_every_branch_in_one_batch(self, config):
        model = inference_model(config, 0)
        gen = np.random.default_rng(1)
        images = gen.random((8, 3, *model.config.input_hw)).astype(np.float32)
        speeds = gen.uniform(0.0, 10.0, 8)
        commands = np.array([0, 1, 2, 3, 3, 2, 1, 0])
        batched = model.forward(images, speeds, commands)
        for i in range(8):
            row = (images[i : i + 1], speeds[i : i + 1], commands[i : i + 1])
            alone = model.forward(*row)
            assert batched[i].tobytes() == alone[0].tobytes()
            assert alone.tobytes() == reference_forward(model, *row).tobytes()

    @given(
        fy=st.integers(1, 9),
        fx=st.integers(1, 9),
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
        data_seed=st.integers(0, 2**32 - 1),
        share=st.sampled_from([0.0, 0.05, 0.3]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_pooling_equals_mean(self, fy, fx, h, w, dtype, data_seed, share):
        gen = np.random.default_rng(data_seed)
        shape = (h * fy, w * fx, 3)
        if dtype is np.uint8:
            image = gen.integers(0, 256, shape, dtype=np.uint8)
        else:
            scale = 10.0 ** gen.integers(-3, 40)
            image = corrupt(gen, gen.standard_normal(shape) * scale, share).astype(dtype)
        before = image.copy()
        with np.errstate(all="ignore"):  # non-finite inputs are the point
            pooled = preprocess_image(image, (h, w))
            expected = reference_preprocess(image, (h, w))
        assert image.tobytes() == before.tobytes()  # the frame is not touched
        assert pooled.tobytes() == expected.tobytes()
