"""IL-CNN inference gate: preprocess + forward vs the frozen reference.

The IL-CNN agent step is the largest layer of an IL-CNN campaign, and
most of it is the network's inference.  The production path pools the
camera frame by summing sub-images, unfolds convolution patches with one
cached-index gather and, in inference mode, multiplies each sample on
its own so a batch of E episodes gives bitwise the rows of E single
forwards.  The frozen reference (``tests/agent/ilcnn_reference.py``)
pools with a strided ``mean``, pads through ``np.pad`` and copies one
slice per kernel offset.

This gate scores camera frames with both, interleaved in one process
(reference, then production at E=1, then production at E=4, per pair),
checks every production row equals the reference's bytes, and fails if
the median per-pair speedup is below :data:`E1_GATE` at E=1 or, per
sample, below :data:`E4_GATE` at E=4 (both against the reference at
E=1, the serial agent step).  Being a same-process A/B, it fires on any
host.  Results land in ``benchmarks/results/BENCH_ilcnn.json``.
"""

import importlib.util
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.agent.ilcnn import ILCNN, ILCNNConfig, preprocess_image
from repro.sim.render import CameraModel

from .sensor_bench import RESULTS_DIR, machine_fingerprint

ILCNN_RESULT_PATH = RESULTS_DIR / "BENCH_ilcnn.json"
#: Required median speedup at one sample per forward.
E1_GATE = 1.3
#: Required median per-sample speedup at four samples per forward.
E4_GATE = 1.8
#: Interleaved reference/production pairs.
ILCNN_PAIRS = 7
#: Frames scored per timed run.
FRAMES = 48

_REFERENCE_PATH = Path(__file__).resolve().parents[1] / "tests" / "agent" / "ilcnn_reference.py"


def _reference():
    spec = importlib.util.spec_from_file_location("ilcnn_reference", _REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _inputs(model: ILCNN):
    camera = CameraModel()
    gen = np.random.default_rng(0)
    images = gen.integers(0, 256, (FRAMES, camera.height, camera.width, 3), dtype=np.uint8)
    speeds = gen.uniform(0.0, 10.0, FRAMES)
    commands = np.arange(FRAMES) % model.config.n_branches
    return images, speeds, commands


def _score_reference(ref, model, images, speeds, commands) -> np.ndarray:
    rows = []
    for i in range(len(images)):
        x = ref.reference_preprocess(images[i], model.config.input_hw)[None]
        rows.append(ref.reference_forward(model, x, speeds[i : i + 1], commands[i : i + 1])[0])
    return np.stack(rows)


def _score(model, images, speeds, commands, batch: int) -> np.ndarray:
    rows = []
    for start in range(0, len(images), batch):
        stop = start + batch
        x = np.stack([preprocess_image(img, model.config.input_hw) for img in images[start:stop]])
        rows.append(model.forward(x, speeds[start:stop], commands[start:stop]))
    return np.concatenate(rows)


def _us_per_frame(runs: list[float]) -> float:
    return statistics.median(runs) / FRAMES * 1e6


def _timed(fn, *args) -> tuple[float, np.ndarray]:
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def test_ilcnn_inference_gate(capsys):
    """Measure, persist, and gate the IL-CNN inference speedup."""
    from .conftest import emit

    ref = _reference()
    model = ILCNN(ILCNNConfig())
    model.set_training(False)
    images, speeds, commands = _inputs(model)
    expected = _score_reference(ref, model, images, speeds, commands).tobytes()

    ref_s, e1_s, e4_s = [], [], []
    for _ in range(ILCNN_PAIRS):
        seconds, out = _timed(_score_reference, ref, model, images, speeds, commands)
        assert out.tobytes() == expected
        ref_s.append(seconds)
        seconds, out = _timed(_score, model, images, speeds, commands, 1)
        assert out.tobytes() == expected
        e1_s.append(seconds)
        seconds, out = _timed(_score, model, images, speeds, commands, 4)
        assert out.tobytes() == expected
        e4_s.append(seconds)
    e1_ratio = statistics.median(r / n for r, n in zip(ref_s, e1_s))
    e4_ratio = statistics.median(r / n for r, n in zip(ref_s, e4_s))
    payload = {
        "machine": machine_fingerprint(),
        "model": "default ILCNNConfig, 96x64 camera",
        "frames_per_run": FRAMES,
        "pairs": ILCNN_PAIRS,
        "reference_s": ref_s,
        "e1_s": e1_s,
        "e4_s": e4_s,
        "reference_us_per_frame": _us_per_frame(ref_s),
        "e1_us_per_frame": _us_per_frame(e1_s),
        "e4_us_per_frame": _us_per_frame(e4_s),
        "e1_speedup_median": e1_ratio,
        "e4_speedup_median": e4_ratio,
        "e1_gate": E1_GATE,
        "e4_gate": E4_GATE,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    ILCNN_RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    emit(
        capsys,
        "\n".join(
            [
                "IL-CNN inference  preprocess + forward, default model",
                f"  reference E=1 : {payload['reference_us_per_frame']:7.1f} us/frame",
                f"  production E=1: {payload['e1_us_per_frame']:7.1f} us/frame  "
                f"({e1_ratio:.2f}x median of {ILCNN_PAIRS} pairs, gate >= {E1_GATE}x)",
                f"  production E=4: {payload['e4_us_per_frame']:7.1f} us/frame  "
                f"({e4_ratio:.2f}x, gate >= {E4_GATE}x)",
                f"  written to {ILCNN_RESULT_PATH}",
            ]
        ),
    )
    assert e1_ratio >= E1_GATE, (
        f"IL-CNN inference at E=1 only {e1_ratio:.2f}x the reference (gate {E1_GATE}x)"
    )
    assert e4_ratio >= E4_GATE, (
        f"IL-CNN inference at E=4 only {e4_ratio:.2f}x per sample the reference "
        f"(gate {E4_GATE}x)"
    )
