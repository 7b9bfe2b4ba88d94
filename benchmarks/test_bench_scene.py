"""Cold scene-build gate: windowed ``TownTexture`` vs the full-raster reference.

A procedural campaign builds one town texture per distinct town, so the
cold build is a per-scenario cost.  The production build evaluates each
road and junction only inside its own texel window and stamps every
marking stripe as one mask; the frozen reference
(``tests/sim/texture_reference.py``) classifies every texel of the
raster once per road and junction and stamps markings point by point.

This gate builds the default 4x4 town with both, interleaved in one
process (reference, then production, per pair), checks the two produce
the same bytes, and fails if the median per-pair speedup is below
:data:`SCENE_BUILD_GATE`.  Being a same-process A/B, it fires on any
host.  Results land in ``benchmarks/results/BENCH_scene.json``.
"""

import importlib.util
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.sim.render import TownTexture
from repro.sim.town import GridTownConfig, build_town

from .sensor_bench import RESULTS_DIR, machine_fingerprint

SCENE_RESULT_PATH = RESULTS_DIR / "BENCH_scene.json"
#: Required median speedup of the production build over the reference.
SCENE_BUILD_GATE = 5.0
#: Interleaved reference/production build pairs.
SCENE_PAIRS = 7

_REFERENCE_PATH = Path(__file__).resolve().parents[1] / "tests" / "sim" / "texture_reference.py"


def _reference_texture():
    spec = importlib.util.spec_from_file_location("texture_reference", _REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_texture


def test_scene_build_gate(capsys):
    """Measure, persist, and gate the cold town-texture build speedup."""
    from .conftest import emit

    reference_texture = _reference_texture()
    town = build_town(GridTownConfig())
    ref_tex, ref_classes = reference_texture(town)
    tex = TownTexture(town)
    assert np.array_equal(tex.texture, ref_tex) and np.array_equal(tex.classes, ref_classes)

    ref_s, new_s = [], []
    for _ in range(SCENE_PAIRS):
        start = time.perf_counter()
        reference_texture(town)
        ref_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        TownTexture(town)
        new_s.append(time.perf_counter() - start)
    ratios = [r / n for r, n in zip(ref_s, new_s)]
    payload = {
        "machine": machine_fingerprint(),
        "town": "default 4x4 grid",
        "raster": list(tex.classes.shape),
        "pairs": SCENE_PAIRS,
        "reference_build_s": ref_s,
        "build_s": new_s,
        "reference_build_s_median": statistics.median(ref_s),
        "build_s_median": statistics.median(new_s),
        "speedup_median": statistics.median(ratios),
        "gate": SCENE_BUILD_GATE,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    SCENE_RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    emit(
        capsys,
        "\n".join(
            [
                "Scene build  default town texture "
                f"({tex.classes.shape[1]}x{tex.classes.shape[0]} texels)",
                f"  reference : {payload['reference_build_s_median'] * 1e3:7.1f} ms",
                f"  windowed  : {payload['build_s_median'] * 1e3:7.1f} ms  "
                f"({payload['speedup_median']:.1f}x median of {SCENE_PAIRS} pairs, "
                f"gate >= {SCENE_BUILD_GATE}x)",
                f"  written to {SCENE_RESULT_PATH}",
            ]
        ),
    )
    assert payload["speedup_median"] >= SCENE_BUILD_GATE, (
        f"windowed scene build only {payload['speedup_median']:.2f}x the "
        f"full-raster reference (gate {SCENE_BUILD_GATE}x)"
    )
