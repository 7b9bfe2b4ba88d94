"""The benchmark's workloads: campaign specs generated from a seed.

Each workload is one :class:`~repro.core.spec.CampaignSpec` shape.  The
benchmark seed picks the concrete suite (missions, towns, traffic
placement, IL-CNN weights, fault and episode seeds); the shape -- town,
weather, traffic counts, agent, injectors, backend and campaign size --
is fixed per workload, up to the draws of the procedural workload.
The program only ever sees the generated spec text.

The long-mission workloads use a tiny grammar ``time_factor`` with
150-250 m missions, so every episode runs to its mission time limit
(15 s plus a sliver, about 240 frames) instead of ending whenever the ego
happens to reach its goal.  Per-episode work is then nearly the same
whatever missions a seed draws, and ``episodes_per_s`` moves with the
cost of the code rather than with the seed.

Why each workload exists, and which per-layer metric (``--trace 1``)
should move which end-to-end metric (``--trace 0``), is written beside
it in :data:`WORKLOADS`.  The shares quoted there are the starting
picture, measured on a 2-CPU Xeon before this benchmark existed; the
traced run reports current ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "QUEUE_SLOT",
    "SLOT",
    "WORKLOADS",
    "Workload",
    "reference_spec_text",
    "spec_text",
    "write_model",
]

#: Live episodes per slot of the multiplexed workload.
SLOT = 4
#: Episodes per claimed slot of the queue workload's worker.
QUEUE_SLOT = 8

_WEATHERS = ["ClearNoon", "HardRainNoon", "FoggyNoon"]
_GAUSSIAN = [{"fault": "gaussian", "params": {"sigma": 0.1}}]
#: Missions that cannot finish inside their time limit (see above).
_LONG_MISSIONS = {"min_distance": 150.0, "max_distance": 250.0, "time_factor": 0.02}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: Scenarios in the campaign (the grid is scenarios x injectors).
    scenarios: int
    #: Execution backend of the timed runs.
    backend: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's campaign shape on one warm town: default 4x4 town
        # with buildings, one scenario in each of ClearNoon, HardRainNoon
        # and FoggyNoon, 4 NPC vehicles, 4 pedestrians, the IL-CNN agent on
        # seeded, untrained weights (same forward-pass cost as trained
        # ones), injectors none/gaussian/weight-bitflip, multiplexed with
        # a slot of 4.  The scene is built once per run, so agent step,
        # batched sensing and world step dominate; the weight-bitflip
        # cells take the multiplexer's serial fallback.
        #   agent.step_s          -> episodes_per_s  IL-CNN step ~64% of wall
        #   sense.s               -> episodes_per_s  batched sensing ~27%
        #   world.step_s          -> episodes_per_s  world step ~13%
        #   mux.fallback_episodes -> episodes_per_s  serial ModelFault cells ~30%
        #   mux.fallback_s        -> episodes_per_s  fallback cost outside the phases
        #   mux.occupancy         -> episodes_per_s  slot use outside the fallback
        #   episode.setup_s       -> episodes_per_s  world set-up per episode
        #   scene.build_s         -> first_record_s  the one cold build
        #   spec.build_s          -> setup_s         includes loading the weights
        # Rain costs more per frame than clear or fog, so with the weather
        # drawn freely the seed alone moved episodes_per_s by up to 1.4x.
        # The grammar seed is therefore the first one derived from the
        # benchmark seed whose three scenarios draw each weather once
        # (:func:`_every_weather_once`): every seed runs the same mix.
        Workload(name="ilcnn-mux", scenarios=3, backend="multiplexed"),
        # A grammar spec with one procedural 3x3 town per scenario, 1-3
        # NPC vehicles, 0-2 pedestrians, autopilot, injectors
        # none/gaussian, serial backend.  Every scenario pays a cold scene
        # build, so scene build and grammar expansion are a large share;
        # the only workload on the serial executor.
        #   scene.build_s   -> episodes_per_s  cold textures ~55% of wall
        #   scene.builds    -> first_record_s  one build per town
        #   episode.setup_s -> episodes_per_s  world set-up per episode
        #   sense.s         -> episodes_per_s  serial sensing ~36%
        #   spec.build_s    -> setup_s         town sampling and route planning
        Workload(name="procedural-grammar", scenarios=4, backend="serial"),
        # Short missions (45-55 m, about 130 frames; the ego usually
        # arrives) on a 2x3 town without buildings, injectors
        # none/gaussian, queue backend over an in-process TCP
        # BrokerServer with one local worker process draining slots of
        # QUEUE_SLOT.  Fixed per-episode costs dominate: claim, manifest,
        # lease, fsync'd result append, coordinator polling and worker
        # spawn.  The only workload that measures the broker and its
        # checkpoint.  The coordinator sees results on 0.2 s polls, so
        # the first record moves in whole poll steps: the first slot is
        # made 8 episodes long, a few poll periods, and the mission band
        # narrow (30-70 m made the first slot's length, and with it
        # first_record_s, differ by up to a third from seed to seed).
        #   broker.requests_per_episode -> cpu_s_per_episode  ~6 per episode
        #   broker.empty_ratio          -> cpu_s_per_episode  polls that find nothing
        #   queue.first_claim_s         -> first_record_s     worker spawn and warm-up
        #   checkpoint.append_ms_p50    -> episodes_per_s     fsync per record
        #   broker.busy_s               -> episodes_per_s     server busy ~1.4% of wall
        Workload(name="queue-short", scenarios=12, backend="queue"),
    )
}


def _grammar(name: str, seed: int, n: int) -> dict:
    """The scenario grammar of workload ``name`` for ``seed``."""
    if name == "procedural-grammar":
        return {
            "n": n,
            "seed": seed,
            "name": "proc",
            "town": {"procedural": {"rows": 3, "cols": 3}},
            "weather": "ClearNoon",
            "n_npc_vehicles": {"uniform": [1, 3]},
            "n_pedestrians": {"uniform": [0, 2]},
            **_LONG_MISSIONS,
        }
    if name == "queue-short":
        return {
            "n": n,
            "seed": seed,
            "name": "short",
            "town": {"grid": {"rows": 2, "cols": 3, "with_buildings": False}},
            "weather": "ClearNoon",
            "n_npc_vehicles": 0,
            "n_pedestrians": 0,
            "min_distance": 45.0,
            "max_distance": 55.0,
        }
    return {
        "n": n,
        "seed": seed,
        "name": "dense",
        "town": {"grid": {"rows": 4, "cols": 4, "with_buildings": True}},
        "weather": {"choice": _WEATHERS},
        "n_npc_vehicles": 4,
        "n_pedestrians": 4,
        **_LONG_MISSIONS,
    }


def _every_weather_once(grammar: dict) -> dict:
    """``grammar`` with the first of the seeds ``64 * seed + k`` whose
    expansion draws the weathers of :data:`_WEATHERS` as evenly as the
    number of scenarios allows (each once, for three)."""
    from repro.core.scenariogen import ScenarioGrammar

    for k in range(64):
        candidate = {**grammar, "seed": 64 * grammar["seed"] + k}
        drawn = [s.weather for s in ScenarioGrammar.from_dict(candidate).expand()]
        counts = [drawn.count(w) for w in _WEATHERS]
        if max(counts) - min(counts) <= 1:
            return candidate
    raise ValueError(f"no grammar seed near {grammar['seed']} draws the weathers evenly")


def model_path(workdir: str | Path, seed: int) -> Path:
    """Where the IL-CNN workload's weights for ``seed`` live."""
    return Path(workdir) / f"ilcnn-seed{seed}.npz"


def write_model(workdir: str | Path, seed: int) -> Path:
    """Write seeded, untrained IL-CNN weights (atomically) and return the path.

    The forward pass costs the same as with trained weights, and nothing
    is trained or downloaded.  Equal seeds write equal bytes, so a
    concurrent writer of the same file is harmless.
    """
    from repro.agent.ilcnn import ILCNN, ILCNNConfig

    path = model_path(workdir, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
    ILCNN(ILCNNConfig(seed=seed)).save(tmp)
    os.replace(tmp, path)
    return path


def spec_text(
    name: str,
    seed: int,
    workdir: str | Path,
    scenarios: int | None = None,
    suite_seed: int | None = None,
) -> str:
    """The campaign spec JSON of workload ``name`` for ``seed``.

    ``workdir`` is where the IL-CNN weights are expected (see
    :func:`write_model`); ``scenarios`` overrides the campaign size
    (tests run tiny campaigns); ``suite_seed``, if given, draws the
    scenario suite instead of ``seed``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    workload = WORKLOADS[name]
    n = workload.scenarios if scenarios is None else scenarios
    agent = {"name": "autopilot", "params": {}}
    injectors = {"none": [], "gaussian": _GAUSSIAN}
    if name == "ilcnn-mux":
        agent = {"name": "nn", "params": {"model_path": str(model_path(workdir, seed))}}
        injectors["weight-bitflip"] = [{"fault": "weight-bitflip", "params": {}}]
    execution = {"base_seed": seed, "backend": workload.backend, "workers": 1}
    if workload.backend != "serial":
        execution["episodes_per_slot"] = SLOT if workload.backend == "multiplexed" else QUEUE_SLOT
    grammar = _grammar(name, seed if suite_seed is None else suite_seed, n)
    if name == "ilcnn-mux":
        grammar = _every_weather_once(grammar)
    spec = {
        "schema_version": 1,
        "name": name,
        "scenarios": {"grammar": grammar},
        "agent": agent,
        "injectors": injectors,
        "builder": None,
        "execution": execution,
    }
    return json.dumps(spec, indent=2, sort_keys=True)


def reference_spec_text(text: str) -> str:
    """``text`` with the serial backend: the record-check reference."""
    data = json.loads(text)
    data["execution"] = {"base_seed": data["execution"]["base_seed"], "backend": "serial"}
    return json.dumps(data, indent=2, sort_keys=True)
