"""Timed campaign runs, the serial record check and the metrics they give.

One benchmark run of a workload:

1. writes the workload's spec text from the seed (and, for the IL-CNN
   workload, its seeded weights);
2. repeats the campaign, timed, while another repeat is expected to end
   within ``seconds``, and at least :data:`MIN_RUNS` times.  Each run
   starts cold, as every ``avfi run`` does: an empty process
   ``SceneCache`` and fresh checkpoint and broker directories.  Each times ``Campaign.run()``
   and keeps its records.  After each run, and a garbage collection,
   one cold ``parse_spec`` + ``Campaign.from_spec`` is timed on each of
   :data:`SETUP_SUITES` spec texts, so every set-up sample is taken in
   the same state.  A :func:`hostspeed.sample` is taken before the first
   run and after each run's set-up samples;
3. reads the peak resident memory, before anything else can raise it;
4. runs the spec once on the serial backend, untimed: these records are
   the reference every timed run must reproduce exactly.

The host this was tuned on shares its CPUs, and how fast it executes
drifts by up to 1.8x in phases of tens of seconds to minutes.  So every
end-to-end time is reported at the reference host speed of
:mod:`hostspeed`: a run and the set-up samples after it are divided by
the host factor of the host samples taken just before and just after
them.  ``setup_s`` is then the mean over the set-up spec texts of the
median of each text's samples, and the run metrics are trimmed means
over the repeats (:func:`central`), so a short slow phase the host
samples miss stays in a minority of repeats.  The table printed before
the result line gives each run's raw times and host factor.  Per-layer
metrics are raw.

With tracing on, untraced and traced runs alternate (at least
:data:`MIN_RUNS` of each); the :class:`~tracing.Tracer` wrappers are
installed around ``Campaign.run()`` of the traced ones only.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.campaign import Campaign
from repro.core.netqueue import BrokerServer
from repro.core.spec import parse_spec
from repro.sim.builders import process_scene_cache

import hostspeed
from tracing import Tracer, percentile
from workloads import SLOT, WORKLOADS, reference_spec_text, spec_text, write_model

__all__ = [
    "MIN_RUNS",
    "SETUP_SUITES",
    "BenchResult",
    "Run",
    "Setup",
    "central",
    "run_workload",
]

#: Spec texts whose set-up is timed after each run: the timed campaign's
#: own and ones with other suite seeds derived from the benchmark seed.
#: Grammar expansion draws missions by rejection sampling and procedural
#: towns by retries, so one suite's set-up time moved by 2.5x from seed
#: to seed; their mean over four suites moves far less.
SETUP_SUITES = 4
#: Timed runs per benchmark run, at the least (of each kind when traced).
MIN_RUNS = 3


def central(values) -> float:
    """Mean of ``values`` without the highest and lowest quarter.

    The median for up to four values; beyond that it also averages
    the middle, so a figure that lands on a 0.2 s poll boundary in some
    runs moves smoothly rather than a whole step at a time.
    """
    ordered = sorted(values)
    cut = round(len(ordered) / 4)
    return statistics.fmean(ordered[cut : len(ordered) - cut])


@dataclass
class Run:
    """One timed campaign run."""

    wall_s: float
    first_record_s: float
    cpu_s: float
    attempted: int
    #: The run's records, as dicts, in grid order (empty if it crashed).
    records: list[dict]
    #: Episodes whose record differs from the serial reference.
    failed: int = 0
    traced: bool = False
    scene_misses: int = 0
    scene_hits: int = 0
    #: Run start to the broker's first successful claim (traced queue runs).
    first_claim_s: float = 0.0
    #: Host factor of the run (:func:`hostspeed.factor` of the host
    #: samples before and after it).
    host: float = 1.0


@dataclass(frozen=True)
class Setup:
    """One cold ``parse_spec`` + ``Campaign.from_spec``."""

    #: Which of the :data:`SETUP_SUITES` spec texts was set up.
    suite: int
    parse_s: float
    build_s: float
    #: Host factor of the run it followed (see :attr:`Run.host`).
    host: float


@dataclass
class BenchResult:
    """Everything one benchmark run measured."""

    runs: list[Run]
    setups: list[Setup]
    peak_rss_mb: float
    tracer: Tracer | None = None

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.runs)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.runs)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Over the untraced runs, at the reference host speed:
        ``name -> (value, unit)``."""
        runs = [r for r in self.runs if not r.traced]
        return {
            "setup_s": (self._setup_s(), "s"),
            "episodes_per_s": (
                central((r.attempted - r.failed) / r.wall_s * r.host for r in runs),
                "1/s",
            ),
            "first_record_s": (central(r.first_record_s / r.host for r in runs), "s"),
            "cpu_s_per_episode": (
                central(r.cpu_s / r.attempted / r.host for r in runs),
                "s",
            ),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "failed_fraction": (self.failed / self.attempted, "ratio"),
        }

    def _setup_s(self) -> float:
        by_suite: dict[int, list[float]] = {}
        for s in self.setups:
            by_suite.setdefault(s.suite, []).append((s.parse_s + s.build_s) / s.host)
        return statistics.fmean(statistics.median(v) for v in by_suite.values())

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced runs, per campaign run."""
        tracer = self.tracer
        traced = [r for r in self.runs if r.traced]
        untraced = [r for r in self.runs if not r.traced]
        n = len(traced)
        misses = sum(r.scene_misses for r in traced)
        lookups = misses + sum(r.scene_hits for r in traced)
        batches = tracer.batches
        samples = tracer.samples
        polls = tracer.broker_polls
        med = statistics.median
        return {
            "spec.parse_s": (med(s.parse_s for s in self.setups), "s"),
            "spec.build_s": (med(s.build_s for s in self.setups), "s"),
            "scene.builds": (misses / n, "count"),
            "scene.build_s": (tracer.self_s["scene"] / n, "s"),
            "scene.hit_ratio": ((lookups - misses) / lookups if lookups else 0.0, "ratio"),
            "episode.setup_s": (tracer.self_s["episode.setup"] / n, "s"),
            "episode.frames": (tracer.calls["agent"] / n, "count"),
            "agent.step_s": (tracer.self_s["agent"] / n, "s"),
            "agent.step_ms_p50": (percentile(samples["agent"], 0.50), "ms"),
            "agent.step_ms_p99": (percentile(samples["agent"], 0.99), "ms"),
            "world.step_s": (tracer.self_s["world"] / n, "s"),
            "world.step_ms_p50": (percentile(samples["world"], 0.50), "ms"),
            "world.step_ms_p99": (percentile(samples["world"], 0.99), "ms"),
            "sense.s": (tracer.self_s["sense"] / n, "s"),
            "sense.frame_ms_p50": (percentile(samples["sense"], 0.50), "ms"),
            "sense.frame_ms_p99": (percentile(samples["sense"], 0.99), "ms"),
            "harness.s": (tracer.self_s["harness"] / n, "s"),
            "mux.fallback_episodes": (tracer.calls["mux.fallback"] / n, "count"),
            "mux.fallback_s": (tracer.self_s["mux.fallback"] / n, "s"),
            "mux.occupancy": (
                sum(batches) / len(batches) / SLOT if batches else 0.0,
                "ratio",
            ),
            "checkpoint.appends": (tracer.calls["checkpoint"] / n, "count"),
            "checkpoint.append_ms_p50": (percentile(samples["checkpoint"], 0.50), "ms"),
            "broker.requests": (tracer.calls["broker"] / n, "count"),
            "broker.requests_per_episode": (
                tracer.calls["broker"] / sum(r.attempted for r in traced),
                "count",
            ),
            "broker.busy_s": (tracer.total_s["broker"] / n, "s"),
            "broker.empty_ratio": (tracer.broker_empty / polls if polls else 0.0, "ratio"),
            "queue.first_claim_s": (med(r.first_claim_s for r in traced), "s"),
            "trace.coverage": (tracer.main_self_s / sum(r.wall_s for r in traced), "ratio"),
            "trace.overhead": (
                med(r.wall_s for r in traced) / med(r.wall_s for r in untraced),
                "ratio",
            ),
        }


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _records(result) -> list[dict]:
    return [record.to_dict() for record in result.records]


def _campaign(text: str, rundir: Path, queue_dir: str | None):
    """Parse and build a campaign; returns it with both timings."""
    start = time.perf_counter()
    spec = parse_spec(text)
    parsed = time.perf_counter()
    if queue_dir is not None:
        campaign = Campaign.from_spec(spec, queue_dir=queue_dir)
    else:
        campaign = Campaign.from_spec(spec, checkpoint_path=rundir / "checkpoint.jsonl")
    built = time.perf_counter()
    return campaign, parsed - start, built - parsed


def _timed_run(workload: str, text: str, rundir: Path, tracer: Tracer | None) -> Run:
    cache = process_scene_cache()
    cache.clear()
    rundir.mkdir(parents=True)
    server = None
    if WORKLOADS[workload].backend == "queue":
        server = BrokerServer(rundir / "broker", port=0).start()
    try:
        campaign = _campaign(text, rundir, server.address if server is not None else None)[0]
        first: list[float] = []
        before = cache.stats()
        cpu0 = _cpu_s()
        if tracer is not None:
            tracer.first_claim_at = None
            tracer.install()
        start = time.perf_counter()
        try:
            runner = campaign.runner()
            runner.on_record = lambda task, record: first.append(time.perf_counter())
            records = _records(runner.run())
        except Exception as exc:  # a failed campaign is a result, not a crash
            print(f"# {workload}: campaign failed: {exc!r}", flush=True)
            records = []
        finally:
            wall_s = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        cpu_s = _cpu_s() - cpu0
        after = cache.stats()
    finally:
        if server is not None:
            server.stop()
    first_claim_at = tracer.first_claim_at if tracer is not None else None
    return Run(
        wall_s=wall_s,
        first_record_s=(first[0] - start) if first else wall_s,
        cpu_s=cpu_s,
        attempted=campaign.total_runs(),
        records=records,
        traced=tracer is not None,
        scene_misses=after["misses"] - before["misses"],
        scene_hits=after["hits"] - before["hits"],
        first_claim_s=(first_claim_at - start) if first_claim_at is not None else 0.0,
    )


def reference_records(text: str) -> list[dict]:
    """Records of ``text`` run on the serial backend (untimed)."""
    campaign = Campaign.from_spec(parse_spec(reference_spec_text(text)))
    return _records(campaign.run())


def _peak_rss_mb(workload: str) -> float:
    """Peak resident memory so far of the process running ``workload``."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if WORKLOADS[workload].backend == "queue":
        # The worker runs beside the coordinator, so their peaks add.
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    scenarios: int | None = None,
) -> BenchResult:
    """One benchmark run of ``workload``; see the module docstring."""
    workdir = Path(workdir)
    if workload == "ilcnn-mux":
        write_model(workdir, seed)
    text = spec_text(workload, seed, workdir, scenarios)
    setup_texts = [text] + [
        spec_text(workload, seed, workdir, scenarios, suite_seed=SETUP_SUITES * seed + k)
        for k in range(1, SETUP_SUITES)
    ]
    scratch = workdir / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        tracer = Tracer() if trace else None
        min_runs = 2 * MIN_RUNS if trace else MIN_RUNS
        # Set-up only records the queue address; nothing connects to it.
        queue_dir = "tcp://127.0.0.1:9" if WORKLOADS[workload].backend == "queue" else None
        runs: list[Run] = []
        setups: list[Setup] = []
        start = time.perf_counter()
        host_before = hostspeed.sample()
        #: Seconds each repeat took, with its set-up and host samples.
        blocks: list[float] = []
        while (
            len(runs) < min_runs
            or time.perf_counter() - start + statistics.median(blocks) <= seconds
        ):
            block_start = time.perf_counter()
            traced = trace and len(runs) % 2 == 1
            rundir = scratch / f"timed-{len(runs)}"
            run = _timed_run(workload, text, rundir, tracer if traced else None)
            gc.collect()
            timings = []
            for suite_text in setup_texts:
                process_scene_cache().clear()
                rundir = scratch / f"setup-{len(setups) + len(timings)}"
                rundir.mkdir(parents=True)
                timings.append(_campaign(suite_text, rundir, queue_dir)[1:])
            host_after = hostspeed.sample()
            run.host = hostspeed.factor(host_before, host_after)
            host_before = host_after
            runs.append(run)
            setups.extend(
                Setup(suite, parse_s, build_s, run.host)
                for suite, (parse_s, build_s) in enumerate(timings)
            )
            blocks.append(time.perf_counter() - block_start)
        peak_rss_mb = _peak_rss_mb(workload)
        reference = reference_records(text)
        for run in runs:
            run.failed = run.attempted - sum(
                a == b for a, b in zip(run.records, reference)
            )
        return BenchResult(
            runs=runs, setups=setups, peak_rss_mb=peak_rss_mb, tracer=tracer
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
