"""The three audit workloads: inputs from a seed, timed phases, checks.

Each workload builds its world and service from the seed (the set-up),
then runs one *round*: the timed phases a user waits for.  ``run`` returns
the round's figures and a ``verify`` callable that runs every check of
:mod:`checks` on the round's outputs, untimed; it returns how many IDs it
checked against the world and raises :class:`checks.CheckFailed` on a
wrong output.  The runner times set-up and rounds; it never sees the program's
internals, and the program only ever receives the generated inputs.

* ``paper-audit`` — the paper's campaign at paper scale: six topics, 16
  collections of 4,032 hour-bin Search:list calls, Videos:list and
  Channels:list on every snapshot, comments on the first and last.  It is
  collected in memory and saved as the JSONL campaign file (``collect``),
  then reloaded and rendered as Tables 1/2/4/5, Figures 1–4 and the
  Table 3/6/7 regression fits (``analyze``).
* ``spill-sweep`` — a search-only campaign over twice the paper's corpus,
  spilled to the disk store with ``retain_snapshots=False`` so the per-bin
  partial sidecar is live (``collect``), then reopened and analysed from
  disk: Tables 1, 2, 4 and Figures 1–3, i.e. consistency, pools and
  attrition among them (``analyze``, five passes per round).
* ``strategies`` — the Section 6 comparison on every topic over four runs
  on the 5-day cadence: time-split at 1 h and 24 h, topic-split and the
  channel pipeline, call by call (``collect`` is the time inside the
  strategies' collection runs, ``analyze`` the scoring around them).
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import checks
from repro import YouTubeClient, build_service, build_world
from repro.api.quota import QuotaPolicy
from repro.core import report
from repro.core.attrition import attrition_analysis
from repro.core.campaign import run_campaign
from repro.core.consistency import consistency_series
from repro.core.datasets import CampaignResult
from repro.core.experiments import paper_campaign_config
from repro.core.returnmodel import (
    build_regression_records,
    fit_binned_ordinal,
    fit_frequency_ols,
    fit_unbinned_ordinal,
)
from repro.core.spill import SpillStore
from repro.strategies import (
    ChannelPipelineStrategy,
    TimeSplitStrategy,
    TopicSplitStrategy,
    evaluate_strategy,
)
from repro.util.timeutil import UTC
from repro.world.corpus import scale_topics
from repro.world.topics import paper_topics

__all__ = ["DEFAULT_SEED", "Env", "RoundResult", "WORKLOADS"]

#: Seed used when none is given: the paper campaign's start date.
DEFAULT_SEED = 20250209

#: Corpus scale of the spill-sweep world (twice the paper's videos).
SPILL_SCALE = 2.0

#: Times spill-sweep reopens and analyses its store per round.
ANALYSIS_PASSES = 5

#: Strategy runs per evaluation, five days apart (Section 6 cadence).
STRATEGY_RUNS = 4

#: Channels the pipeline bootstraps from its one seed search.
PIPELINE_CHANNELS = 120

STRATEGY_START = datetime(2025, 2, 9, tzinfo=UTC)


@dataclass
class Env:
    """What set-up produces: the world, the service over it, the topics."""

    world: object
    service: object
    specs: tuple


@dataclass
class RoundResult:
    """One round's timed phases and operation counts.

    ``windows`` are every timed phase as ``(start_ns, end_ns)``;
    ``collect_ns`` is the collection phase and ``analyze_ns`` holds one
    entry per analysis pass.  ``excluded_ns`` is benchmark bookkeeping that
    ran inside the collection phase; it is subtracted from the phase times
    (and, in a traced round, from the collector's self time).
    """

    windows: list[tuple[int, int]]
    collect_ns: int
    analyze_ns: list[int]
    attempted: int
    failed: int
    stored_bytes: int
    excluded_ns: int = 0

    @property
    def timed_s(self) -> float:
        """All timed phases of the round, analysis passes included."""
        return (sum(end - start for start, end in self.windows) - self.excluded_ns) / 1e9

    @property
    def collect_s(self) -> float:
        return (self.collect_ns - self.excluded_ns) / 1e9

    @property
    def analyze_s(self) -> float:
        return statistics.median(self.analyze_ns) / 1e9

    @property
    def evaluate_s(self) -> float:
        """From the first request until every output is produced."""
        return self.collect_s + self.analyze_s


def _service(world, seed: int, specs: tuple):
    return build_service(
        world, seed=seed, specs=specs,
        quota_policy=QuotaPolicy(researcher_program=True),
    )


def _campaign_checks(
    env: Env, dates: list[datetime], collected: dict, campaign: CampaignResult
) -> int:
    """The checks both campaign workloads share; returns IDs checked.

    ``collected`` is the digests of the collected campaign and ``campaign``
    the one read back from disk.  Once the reload check has proven their
    bins equal, the other checks run on the reloaded bins.
    """
    specs, n = env.specs, len(dates)
    bins = checks.campaign_bins(campaign.snapshots)
    checks.check_reload(collected, bins)
    if [snap.collected_at for snap in campaign.snapshots] != dates:
        raise checks.CheckFailed("snapshots were not collected on the schedule")
    checked = checks.check_ids_in_world(
        checks.bin_windows(
            bins, {spec.key: spec.window_start for spec in specs}, dates
        ),
        env.world.videos.get,
    )
    every_bin = [
        (index, spec.key, hour)
        for index in range(n)
        for spec in specs
        for hour in range(spec.window_hours)
    ]
    checks.check_ledger(
        checks.expected_search_pages(bins, every_bin),
        env.service.transport.calls_by_endpoint(),
        env.service.quota.total_used,
    )
    for spec in specs:
        checks.check_figure1(
            bins, spec.key, n, consistency_series(campaign, spec.key)
        )
    checks.check_figure3(
        bins, [spec.key for spec in specs], n,
        attrition_analysis(campaign).chain.counts,
    )
    return checked


def _missing_bins(snapshots) -> int:
    return sum(len(ts.missing_hours) for snap in snapshots for ts in snap.topics.values())


def _render(outputs: list[Callable[[], object]]) -> int:
    """Produce every output; returns how many raised ``ValueError``.

    ``repro analyze`` reports such an output as unavailable and goes on,
    so the benchmark counts it as a failed operation the same way.
    """
    failed = 0
    for produce in outputs:
        try:
            produce()
        except ValueError:
            failed += 1
    return failed


class PaperAudit:
    """The paper's campaign at paper scale, saved, reloaded and reported."""

    name = "paper-audit"

    def setup(self, seed: int) -> Env:
        specs = paper_topics()
        world = build_world(specs, seed=seed)
        return Env(world, _service(world, seed, specs), specs)

    def run(self, env: Env, workdir: Path) -> tuple[Callable[[], int], RoundResult]:
        specs = env.specs
        config = paper_campaign_config(topics=specs)
        path = workdir / "campaign.jsonl"

        start = perf_counter_ns()
        campaign = run_campaign(config, YouTubeClient(env.service))
        campaign.save(path)
        collected_ns = (start, perf_counter_ns())

        # The analysis reads the file, as a separate `repro analyze` would;
        # only the digests of the collected campaign are kept.
        collected = checks.campaign_digests(campaign.snapshots)
        missing = _missing_bins(campaign.snapshots)
        del campaign
        gc.collect()

        start = perf_counter_ns()
        loaded = CampaignResult.load(path)

        def regression(fit: Callable, title: str) -> str:
            return report.render_regression(fit(build_regression_records(loaded)), title)

        outputs = [
            lambda: report.render_table1(loaded, specs),
            lambda: report.render_table2(loaded, specs),
            lambda: report.render_table4(loaded, specs),
            lambda: report.render_table5(loaded, specs),
            lambda: report.render_figure1(loaded, specs),
            lambda: report.render_figure2(loaded, specs),
            lambda: report.render_figure3(loaded),
            lambda: report.render_figure4(loaded, specs),
            lambda: regression(
                lambda records: fit_binned_ordinal(records, loaded.n_collections),
                "Table 3: binned ordinal (logit)",
            ),
            lambda: regression(fit_frequency_ols, "Table 6: OLS"),
            lambda: regression(
                fit_unbinned_ordinal, "Table 7: unbinned ordinal (cloglog)"
            ),
        ]
        failed_outputs = _render(outputs)
        analyzed_ns = (start, perf_counter_ns())

        dates = list(config.collection_dates)

        def verify() -> int:
            return _campaign_checks(env, dates, collected, loaded)

        return verify, RoundResult(
            windows=[collected_ns, analyzed_ns],
            collect_ns=collected_ns[1] - collected_ns[0],
            analyze_ns=[analyzed_ns[1] - analyzed_ns[0]],
            attempted=env.service.transport.total_calls + len(outputs),
            failed=missing + failed_outputs,
            stored_bytes=path.stat().st_size,
        )


class _BinRecorder:
    """Campaign stream that keeps the digests of each snapshot's bins.

    ``run_campaign(..., stream=...)`` hands it every snapshot as it is
    collected, before the snapshot is spilled and dropped; the time spent
    here is benchmark bookkeeping and is reported as ``elapsed_ns``.
    """

    def __init__(self) -> None:
        self.digests: dict = {}
        self.missing = 0
        self.elapsed_ns = 0

    def add_snapshot(self, snap) -> None:
        start = perf_counter_ns()
        self.digests.update(checks.campaign_digests([snap]))
        self.missing += _missing_bins([snap])
        self.elapsed_ns += perf_counter_ns() - start


class SpillSweep:
    """A search-only campaign on twice the corpus, spilled and read back."""

    name = "spill-sweep"

    def setup(self, seed: int) -> Env:
        specs = scale_topics(paper_topics(), SPILL_SCALE)
        world = build_world(specs, seed=seed, with_comments=False)
        return Env(world, _service(world, seed, specs), specs)

    def run(self, env: Env, workdir: Path) -> tuple[Callable[[], int], RoundResult]:
        specs = env.specs
        config = paper_campaign_config(
            topics=specs, collect_metadata=False, with_comments=False
        )
        directory = workdir / "spill"
        recorder = _BinRecorder()

        start = perf_counter_ns()
        run_campaign(
            config, YouTubeClient(env.service),
            spill=directory, retain_snapshots=False, stream=recorder,
        )
        collected_ns = (start, perf_counter_ns())

        # Each pass reopens the store and renders, from scratch, every
        # output a search-only campaign supports (Figure 4, Table 5 and the
        # fits need metadata or comments).  A pass is short, so several
        # run and their median is reported.
        windows, failed_outputs, campaign = [collected_ns], 0, None
        for _ in range(ANALYSIS_PASSES):
            campaign = None  # one loaded campaign at a time, as in a real run
            start = perf_counter_ns()
            campaign = SpillStore.open(directory).load()
            outputs = [
                lambda: report.render_table1(campaign, specs),
                lambda: report.render_table2(campaign, specs),
                lambda: report.render_table4(campaign, specs),
                lambda: report.render_figure1(campaign, specs),
                lambda: report.render_figure2(campaign, specs),
                lambda: report.render_figure3(campaign),
            ]
            failed_outputs += _render(outputs)
            windows.append((start, perf_counter_ns()))

        dates = list(config.collection_dates)
        stored = sum(f.stat().st_size for f in directory.iterdir() if f.is_file())

        def verify() -> int:
            calls = env.service.transport.calls_by_endpoint()
            if set(calls) != {"search.list"}:
                raise checks.CheckFailed(f"search-only campaign called {sorted(calls)}")
            return _campaign_checks(env, dates, recorder.digests, campaign)

        return verify, RoundResult(
            windows=windows,
            collect_ns=collected_ns[1] - collected_ns[0],
            analyze_ns=[end - start for start, end in windows[1:]],
            attempted=env.service.transport.total_calls
            + ANALYSIS_PASSES * len(outputs),
            failed=recorder.missing + failed_outputs,
            stored_bytes=stored,
            excluded_ns=recorder.elapsed_ns,
        )


@dataclass
class _Timed:
    """A strategy whose ``collect`` runs are timed (the collection phase)."""

    inner: object
    clock: list

    @property
    def name(self) -> str:
        return self.inner.name

    def collect(self, client, spec):
        start = perf_counter_ns()
        try:
            return self.inner.collect(client, spec)
        finally:
            self.clock[0] += perf_counter_ns() - start


class Strategies:
    """Section 6: four collection strategies on every topic, scored."""

    name = "strategies"

    def setup(self, seed: int) -> Env:
        specs = paper_topics()
        world = build_world(specs, seed=seed, with_comments=False)
        return Env(world, _service(world, seed, specs), specs)

    def run(self, env: Env, workdir: Path) -> tuple[Callable[[], int], RoundResult]:
        client = YouTubeClient(env.service)
        collecting = [0]
        evaluations: dict[str, dict] = {}

        start = perf_counter_ns()
        for spec in env.specs:
            env.service.clock.set(STRATEGY_START)
            began = perf_counter_ns()
            pipeline = ChannelPipelineStrategy.from_seed_search(
                client, spec, max_channels=PIPELINE_CHANNELS
            )
            collecting[0] += perf_counter_ns() - began
            evaluations[spec.key] = {
                strategy.name: evaluate_strategy(
                    _Timed(strategy, collecting), client, spec,
                    STRATEGY_START, n_runs=STRATEGY_RUNS,
                )
                for strategy in (
                    TimeSplitStrategy(bin_hours=1),
                    TimeSplitStrategy(bin_hours=24),
                    TopicSplitStrategy(),
                    pipeline,
                )
            }
        end = perf_counter_ns()

        def verify() -> int:
            checks.check_strategies(evaluations)
            windows = (
                (
                    (spec.key, name, f"run {i}"), spec.key,
                    spec.window_start, spec.window_end,
                    STRATEGY_START + timedelta(days=5 * i), run.video_ids,
                )
                for spec in env.specs
                for name, evaluation in evaluations[spec.key].items()
                for i, run in enumerate(evaluation.runs)
            )
            return checks.check_ids_in_world(windows, env.world.videos.get)

        n_evaluations = sum(len(by_name) for by_name in evaluations.values())
        # The collection phase is the time inside the collection runs; the
        # rest of the evaluation window is the scoring around them.
        return verify, RoundResult(
            windows=[(start, end)],
            collect_ns=collecting[0],
            analyze_ns=[end - start - collecting[0]],
            attempted=env.service.transport.total_calls + n_evaluations,
            failed=0,
            stored_bytes=0,
        )


WORKLOADS = {w.name: w for w in (PaperAudit(), SpillSweep(), Strategies())}
