"""Span recorder for the traced run, wrapped around the program from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
the public functions and methods listed in :data:`TARGETS` with wrappers
that record one span per call (name, start, end, parent), keeps the spans
in memory, and restores every original on exit.  From the spans it derives
each layer's self time (a span's duration minus the durations of its
direct children), per-layer counts, and the residual: the part of a timed
phase that no top-level span covers.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

__all__ = ["LAYER_METRICS", "TARGETS", "Tracer", "layer_metrics", "render_layer_table"]

_CHECKOUT = str(Path(__file__).resolve().parents[1])


def _search_bins(args: tuple, kwargs: dict) -> int:
    bounds = kwargs.get("bounds", args[2] if len(args) > 2 else ())
    return len(bounds)


def _quota_units(args: tuple, kwargs: dict) -> int:
    # charge(self, endpoint, day) / charge_many(self, endpoint, day, calls)
    ledger, endpoint = args[0], args[1]
    calls = kwargs.get("calls", args[3] if len(args) > 3 else 1)
    return ledger.cost_of(endpoint) * calls


#: (module, attribute path, span name, optional counter).  A counter maps
#: the call's arguments to an amount added to the span name's count.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    # world: generation and the service built over it (set-up)
    ("repro.world.corpus", "build_world", "world.build", None),
    ("repro.api.service", "build_service", "world.build", None),
    # sampling: the search behaviour engine
    ("repro.sampling.engine", "SearchBehaviorEngine.execute_sweep", "sampling.execute_sweep", None),
    ("repro.sampling.engine", "SearchBehaviorEngine.execute", "sampling.execute", None),
    # api: endpoints, quota ledger, client
    ("repro.api.search", "SearchEndpoint.sweep", "api.search_sweep", _search_bins),
    ("repro.api.search", "SearchEndpoint.list", "api.search_list", None),
    ("repro.api.videos", "VideosEndpoint.list", "api.videos_list", None),
    ("repro.api.channels_ep", "ChannelsEndpoint.list", "api.channels_list", None),
    ("repro.api.comment_threads", "CommentThreadsEndpoint.list", "api.comment_threads_list", None),
    ("repro.api.comments_ep", "CommentsEndpoint.list", "api.comments_list", None),
    ("repro.api.playlist_items", "PlaylistItemsEndpoint.list", "api.playlist_items_list", None),
    ("repro.api.quota", "QuotaLedger.charge", "api.quota_charge", _quota_units),
    ("repro.api.quota", "QuotaLedger.charge_many", "api.quota_charge", _quota_units),
    *(
        ("repro.api.client", f"YouTubeClient.{method}", "api.client", None)
        for method in (
            "search_page", "search_all", "search_sweep", "search_video_ids",
            "videos_list", "channels_list", "uploads_playlist_id",
            "playlist_video_ids", "comment_threads_all", "comment_replies_all",
        )
    ),
    # resilience: the per-bin partial sidecar
    ("repro.resilience.checkpoint", "PartialSnapshotStore.record_hour", "resilience.partial_record", None),
    # core: collector, persistence, index, analyses, report
    ("repro.core.campaign", "run_campaign", "core.collect", None),
    ("repro.core.collector", "SnapshotCollector.collect", "core.collect", None),
    ("repro.core.datasets", "CampaignResult.save", "core.campaign_save", None),
    ("repro.core.datasets", "CampaignResult.load", "core.campaign_load", None),
    ("repro.core.spill", "SpillStore.append", "core.spill_append", None),
    ("repro.core.spill", "SpillStore.open", "core.spill_read", None),
    ("repro.core.spill", "SpillStore.load", "core.spill_read", None),
    ("repro.core.spill", "SpillStore.read_snapshot", "core.spill_read", None),
    ("repro.core.index", "campaign_index", "core.index", None),
    ("repro.core.index", "CampaignIndex.build", "core.index", None),
    ("repro.core.index", "CampaignIndex.append_snapshot", "core.index", None),
    *(
        (module, function, "core.analysis", None)
        for module, function in (
            ("repro.core.consistency", "consistency_series"),
            ("repro.core.consistency", "gap_aware_consistency_series"),
            ("repro.core.attrition", "presence_sequences"),
            ("repro.core.attrition", "attrition_analysis"),
            ("repro.core.pools", "pool_stats"),
            ("repro.core.pools", "pool_consistency_coupling"),
            ("repro.core.daily", "daily_series"),
            ("repro.core.hourly", "hourly_stats"),
            ("repro.core.metadata_audit", "metadata_series"),
            ("repro.core.comment_audit", "comment_audit"),
            ("repro.core.returnmodel", "build_regression_records"),
            ("repro.core.returnmodel", "build_regression_design"),
        )
    ),
    *(
        ("repro.core.report", f"render_{name}", "core.report", None)
        for name in (
            "table1", "table2", "table4", "table5", "figure1", "figure2",
            "figure3", "figure4", "regression",
        )
    ),
    # stats: the Table 3/6/7 model fits
    ("repro.core.returnmodel", "fit_binned_ordinal", "stats.fit", None),
    ("repro.core.returnmodel", "fit_frequency_ols", "stats.fit", None),
    ("repro.core.returnmodel", "fit_unbinned_ordinal", "stats.fit", None),
    # strategies: the Section 6 collection strategies and their scoring
    *(
        (f"repro.strategies.{module}", f"{cls}.collect", "strategies.collect", None)
        for module, cls in (
            ("timesplit", "TimeSplitStrategy"),
            ("topicsplit", "TopicSplitStrategy"),
            ("channelpipe", "ChannelPipelineStrategy"),
        )
    ),
    ("repro.strategies.channelpipe", "ChannelPipelineStrategy.from_seed_search", "strategies.collect", None),
    ("repro.strategies.evaluator", "evaluate_strategy", "strategies.score", None),
)

#: Every per-layer metric a traced run reports, in print order:
#: (metric, unit, how it is derived).  ``self:<span>`` is the span name's
#: summed self time, ``calls:<span>`` its number of spans, ``count:<span>``
#: its counter total; the rest are filled in by the runner.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("world.build_s", "s", "self:world.build"),
    ("sampling.execute_sweep_s", "s", "self:sampling.execute_sweep"),
    ("sampling.execute_sweep_calls", "count", "calls:sampling.execute_sweep"),
    ("sampling.execute_s", "s", "self:sampling.execute"),
    ("sampling.execute_calls", "count", "calls:sampling.execute"),
    ("api.search_sweep_s", "s", "self:api.search_sweep"),
    ("api.search_bins", "count", "count:api.search_sweep"),
    ("api.search_list_s", "s", "self:api.search_list"),
    ("api.search_list_calls", "count", "calls:api.search_list"),
    ("api.videos_list_s", "s", "self:api.videos_list"),
    ("api.videos_list_calls", "count", "calls:api.videos_list"),
    ("api.channels_list_s", "s", "self:api.channels_list"),
    ("api.channels_list_calls", "count", "calls:api.channels_list"),
    ("api.comment_threads_list_s", "s", "self:api.comment_threads_list"),
    ("api.comment_threads_list_calls", "count", "calls:api.comment_threads_list"),
    ("api.comments_list_s", "s", "self:api.comments_list"),
    ("api.comments_list_calls", "count", "calls:api.comments_list"),
    ("api.playlist_items_list_s", "s", "self:api.playlist_items_list"),
    ("api.playlist_items_list_calls", "count", "calls:api.playlist_items_list"),
    ("api.quota_charge_s", "s", "self:api.quota_charge"),
    ("api.quota_units", "units", "count:api.quota_charge"),
    ("api.client_s", "s", "self:api.client"),
    ("resilience.partial_record_s", "s", "self:resilience.partial_record"),
    ("resilience.partial_records", "count", "calls:resilience.partial_record"),
    ("core.collect_self_s", "s", "self:core.collect"),
    ("core.campaign_save_s", "s", "self:core.campaign_save"),
    ("core.campaign_load_s", "s", "self:core.campaign_load"),
    ("core.spill_append_s", "s", "self:core.spill_append"),
    ("core.spill_read_s", "s", "self:core.spill_read"),
    ("core.stored_bytes", "bytes", "runner"),
    ("core.index_s", "s", "self:core.index"),
    ("core.analysis_s", "s", "self:core.analysis"),
    ("core.report_s", "s", "self:core.report"),
    ("stats.fit_s", "s", "self:stats.fit"),
    ("strategies.collect_self_s", "s", "self:strategies.collect"),
    ("strategies.score_s", "s", "self:strategies.score"),
    ("residual_s", "s", "runner"),
    ("trace.spans", "count", "runner"),
    ("trace.overhead_s", "s", "runner"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw descriptor) for ``module:path``."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, owner.__dict__[attribute]


class Tracer:
    """Records spans while active; a context manager that patches and restores.

    Spans are ``(name, start_ns, end_ns, parent)`` tuples in start order;
    ``parent`` is the index of the enclosing span or ``-1``.  Counts
    accumulate per span name.  The program is single-threaded on every
    workload, so one stack describes the nesting.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, function: Callable, name: str, counter: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if counter is not None:
                    counts[name] += counter(args, kwargs)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def __enter__(self) -> "Tracer":
        replaced: dict[int, tuple[Callable, Callable]] = {}
        for module_name, path, name, counter in TARGETS:
            owner, attribute, raw = _resolve(module_name, path)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, counter))
            else:
                wrapped = self._wrap(raw, name, counter)
                replaced[id(raw)] = (raw, wrapped)
            self._restore.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
        # Module-level functions are also bound by name wherever a module
        # of the checkout did ``from x import f``; rebind those aliases too.
        for module in list(sys.modules.values()):
            if not str(getattr(module, "__file__", None)).startswith(_CHECKOUT):
                continue
            for attribute, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attribute, value))
                    setattr(module, attribute, entry[1])
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()

    # -- derived figures ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), children in zip(self.spans, child_ns):
            totals[name] += (end - start - children) / 1e9
        return totals

    def calls(self) -> dict[str, int]:
        """Number of spans per name."""
        out: dict[str, int] = defaultdict(int)
        for name, *_rest in self.spans:
            out[name] += 1
        return out

    def covered_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds of ``[start_ns, end_ns)`` covered by top-level spans."""
        return sum(
            min(end, end_ns) - max(start, start_ns)
            for _name, start, end, parent in self.spans
            if parent < 0 and start < end_ns and end > start_ns
        ) / 1e9

    def write(self, path: Path, trace_id: str) -> int:
        """Write the spans as JSON lines; returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "trace": trace_id, "span": index, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")
        return len(self.spans)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced round."""
    self_s, calls = tracer.self_times(), tracer.calls()
    out: dict[str, float] = {}
    for metric, _unit, source in LAYER_METRICS:
        kind, _, span = source.partition(":")
        if kind == "self":
            out[metric] = self_s.get(span, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(span, 0)
        elif kind == "count":
            out[metric] = tracer.counts.get(span, 0)
    return out


def render_layer_table(workload: str, metrics: dict[str, float], phase_s: float) -> str:
    """The per-layer table: self times with their share of the timed phases."""
    lines = [
        f"per-layer attribution, {workload} (traced; timed phases {phase_s:.3f} s)",
        f"{'metric':<34}{'value':>16}{'share':>9}",
    ]
    for metric, unit, _source in LAYER_METRICS:
        value = metrics[metric]
        if unit == "s":
            share = f"{100.0 * value / phase_s:8.1f}%" if phase_s > 0 else ""
            lines.append(f"{metric:<34}{value:>14.4f} s{share}")
        else:
            lines.append(f"{metric:<34}{value:>16,.0f}")
    return "\n".join(lines)
