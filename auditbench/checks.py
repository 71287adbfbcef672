"""Correctness checks made apart from the program.

Every check takes plain data (per-bin ID lists, counts, the program's
analysis outputs) and recomputes what the output must be with plain Python
sets and strings, reading ground truth from the generated world's own
records rather than through the simulated API.  A failed check raises
:class:`CheckFailed`; ``selftest.py`` feeds each check a corrupted output
and asserts that it does.

A *bin* is keyed ``(snapshot index, topic, hour index)`` and maps to the
tuple of video IDs that hour-bin query returned, in order.  Of a collected
campaign the workloads keep only its *digests* (:func:`campaign_digests`),
not a copy of its ID lists; :func:`check_reload` proves the campaign read
back from disk equal to them, and the other checks then run on its bins.
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timedelta
from typing import Callable, Iterable, Iterator, Mapping

__all__ = [
    "CheckFailed",
    "SEARCH_UNITS",
    "bin_digests",
    "bin_windows",
    "campaign_bins",
    "campaign_digests",
    "check_figure1",
    "check_figure3",
    "check_ids_in_world",
    "check_ledger",
    "check_reload",
    "check_strategies",
    "expected_search_pages",
]

#: Quota cost of one Search:list page, as the Data API documents it.
#: Every other endpoint the workloads call costs one unit per call.
SEARCH_UNITS = 100

#: Results per Search:list page the collectors request.
PAGE_SIZE = 50

#: The 1 h split must cost more than this multiple of the 24 h split.  A
#: day's bin needs a second page whenever it holds more than 50 results,
#: so the ratio sits below the naive 24x: 19.3x-24.0x over six topics and
#: eight seeds, with blm and capriot under 20x on most seeds.
HOURLY_COST_RATIO = 15

Bins = Mapping[tuple[int, str, int], tuple[str, ...]]

#: ``(snapshot index, topic)`` -> (non-empty bins, IDs, digest of the bins).
Digests = Mapping[tuple[int, str], tuple[int, int, str]]


class CheckFailed(AssertionError):
    """A workload output disagrees with its independent recomputation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def campaign_bins(snapshots: Iterable) -> dict[tuple[int, str, int], tuple[str, ...]]:
    """The per-bin ID lists of a campaign's snapshots (empty bins omitted)."""
    return {
        (snap.index, topic, hour): tuple(ids)
        for snap in snapshots
        for topic, ts in snap.topics.items()
        for hour, ids in ts.hour_video_ids.items()
        if ids
    }


def bin_digests(bins: Bins) -> dict[tuple[int, str], tuple[int, int, str]]:
    """Per snapshot and topic: how many bins and IDs, and a digest of them.

    The BLAKE2b digest covers every bin's hour and its IDs in order, so two
    sets of bins have equal digests only if every bin is equal (barring a
    hash collision).
    """
    found: dict[tuple[int, str], list] = {}
    for (index, topic, hour), ids in sorted(bins.items()):
        entry = found.setdefault((index, topic), [0, 0, hashlib.blake2b(digest_size=16)])
        entry[0] += 1
        entry[1] += len(ids)
        entry[2].update(f"{hour}:{','.join(ids)};".encode())
    return {key: (n_bins, n_ids, h.hexdigest()) for key, (n_bins, n_ids, h) in found.items()}


def campaign_digests(snapshots: Iterable) -> dict[tuple[int, str], tuple[int, int, str]]:
    """:func:`bin_digests` of a campaign, one snapshot's bins at a time."""
    digests: dict[tuple[int, str], tuple[int, int, str]] = {}
    for snap in snapshots:
        digests.update(bin_digests(campaign_bins([snap])))
    return digests


def bin_windows(
    bins: Bins, window_starts: Mapping[str, datetime], dates: list[datetime]
) -> Iterator[tuple[object, str, datetime, datetime, datetime, Iterable[str]]]:
    """Each campaign bin as ``(label, topic, after, before, as_of, ids)``.

    ``window_starts`` gives each topic's first hour and ``dates`` each
    snapshot's collection date; bin ``h`` covers ``[start + h, start + h + 1)``
    hours.  The label is the bin's key.
    """
    hour = timedelta(hours=1)
    for key, ids in bins.items():
        index, topic, h = key
        after = window_starts[topic] + h * hour
        yield key, topic, after, after + hour, dates[index], ids


def check_ids_in_world(
    windows: Iterable[tuple[object, str, datetime, datetime, datetime, Iterable[str]]],
    lookup: Callable[[str], object | None],
) -> int:
    """Every returned ID is a real, on-topic video inside its window, alive then.

    ``windows`` yields ``(label, topic, after, before, as_of, ids)``: the
    query's topic, its ``[publishedAfter, publishedBefore)`` window, the
    date it ran, and what it returned.  ``lookup`` reads the world's own
    video record (``None`` if absent).  Returns the number of IDs checked.
    """
    checked = 0
    for label, topic, after, before, as_of, ids in windows:
        for video_id in ids:
            video = lookup(video_id)
            if video is None:
                problem = "is not in the world"
            elif video.topic != topic:
                problem = f"belongs to {video.topic}"
            elif not after <= video.published_at < before:
                problem = f"was published {video.published_at}, outside [{after}, {before})"
            elif video.published_at > as_of or (
                video.deleted_at is not None and video.deleted_at <= as_of
            ):
                problem = f"was not alive on {as_of}"
            else:
                checked += 1
                continue
            raise CheckFailed(f"{label}: {video_id} {problem}")
    return checked


def expected_search_pages(bins: Bins, grid: Iterable[tuple[int, str, int]]) -> int:
    """Σ over every (snapshot, topic, hour) bin of max(1, ⌈n/50⌉)."""
    return sum(
        max(1, -(-len(bins.get(key, ())) // PAGE_SIZE)) for key in grid
    )


def check_ledger(
    pages: int,
    calls_by_endpoint: Mapping[str, int],
    units_billed: int,
) -> None:
    """Search calls match the page count and the ledger matches the calls.

    ``pages`` is :func:`expected_search_pages`; ``calls_by_endpoint`` is
    the transport's completed-call histogram and ``units_billed`` the
    quota ledger's total.
    """
    search_calls = calls_by_endpoint.get("search.list", 0)
    _require(
        search_calls == pages,
        f"{search_calls} Search:list calls, {pages} pages expected",
    )
    other = sum(n for name, n in calls_by_endpoint.items() if name != "search.list")
    expected = SEARCH_UNITS * pages + other
    _require(
        units_billed == expected,
        f"ledger billed {units_billed} units, expected {expected} "
        f"({SEARCH_UNITS} x {pages} search pages + {other} one-unit calls)",
    )


def _snapshot_sets(bins: Bins, topic: str, n_snapshots: int) -> list[set[str]]:
    sets: list[set[str]] = [set() for _ in range(n_snapshots)]
    for (index, bin_topic, _hour), ids in bins.items():
        if bin_topic == topic:
            sets[index].update(ids)
    return sets


def check_figure1(bins: Bins, topic: str, n_snapshots: int, points: list) -> None:
    """The program's Figure 1 series equals plain set algebra on the bins."""
    sets = _snapshot_sets(bins, topic, n_snapshots)
    _require(len(points) == n_snapshots - 1, f"{topic}: {len(points)} Figure 1 points")

    def jaccard(a: set[str], b: set[str]) -> float:
        return 1.0 if not a and not b else len(a & b) / len(a | b)

    for point, t in zip(points, range(1, n_snapshots)):
        current, previous, first = sets[t], sets[t - 1], sets[0]
        expected = (
            t, jaccard(current, previous), jaccard(current, first),
            len(previous - current), len(current - previous), len(current),
        )
        actual = (
            point.index, point.j_previous, point.j_first,
            point.lost_from_previous, point.gained_since_previous, point.set_size,
        )
        _require(actual == expected, f"{topic} Figure 1 at {t}: {actual} != {expected}")


def check_figure3(
    bins: Bins,
    topics: Iterable[str],
    n_snapshots: int,
    counts: Mapping[tuple[str, ...], Mapping[str, int]],
) -> None:
    """The program's second-order transition counts equal a string recount."""
    expected: dict[tuple[str, ...], dict[str, int]] = {}
    for topic in topics:
        sets = _snapshot_sets(bins, topic, n_snapshots)
        for video_id in sorted(set().union(*sets)):
            sequence = "".join("P" if video_id in s else "A" for s in sets)
            for i in range(len(sequence) - 2):
                outgoing = expected.setdefault(tuple(sequence[i:i + 2]), {})
                outgoing[sequence[i + 2]] = outgoing.get(sequence[i + 2], 0) + 1
    actual = {history: dict(outgoing) for history, outgoing in counts.items()}
    _require(actual == expected, f"Figure 3 counts {actual} != recount {expected}")


def check_reload(collected: Digests, reloaded: Bins) -> None:
    """The campaign read back from disk has the collected per-bin ID lists.

    ``collected`` is :func:`campaign_digests` of the collected campaign.
    """
    actual = bin_digests(reloaded)
    if actual == collected:
        return
    missing = sorted(set(collected) - set(actual))[:3]
    extra = sorted(set(actual) - set(collected))[:3]
    changed = [
        (key, collected[key][:2], actual[key][:2])
        for key in sorted(set(collected) & set(actual))
        if collected[key] != actual[key]
    ][:3]
    raise CheckFailed(
        "reloaded bins differ: missing snapshot/topic "
        f"{missing}, extra {extra}, changed (bins, IDs) {changed}"
    )


def check_strategies(evaluations: Mapping[str, Mapping[str, object]]) -> None:
    """The Section 6 properties the method must show, on every topic.

    ``evaluations`` maps topic -> strategy name -> the program's
    :class:`~repro.strategies.evaluator.StrategyEvaluation`.
    """
    for topic, by_name in evaluations.items():
        hourly, daily = by_name["time-split/1h"], by_name["time-split/24h"]
        pipeline = by_name["channel-pipeline"]
        _require(
            hourly.units_per_run > HOURLY_COST_RATIO * daily.units_per_run,
            f"{topic}: 1h split {hourly.units_per_run} units/run is not "
            f"> {HOURLY_COST_RATIO}x the 24h split's {daily.units_per_run}",
        )
        _require(
            hourly.j_first_last == daily.j_first_last,
            f"{topic}: 1h and 24h first-to-last Jaccard differ "
            f"({hourly.j_first_last} vs {daily.j_first_last})",
        )
        for name, evaluation in by_name.items():
            if name != pipeline.strategy:
                _require(
                    pipeline.units_per_run < evaluation.units_per_run,
                    f"{topic}: channel pipeline ({pipeline.units_per_run} "
                    f"units/run) is not cheaper than {name}",
                )
        _require(
            pipeline.j_successive_mean > 0.98,
            f"{topic}: channel pipeline successive Jaccard "
            f"{pipeline.j_successive_mean} <= 0.98",
        )
        for name, evaluation in by_name.items():
            # Search pages cost 100 units; the pipeline's ID calls cost 1.
            per_call = 1 if name == pipeline.strategy else SEARCH_UNITS
            for run in evaluation.runs:
                _require(
                    run.quota_units == per_call * run.n_queries,
                    f"{topic} {name}: {run.quota_units} units for "
                    f"{run.n_queries} calls",
                )
