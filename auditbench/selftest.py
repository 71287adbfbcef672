"""Self-test of the correctness checks: each must reject a corrupted output.

    python3 auditbench/selftest.py

Collects a small real campaign (three topics' worth of the paper's design
at scale 0.05, three collections, search only), confirms that every check
in ``checks.py`` passes on its true outputs, then feeds each check one
corrupted copy and asserts that it raises ``CheckFailed``:

* a video outside its bin's window (and one from another topic);
* a dropped bin and a changed ID in the reloaded campaign;
* a miscounted ledger (one unit too many, one search call too few);
* a wrong Figure 1 Jaccard value and a wrong Figure 3 transition count;
* strategy scorecards that break the Section 6 properties.

Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"selftest: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from repro import YouTubeClient, build_service, build_world
    from repro.api.quota import QuotaPolicy
    from repro.core.attrition import attrition_analysis
    from repro.core.campaign import run_campaign
    from repro.core.consistency import consistency_series
    from repro.core.experiments import paper_campaign_config
    from repro.world.corpus import scale_topics
    from repro.world.topics import paper_topics

    specs = scale_topics(paper_topics()[:3], 0.05)
    world = build_world(specs, seed=7, with_comments=False)
    service = build_service(
        world, seed=7, specs=specs,
        quota_policy=QuotaPolicy(researcher_program=True),
    )
    config = dataclasses.replace(
        paper_campaign_config(topics=specs, collect_metadata=False, with_comments=False),
        n_scheduled=3, skipped_indices=frozenset(),
    )
    campaign = run_campaign(config, YouTubeClient(service))
    bins = checks.campaign_bins(campaign.snapshots)
    dates = list(config.collection_dates)
    n = len(dates)
    starts = {spec.key: spec.window_start for spec in specs}
    grid = [(i, s.key, h) for i in range(n) for s in specs for h in range(s.window_hours)]
    pages = checks.expected_search_pages(bins, grid)
    calls = service.transport.calls_by_endpoint()
    units = service.quota.total_used
    topic = specs[0].key
    points = consistency_series(campaign, topic)
    counts = attrition_analysis(campaign).chain.counts
    topics = [spec.key for spec in specs]

    def in_world(bins_) -> None:
        checks.check_ids_in_world(checks.bin_windows(bins_, starts, dates), world.videos.get)

    # A video of the first bin's topic published in another hour, and one
    # from another topic, each swapped into that bin.
    key = next(iter(bins))
    index, bin_topic, hour = key
    after = starts[bin_topic]
    wrong_hour = next(
        v.video_id for v in world.videos.values()
        if v.topic == bin_topic and v.published_at >= after
        and int((v.published_at - after).total_seconds() // 3600) != hour
    )
    other_topic = next(v.video_id for v in world.videos.values() if v.topic != bin_topic)
    digests = checks.campaign_digests(campaign.snapshots)
    dropped = dict(bins)
    del dropped[key]
    bad_point = dataclasses.replace(points[-1], j_first=points[-1].j_first + 0.01)
    history = next(iter(counts))
    state = next(iter(counts[history]))
    bad_counts = {h: dict(o) for h, o in counts.items()}
    bad_counts[history][state] += 1

    def scorecard(name, units_per_run, j_first_last=0.5, j_successive=0.5, per_call=100):
        run = SimpleNamespace(quota_units=per_call * 10, n_queries=10)
        return SimpleNamespace(
            strategy=name, units_per_run=units_per_run, j_first_last=j_first_last,
            j_successive_mean=j_successive, runs=[run],
        )

    def strategies(hourly=67200, pipeline_j=1.0, pipeline_units=240, hourly_j=0.6):
        return {"t": {
            "time-split/1h": scorecard("time-split/1h", hourly, hourly_j),
            "time-split/24h": scorecard("time-split/24h", 3000, 0.6),
            "topic-split": scorecard("topic-split", 2500),
            "channel-pipeline": scorecard(
                "channel-pipeline", pipeline_units, 1.0, pipeline_j, per_call=1
            ),
        }}

    cases = {
        "video outside its window": lambda b: in_world(b),
        "ledger": lambda c: checks.check_ledger(pages, *c),
        "reload": lambda r: checks.check_reload(digests, r),
        "figure 1": lambda p: checks.check_figure1(bins, topic, n, p),
        "figure 3": lambda c: checks.check_figure3(bins, topics, n, c),
        "strategies": lambda e: checks.check_strategies(e),
    }
    true_outputs = {
        "video outside its window": bins,
        "ledger": (calls, units),
        "reload": checks.campaign_bins(campaign.snapshots),
        "figure 1": points,
        "figure 3": counts,
        "strategies": strategies(),
    }
    corrupted = [
        ("video outside its window", "video from another hour",
         {**bins, key: (wrong_hour,) + bins[key][1:]}),
        ("video outside its window", "video from another topic",
         {**bins, key: (other_topic,) + bins[key][1:]}),
        ("reload", "dropped bin", dropped),
        ("reload", "changed ID", {**bins, key: (other_topic,) + bins[key][1:]}),
        ("ledger", "one unit too many", (calls, units + 1)),
        ("ledger", "one search call too few",
         ({**calls, "search.list": calls["search.list"] - 1}, units - 100)),
        ("figure 1", "wrong Jaccard value", points[:-1] + [bad_point]),
        ("figure 3", "wrong transition count", bad_counts),
        ("strategies", "1h split too cheap", strategies(hourly=40000)),
        ("strategies", "1h and 24h Jaccard differ", strategies(hourly_j=0.61)),
        ("strategies", "pipeline unstable", strategies(pipeline_j=0.97)),
        ("strategies", "pipeline not cheapest", strategies(pipeline_units=2600)),
    ]

    for name, check in cases.items():
        check(true_outputs[name])
        print(f"ok    {name}: passes on the true output")
    missed = 0
    for name, corruption, output in corrupted:
        try:
            cases[name](output)
        except checks.CheckFailed as exc:
            print(f"ok    {name}: rejects {corruption} ({str(exc)[:70]})")
        else:
            print(f"MISS  {name}: accepted {corruption}")
            missed += 1
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
