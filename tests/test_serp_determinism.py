"""Study-level determinism lock.

A fixed scenario seed reproduces the *entire* measurement bit for bit —
the PSR dataset and the Table 1/2 aggregates built from it.
"""

from __future__ import annotations

import pytest

from repro.analysis import DailyAggregates, campaign_table, vertical_table
from repro.crawler.serp_crawler import CrawlPolicy
from repro.ecosystem import small_preset
from repro.study import StudyRun


def _run():
    return StudyRun(
        small_preset(),
        crawl_policy=CrawlPolicy(stride_days=2),
    ).execute()


@pytest.fixture(scope="module")
def baseline():
    return _run()


def _record_rows(results):
    return [record.to_json() for record in results.dataset.records]


def test_same_seed_reproduces_dataset_and_tables(baseline):
    repeat = _run()

    assert _record_rows(repeat) == _record_rows(baseline)

    base_agg = DailyAggregates(baseline.dataset)
    rep_agg = DailyAggregates(repeat.dataset)
    assert vertical_table(repeat.dataset, rep_agg) == vertical_table(
        baseline.dataset, base_agg
    )
    brands = [b.name for b in baseline.world.brand_catalog.all()]
    assert campaign_table(
        repeat.dataset, repeat.archive, brands, aggregates=rep_agg
    ) == campaign_table(
        baseline.dataset, baseline.archive, brands, aggregates=base_agg
    )
