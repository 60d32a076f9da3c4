"""Golden-snapshot lock on SERP serving.

The scenario below exercises every scoring input the engine knows about —
authority/relevance statics, per-(term, day) ranking noise, time-varying
SEO signals, ``indexed_on`` gating, host demotion with a start day, result
labels, host-cap clustering, and deindexing — and pins the exact output
(URL order and bit-exact scores via ``float.hex``) to
``tests/data/serp_golden.json``.

The snapshot pins the columnar engine's noise stream: PCG64
``standard_normal`` with SHA-256-derived per-(term, day) state (see
``NoiseSource``), adopted — and the snapshot regenerated, the one
deliberate, documented divergence of that change — when serving went
columnar, because replaying CPython's Mersenne-Twister ``gauss`` stream
cost more per query in reseeding alone than the rest of serving combined.
Ordering, labels, and every other scoring input are unchanged from the
scalar loop, and batch noise equals sequential scalar draws bit for bit
(``tests/test_search.py``).  Regenerate (only with a justification in the
PR) via::

    PYTHONPATH=src python tests/test_serp_golden.py --regen
"""

from __future__ import annotations

import json
import os

from repro.util.rng import RandomStreams
from repro.util.simtime import SimDate
from repro.web.domains import DomainRegistry
from repro.web.sites import Site, SiteKind
from repro.search import ResultLabel, SearchEngine, SearchIndex

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "serp_golden.json")

DAY0 = SimDate("2013-11-13")
TERMS = ("cheap uggs", "louis vuitton outlet", "beats by dre sale")
#: Days captured per term: before/after the demotion day and the
#: late-indexed doorway's entry day.
CAPTURE_OFFSETS = (0, 3, 6, 12, 30)


def _signal(quality: float):
    """A deterministic time-varying SEO signal (campaign effort analogue)."""

    def signal(day) -> float:
        return quality * (0.6 + 0.05 * (day.ordinal % 7))

    return signal


def build_engine() -> SearchEngine:
    streams = RandomStreams(20140715)
    registry = DomainRegistry()
    index = SearchIndex()
    for t, term in enumerate(TERMS):
        # Legitimate background: 120 single-page sites with interleaved
        # authority/relevance so ranking noise matters near the cut.
        for i in range(120):
            domain = registry.register(f"legit{t}-{i}.com", DAY0)
            site = Site(domain, SiteKind.LEGITIMATE,
                        authority=0.25 + 0.005 * ((i * 7) % 120),
                        created_on=DAY0)
            index.add_page(term, site, "/", relevance=0.4 + 0.004 * ((i * 13) % 120))
        # A handful of multi-page hosts to exercise the host-result cap.
        for i in range(4):
            domain = registry.register(f"big{t}-{i}.com", DAY0)
            site = Site(domain, SiteKind.LEGITIMATE, authority=0.85 + 0.02 * i,
                        created_on=DAY0)
            for p in range(5):
                index.add_page(term, site, f"/cat{p}.html", relevance=0.7 + 0.01 * p)
        # Doorways: strong SEO signal, deep-page authority discount, and a
        # staggered indexed_on so entry gating shows up in the captures.
        for i in range(8):
            domain = registry.register(f"doorway{t}-{i}.net", DAY0)
            site = Site(domain, SiteKind.COMPROMISED, authority=0.5 + 0.03 * i,
                        created_on=DAY0)
            index.add_page(
                term, site, f"/door{i}.html", relevance=0.75,
                seo_signal=_signal(0.8 + 0.05 * i),
                indexed_on=DAY0 + (i % 4) * 2,
                authority_factor=0.75,
            )
    engine = SearchEngine(index, streams, serp_size=50, max_results_per_host=2)
    # Interventions: a demotion kicking in mid-window, labels on two hosts,
    # and a deindexed doorway.
    engine.demote_host("doorway0-1.net", DAY0 + 5, amount=1.2)
    engine.demote_host("big0-3.com", DAY0 + 10, amount=0.4)
    engine.label_host("doorway1-2.net", DAY0 + 3, ResultLabel.HACKED)
    engine.label_host("doorway2-0.net", DAY0 + 4, ResultLabel.MALWARE)
    engine.deindex_host("doorway0-5.net")
    return engine


def capture(engine: SearchEngine):
    cases = []
    for term in TERMS:
        for offset in CAPTURE_OFFSETS:
            day = DAY0 + offset
            serp = engine.serp(term, day)
            cases.append({
                "term": term,
                "day": day.isoformat(),
                "results": [
                    {
                        "rank": r.rank,
                        "url": r.url,
                        "label": r.label.value,
                        "score": r.score.hex(),
                    }
                    for r in serp.results
                ],
            })
    return cases


def test_serp_golden_snapshot_repeat_serve_bit_exact():
    """A repeat serve must match a fresh serve and the golden snapshot bit
    for bit: the engine keeps no SERP memo, and ranking is a pure function
    of engine state and the (term, day) noise stream."""
    engine = build_engine()
    first = capture(engine)
    second = capture(engine)
    assert second == first
    assert capture(build_engine()) == first
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert [(c["term"], c["day"], [r["score"] for r in c["results"]]) for c in second] == \
           [(c["term"], c["day"], [r["score"] for r in c["results"]]) for c in golden]


def test_serp_golden_snapshot():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    cases = capture(build_engine())
    assert len(cases) == len(golden)
    for got, want in zip(cases, golden):
        assert got["term"] == want["term"]
        assert got["day"] == want["day"]
        got_rows = [(r["rank"], r["url"], r["label"]) for r in got["results"]]
        want_rows = [(r["rank"], r["url"], r["label"]) for r in want["results"]]
        assert got_rows == want_rows, f"order diverged for {got['term']}@{got['day']}"
        got_scores = [r["score"] for r in got["results"]]
        want_scores = [r["score"] for r in want["results"]]
        assert got_scores == want_scores, (
            f"scores not bit-identical for {got['term']}@{got['day']}"
        )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(capture(build_engine()), handle, indent=1)
        print(f"wrote {GOLDEN_PATH}")
    else:
        test_serp_golden_snapshot()
        print("golden snapshot matches")
