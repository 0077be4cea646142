"""Raw tweets to truth: the full NLP pre-processing pipeline.

Mirrors the paper's Section V-A2 data pre-processing on a hand-written
mini event: keyword filtering, online Jaccard clustering into claims,
attitude / uncertainty / independence scoring, then SSTD truth
discovery over the resulting report stream.

Run:
    python examples/tweet_pipeline.py
"""

from repro.core import SSTD, SSTDConfig, TruthValue
from repro.core.acs import ACSConfig
from repro.text import KeywordFilter, RawTweet, TweetPipeline

# One afternoon of a simulated campus incident: a lockdown story that is
# real, and a "second shooter" rumor that gets debunked mid-stream.
TWEETS = [
    (0, "alice", "BREAKING: campus on lockdown, police everywhere"),
    (30, "bob", "campus lockdown confirmed, police everywhere near the library"),
    (45, "carol", "RT @alice: BREAKING: campus on lockdown, police everywhere"),
    (60, "dave", "campus on lockdown?? possibly, police everywhere"),
    (90, "erin", "police confirm campus lockdown, police everywhere"),
    (95, "frank", "lunch was great today"),  # off-topic; filtered out
    (120, "grace", "there is a second shooter near the stadium!!"),
    (130, "heidi", "RT @grace: there is a second shooter near the stadium!!"),
    (140, "ivan", "second shooter near the stadium? unconfirmed"),
    (200, "judy", "no second shooter near the stadium, police deny it"),
    (220, "kim", "there is no second shooter near the stadium, debunked, not true"),
    (240, "leo", "the second shooter near the stadium is fake news, not true"),
    (300, "mallory", "campus on lockdown still, police everywhere"),
    (330, "nick", "RT @erin: police confirm campus lockdown, police everywhere"),
]


def main() -> None:
    # The search query: off-topic tweets never reach the pipeline.
    keyword_filter = KeywordFilter(("campus", "lockdown", "shooter", "stadium"))
    tweets = [
        RawTweet(source_id=user, text=text, timestamp=float(t))
        for t, user, text in TWEETS
    ]
    on_topic = [tweet for tweet in tweets if keyword_filter.matches(tweet.text)]
    pipeline = TweetPipeline()
    reports = pipeline.process_stream(on_topic)
    print(
        f"Pipeline: {pipeline.processed} tweets scored, "
        f"{len(tweets) - len(on_topic)} filtered out\n"
    )
    print(f"{'t':>4}  {'claim':<12} {'att':>4} {'unc':>5} {'ind':>4}  text")
    for report in reports:
        print(
            f"{report.timestamp:>4.0f}  {report.claim_id:<12} "
            f"{int(report.attitude):>4} {report.uncertainty:>5.2f} "
            f"{report.independence:>4.1f}  {report.text[:46]}"
        )

    config = SSTDConfig(
        acs=ACSConfig(window=120.0, step=60.0), min_observations=3
    )
    engine = SSTD(config)
    estimates = engine.discover(reports)

    print("\nSSTD verdicts over time:")
    claims = sorted({e.claim_id for e in estimates})
    for claim_id in claims:
        cluster = pipeline.clusterer.clusters[claim_id]
        series = [e for e in estimates if e.claim_id == claim_id]
        timeline = " ".join(
            "T" if e.value is TruthValue.TRUE else "f" for e in series
        )
        print(f"  {claim_id}  [{timeline}]  topic: {cluster.centroid_text()}")

    print(
        "\nReading: the lockdown claim stays TRUE; the second-shooter "
        "rumor starts TRUE\n(witnesses amplified it) and flips to false "
        "once denials arrive - dynamic truth."
    )


if __name__ == "__main__":
    main()
