"""Simulated data crawler (the paper's Figure 2 "crawler" box).

"[The master node] is connected to the data crawler which continuously
fetches the social sensing data."  The real system polled Twitter's
search/streaming APIs; this adapter replays a synthetic trace as *raw
tweets* — text, author, timestamp only — so the downstream application
must run the full text pipeline (clustering, attitude, uncertainty,
independence) exactly as a live deployment would.  Nothing from the
generator's ground truth leaks through except the text itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.streams.replay import StreamReplayer
from repro.streams.trace import Trace
from repro.text.pipeline import RawTweet

__all__ = [
    "CrawlBatch",
    "SimulatedCrawler",
]

#: Replay rate in tweets/second.
SPEED = 100.0
#: Replay duration in seconds.
DURATION = 60.0
#: Seconds between polls (the crawler's API cadence).
POLL_INTERVAL = 5.0


@dataclass(frozen=True, slots=True)
class CrawlBatch:
    """One poll's worth of raw tweets."""

    poll_time: float
    tweets: tuple[RawTweet, ...]

    def __len__(self) -> int:
        return len(self.tweets)


class SimulatedCrawler:
    """Polls a replayed trace like a search-API crawler.

    ``trace`` must carry text (generate with
    ``GeneratorConfig(with_text=True)``, the default); it is replayed at
    :data:`SPEED` tweets/second for :data:`DURATION` seconds and polled
    every :data:`POLL_INTERVAL` seconds.
    """

    def __init__(self, trace: Trace) -> None:
        if trace.reports and not any(r.text for r in trace.reports[:100]):
            raise ValueError(
                "trace has no tweet text; regenerate with with_text=True"
            )
        self.trace = trace
        self._replayer = StreamReplayer(trace, speed=SPEED, duration=DURATION)

    def total_tweets(self) -> int:
        return self._replayer.total_reports()

    def polls(self) -> Iterator[CrawlBatch]:
        """Yield one :class:`CrawlBatch` per poll interval."""
        pending: list[RawTweet] = []
        boundary = POLL_INTERVAL
        for batch in self._replayer.batches():
            for report in batch.reports:
                pending.append(
                    RawTweet(
                        source_id=report.source_id,
                        text=report.text,
                        timestamp=report.timestamp,
                    )
                )
            if batch.arrival_time >= boundary:
                yield CrawlBatch(poll_time=boundary, tweets=tuple(pending))
                pending = []
                boundary += POLL_INTERVAL
        if pending:
            yield CrawlBatch(poll_time=boundary, tweets=tuple(pending))
