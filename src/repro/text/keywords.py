"""Keyword filtering: the first pre-processing stage (Section V-A2).

"We first used a set of pre-specified keywords to filter out tweets that
are irrelevant to the event of interests" — the same role the Twitter
search queries of Table II play at collection time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.text.tokenize import tokenize

__all__ = [
    "BOSTON_KEYWORDS",
    "FOOTBALL_KEYWORDS",
    "KeywordFilter",
    "PARIS_KEYWORDS",
]


@dataclass(frozen=True)
class KeywordFilter:
    """Keeps tweets containing at least one of the keywords.

    Keywords are matched as whole lowercase tokens; multi-word keywords
    match when all their tokens appear (order-insensitive, as search
    APIs treat queries).
    """

    keywords: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError("need at least one keyword")

    def _keyword_tokens(self) -> list[frozenset[str]]:
        return [frozenset(tokenize(keyword)) for keyword in self.keywords]

    def matches(self, text: str) -> bool:
        tokens = set(tokenize(text))
        return any(
            keyword and keyword <= tokens for keyword in self._keyword_tokens()
        )

    def filter(self, texts: Iterable[str]) -> list[str]:
        return [text for text in texts if self.matches(text)]


#: The paper's Table II search keywords, per trace.
BOSTON_KEYWORDS = ("bombing", "marathon", "attack", "boston")
PARIS_KEYWORDS = ("paris", "shooting", "charlie hebdo")
FOOTBALL_KEYWORDS = (
    "fighting irish",
    "buckeyes",
    "notre dame",
    "touchdown",
    "game",
)
