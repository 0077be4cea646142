"""Tweet tokenization.

Small, dependency-free tokenizer tuned for micro-blog text: lowercases,
keeps hashtags and @mentions as single tokens, strips URLs and
punctuation.  Everything downstream (Jaccard distance, clustering, the
attitude and hedge classifiers) consumes these tokens.
"""

from __future__ import annotations

import re
__all__ = [
    "STOPWORDS",
    "content_tokens",
    "token_set",
    "tokenize",
]

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_TOKEN_RE = re.compile(r"[#@]?[a-z0-9']+")

#: Common English stopwords; kept short on purpose — micro-blog text is
#: short and over-aggressive stopword removal destroys Jaccard signal.
STOPWORDS = frozenset(
    """a an and are as at be but by for from has have i in is it its of on
    or s t that the this to was we were will with you your""".split()
)


def tokenize(text: str) -> list[str]:
    """Tokens of ``text``: lowercase words, hashtags, and mentions."""
    cleaned = _URL_RE.sub(" ", text.lower())
    return _TOKEN_RE.findall(cleaned)


def content_tokens(text: str) -> list[str]:
    """Tokens minus stopwords and pure-number tokens."""
    return [
        token
        for token in tokenize(text)
        if token not in STOPWORDS and not token.isdigit()
    ]


def token_set(text: str) -> frozenset[str]:
    """Deduplicated content tokens (the Jaccard representation)."""
    return frozenset(content_tokens(text))
