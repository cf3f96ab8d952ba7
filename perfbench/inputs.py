"""Seeded inputs and the engine-independent oracle for every workload.

Documents are server-log files (``repro.workloads.server_logs``): one
``GET <path> <status>[ user=<u>][ ref=<r>]`` line per request, with the
``user`` and ``ref`` fields optional, so every extraction mixes total
mappings with mappings that leave ``user`` and/or ``ref`` undefined (⊥).

Truth never comes from the engine: each document is built from a list of
:class:`~repro.workloads.server_logs.LogLine` records, and the expected
answer is computed from those records — the access tuples of
``server_logs.expected_tuples`` (counted with multiplicity), verdicts
from a predicate on the lines.

Generation draws whole pre-rendered lines with the same field
distribution as ``server_logs.generate_lines`` (user present with
probability 0.5, referrer with probability 0.3), which keeps input
generation two orders of magnitude cheaper than the work it feeds;
:meth:`DocStream.take` draws a whole batch with numpy at once.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy

from repro.workloads import server_logs

#: The extraction pattern as text, for the HTTP endpoints.  Same language
#: and variables as ``server_logs.access_expression()``.
ACCESS_PATTERN = (
    ".*GET path{[^ \\n]*} status{[^ \\n]*}( user=user{[^ \\n]*})?"
    "( ref=ref{[^ \\n]*})?\\n.*"
)

_USER_PROBABILITY = 0.5
_REFERRER_PROBABILITY = 0.3


def _line_pool() -> tuple[list[server_logs.LogLine], list[str], list[float]]:
    lines, rendered, weights = [], [], []
    for path, status, user, referrer in itertools.product(
        server_logs._PATHS,
        server_logs._STATUS,
        [None, *server_logs._USERS],
        [None, *server_logs._PATHS],
    ):
        line = server_logs.LogLine(path, status, user, referrer)
        lines.append(line)
        rendered.append(line.render())
        user_weight = (
            1 - _USER_PROBABILITY
            if user is None
            else _USER_PROBABILITY / len(server_logs._USERS)
        )
        referrer_weight = (
            1 - _REFERRER_PROBABILITY
            if referrer is None
            else _REFERRER_PROBABILITY / len(server_logs._PATHS)
        )
        weights.append(user_weight * referrer_weight)
    return lines, rendered, weights


_LINES, _RENDERED, _WEIGHTS = _line_pool()
_CUMULATIVE = list(itertools.accumulate(_WEIGHTS))
_PROBABILITIES = numpy.array(_WEIGHTS) / sum(_WEIGHTS)


class Doc(NamedTuple):
    """One generated document and the line indices it was built from."""

    doc_id: str
    text: str
    lines: tuple[int, ...]

    def records(self) -> list[server_logs.LogLine]:
        return [_LINES[index] for index in self.lines]


class DocStream:
    """Documents of ``min_lines``–``max_lines`` lines drawn from a seed.

    Two draws of the same document are vanishingly rare (≥ 4 lines from
    600 line variants), so every stream is a stream of distinct files.
    """

    def __init__(self, seed: int, min_lines: int, max_lines: int, prefix: str):
        self._rng = random.Random(seed)
        self._bulk = numpy.random.default_rng(seed)
        self._min = min_lines
        self._max = max_lines
        self._prefix = prefix
        self._count = 0

    def next(self) -> Doc:
        count = self._rng.randint(self._min, self._max)
        indices = self._rng.choices(
            range(len(_LINES)), cum_weights=_CUMULATIVE, k=count
        )
        doc = Doc(
            f"{self._prefix}-{self._count:07d}",
            "".join(_RENDERED[index] for index in indices),
            tuple(indices),
        )
        self._count += 1
        return doc

    def take(self, count: int, spread: bool = False) -> list[Doc]:
        """The next ``count`` documents, drawn in one go (cheaper than
        ``count`` calls of :meth:`next`, and not the same documents).

        ``spread`` gives them line counts spaced evenly over the range
        instead of drawn: a small set that stands for the whole range,
        so its total size does not depend on the seed.
        """
        if spread:
            span = self._max - self._min + 1
            sizes = [self._min + i * span // count for i in range(count)]
        else:
            sizes = self._bulk.integers(self._min, self._max + 1, size=count).tolist()
        indices = self._bulk.choice(
            len(_LINES), size=sum(sizes), p=_PROBABILITIES
        ).tolist()
        docs, start = [], 0
        for size in sizes:
            lines = tuple(indices[start : start + size])
            start += size
            docs.append(Doc(
                f"{self._prefix}-{self._count:07d}",
                "".join(map(_RENDERED.__getitem__, lines)),
                lines,
            ))
            self._count += 1
        return docs


# -- truth ---------------------------------------------------------------------


def expected_tuples(doc: Doc) -> Counter:
    """The access tuples ``(path, status, user, ref)``, ⊥ as ``None``.

    ``server_logs.expected_tuples`` with multiplicity: every line is one
    mapping (identical lines differ in their spans), so a dropped or
    duplicated mapping shows even when its line has a twin.
    """
    return Counter((r.path, r.status, r.user, r.referrer) for r in doc.records())


@dataclass(frozen=True)
class LineFilter:
    """A verdict query ``.*GET p{P} s{S}[ user=u{U}][ ref=r{R}].*``.

    ``user``/``referrer`` of ``None`` leave that field unconstrained in
    the pattern — except that a referrer constraint without a user one
    requires the user to be absent (``ref=`` then follows the status).
    """

    path: str
    status: str
    user: str | None = None
    referrer: str | None = None

    @property
    def pattern(self) -> str:
        text = f".*GET p{{{_escape(self.path)}}} s{{{self.status}}}"
        if self.user is not None:
            text += f" user=u{{{self.user}}}"
        if self.referrer is not None:
            text += f" ref=r{{{_escape(self.referrer)}}}"
        return text + ".*"

    def holds(self, line: server_logs.LogLine) -> bool:
        if line.path != self.path or line.status != self.status:
            return False
        if self.user is not None and line.user != self.user:
            return False
        if self.referrer is not None:
            if line.referrer != self.referrer:
                return False
            if self.user is None and line.user is not None:
                return False
        return True

    @functools.cached_property
    def _matching(self) -> frozenset[int]:
        """The line variants :meth:`holds` accepts."""
        return frozenset(i for i, line in enumerate(_LINES) if self.holds(line))

    def verdict(self, doc: Doc) -> bool:
        return not self._matching.isdisjoint(doc.lines)


def _escape(literal: str) -> str:
    return literal.replace(".", "\\.")


#: The selective verdict query of ``filter-logs`` and of ``/evaluate`` in
#: ``serve-mixed``: ``.*GET p{/admin} s{500}.*``, true for ≈46% of
#: 12-line documents.
FILTER = LineFilter("/admin", "500")
FILTER_PATTERN = FILTER.pattern


def fresh_filters(seed: int) -> list[LineFilter]:
    """Every filter that also constrains user and/or referrer, shuffled.

    580 distinct patterns, none equal to :data:`FILTER_PATTERN`: the
    ``serve-mixed`` source of patterns not yet seen in the run.
    """
    filters = [
        LineFilter(path, status, user, referrer)
        for path, status, user, referrer in itertools.product(
            server_logs._PATHS,
            server_logs._STATUS,
            [None, *server_logs._USERS],
            [None, *server_logs._PATHS],
        )
        if user is not None or referrer is not None
    ]
    random.Random(seed).shuffle(filters)
    return filters


def decoded_tuples(records) -> Counter:
    """Access tuples from decoded mapping dicts (absent field = ``None``)."""
    return Counter(
        (record["path"], record["status"], record.get("user"), record.get("ref"))
        for record in records
    )
