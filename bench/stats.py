"""Latency summaries and failure accounting."""

import statistics
from collections import Counter

#: The tail percentile is the highest one with this many samples above it.
TAIL_BEYOND = 10
#: Failure messages a tally keeps as examples.
EXAMPLES = 5


def tail(samples):
    """(value, percentile, n) of the highest percentile with TAIL_BEYOND
    samples ranked above it.

    The value is the (TAIL_BEYOND + 1)-th largest sample, which sits at
    percentile 100 * (n - TAIL_BEYOND) / n.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    ranked = sorted(samples)
    return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(samples):
    return statistics.median(samples) if samples else 0.0


class Tally:
    """Attempted and failed tasks; error_rate = failed / attempted.

    A task fails when its check lists any problem. Tags mark task classes,
    such as malformed input given on purpose ("invalid_input"), so that a
    failure share can be set against the share of tasks of that class.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tagged = Counter()
        self.failed_tagged = Counter()
        self.examples = []

    def add(self, task_name: str, problems: list, tags=()) -> None:
        self.attempted += 1
        self.tagged.update(tags)
        if problems:
            self.failed += 1
            self.failed_tagged.update(tags)
            if len(self.examples) < EXAMPLES:
                self.examples.append(f"{task_name}: {'; '.join(problems[:3])}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def valid_failed(self) -> int:
        """Failures among tasks whose input is valid."""
        return self.failed - self.failed_tagged["invalid_input"]
