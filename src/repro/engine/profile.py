"""A wall-clock stopwatch for timing metadata.

``cli synth --cache`` records how long a synthesis took next to the
stored result. It uses ``time.perf_counter`` — timings are metadata and
never enter results or fingerprints.
"""

from __future__ import annotations

import time
from typing import Optional


class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     work()
    >>> t.elapsed_s  # doctest: +SKIP
    0.42
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed_s: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self.elapsed_s = time.perf_counter() - self._start

    def restart(self) -> None:
        self._start = time.perf_counter()
        self.elapsed_s = 0.0
