"""One request's Groebner counters and wall-time budget.

`collect_stats` opens a request; `check_deadline` is read by every loop
that can run long, the Weyl product as well as the Groebner core.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, fields

from .errors import ComputationTimeout, InvalidSetting

TIME_LIMIT_ENV = "MULTID_TIME_LIMIT_MS"


@dataclass
class GBStats:
    """Diagnostic counters for one Groebner run, in `--stats` order.

    A run may be a basis run or a reduction-only one (a membership test, a
    minimal polynomial, an S-pair audit), which counts only its reduction
    steps, its largest coefficient and its wall time.
    """

    spairs: int = 0
    zero_spairs: int = 0
    zero_steps: int = 0  # reduction steps spent on S-pairs that reduce to zero
    pruned_chain: int = 0
    pruned_product: int = 0
    reductions: int = 0
    max_coeff_bits: int = 0  # a maximum; every other counter is a sum
    millis: int = 0

    def note_coeff(self, c: int):
        b = c.bit_length()
        if b > self.max_coeff_bits:
            self.max_coeff_bits = b

    def merge(self, other: "GBStats"):
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, max(a, b) if f.name == "max_coeff_bits" else a + b)

    def as_dict(self) -> dict:
        return asdict(self)


# (stats total, monotonic deadline or None) of the innermost open block
_REQUEST: ContextVar[tuple[GBStats, float | None] | None] = ContextVar(
    "gb_request", default=None
)


@contextmanager
def collect_stats():
    """Yields a GBStats totalling the Groebner runs in the block, a run cut
    off by ComputationTimeout with the counts it reached.

    The block is one request: the MULTID_TIME_LIMIT_MS budget is read when
    it opens and covers every run inside it.  When blocks nest, the
    innermost one counts a run and sets its budget.  A value that is not
    a nonnegative integer raises InvalidSetting, a ValueError.
    """
    total = GBStats()
    ms = os.environ.get(TIME_LIMIT_ENV)
    deadline = None
    if ms:
        try:
            limit = int(ms)
        except ValueError:
            limit = -1
        if limit < 0:
            raise InvalidSetting(
                f"{TIME_LIMIT_ENV} must be a nonnegative integer of"
                f" milliseconds, not {ms!r}"
            )
        deadline = time.monotonic() + limit / 1000.0
    token = _REQUEST.set((total, deadline))
    try:
        yield total
    finally:
        _REQUEST.reset(token)


def check_deadline():
    """Raise ComputationTimeout once the enclosing block's budget is spent."""
    request = _REQUEST.get()
    deadline = request[1] if request is not None else None
    if deadline is not None and time.monotonic() > deadline:
        raise ComputationTimeout(
            f"computation exceeded the {TIME_LIMIT_ENV} wall-time cap"
        )
