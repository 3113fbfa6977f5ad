"""Error type shared by every operation that validates its input, and the work budgets."""

from __future__ import annotations

import collections


class InputError(ValueError):
    """Raised when a problem document or operation argument breaks a precondition.

    ``path`` locates the offending entry inside the source JSON document,
    e.g. ``"walls[2].slope"``.  It is ``None`` for errors raised on values
    constructed directly in Python, and for errors raised after parsing.
    Parsers leave it unset: ``jsonio.field`` and ``jsonio.parse_list`` set
    it to the field or list entry being parsed when the error was raised.
    """

    def __init__(self, message: str, path: str | None = None):
        self.message = message
        self.path = path
        super().__init__(message if path is None else f"{message} (at {path})")


Budget = collections.namedtuple("Budget", "limit message")

# stage -> the work one call may take, and its message, formatted with the
# limit and then charge()'s details
BUDGETS = {
    "division": Budget(100_000, "long division took {} steps short of the window bound"),
    "detection": Budget(1_000_000, "detection took {} differenced entries"),
    "resummation": Budget(1_000_000, "resummation box needs more than {} "
                                     "multiply-adds and differenced entries"),
    "cone": Budget(100_000, "effective cone took {} classes short of l = {}"),
    "exp_ad": Budget(10_000, "exp_ad took {} rounds short of nilpotency"),
    "exp_ad_size": Budget(10_000_000, "exp_ad result needs more than {} classes "
                                      "times denominator bits"),
    "weights": Budget(1_000_000, "resummation weights need more than {} exponent entries"),
}


def charge(stage: str, used: int, *details) -> None:
    """Raise the stage's work-budget error once ``used`` passes its limit."""
    limit, message = BUDGETS[stage]
    if used > limit:
        raise InputError("work budget exceeded: " + message.format(limit, *details))
