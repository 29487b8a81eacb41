"""Default size caps; constructions abort (never truncate) when a cap is hit."""

from __future__ import annotations

import os

from .errors import ParseError, SizeCapExceeded

#: total elements a Bernoulli poset / expansion construction may produce
DEFAULT_MAX_ELEMENTS = 2**16

#: largest ground set for order-ideal enumeration
DEFAULT_MAX_POSET = 8

#: largest group order attempted by the isomorphism backtracker
DEFAULT_ISO_CAP = 64

ENV_MAX_ELEMENTS = "INVCAT_MAX_ELEMENTS"


def resolve_max_elements(flag: str | None = None) -> int:
    """Resolve the element cap: the ``--max-elements`` value when given,
    else INVCAT_MAX_ELEMENTS when set, else ``DEFAULT_MAX_ELEMENTS``.

    Raises PARSE_ERROR when the value used is not a positive integer.
    """
    if flag is not None:
        raw, source, what = flag, "flag", "--max-elements"
    else:
        raw, source, what = os.environ.get(ENV_MAX_ELEMENTS), "variable", ENV_MAX_ELEMENTS
        if raw is None:
            return DEFAULT_MAX_ELEMENTS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ParseError(f"{what} must be a positive integer, got {raw!r}", value=raw, **{source: what})
    return value


def check_cap(what: str, size: int, cap: int) -> None:
    """Raise SIZE_CAP_EXCEEDED when the predicted ``size`` of ``what`` is
    above ``cap``; constructions call this before doing any work."""
    if size > cap:
        raise SizeCapExceeded(
            f"{what} would have {size} elements; cap is {cap}", size=size, cap=cap
        )
