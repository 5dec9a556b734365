"""The resource cap: its default, its resolution and the one check of every
limit, made from integers before what it counts is built."""

from __future__ import annotations

import os

DEFAULT_CAP = 2_000_000
CAP_ENV = "AFFINECLASSES_CAP"


class CapExceeded(RuntimeError):
    """A group, point set, table or series is larger than the cap."""


def resolve(flag: int | None, configured: str | None = None,
            default: int | None = DEFAULT_CAP) -> int | None:
    """The flag, else AFFINECLASSES_CAP, else the config file's text for the
    key cap, else default; ValueError unless an integer of at least 1.  A
    default of None tells the caller that nothing set the cap."""
    cap, env = flag, os.environ.get(CAP_ENV, "").strip()
    name, text = (CAP_ENV, env) if env else ("config key cap", configured)
    if cap is None and text is not None:
        try:
            cap = int(text)
        except ValueError:
            raise ValueError("%s must be an integer, got %r" % (name, text))
    if cap is None:
        return default
    if cap < 1:
        raise ValueError("the cap must be at least 1, got %d" % cap)
    return cap


def _shown(count: int) -> str:
    # str() refuses ints over a digit limit, which can be set no lower
    # than 640 digits (about 2126 bits)
    bits = count.bit_length()
    return str(count) if bits <= 2000 else "(at least 2^%d)" % (bits - 1)


def check(cap: int, text: str, base: int, exp: int = 1) -> None:
    """Raise CapExceeded when base**exp > cap; text names the count with one
    %s and ends with its verb.  With base >= 2, an exponent of at least
    cap.bit_length() is over the cap: the power is not computed, and it
    prints as base^exp."""
    if base >= 2 and exp >= cap.bit_length():
        shown = "%s^%s" % (_shown(base), _shown(exp))
    else:
        count = base ** exp
        if count <= cap:
            return
        shown = _shown(count)
    raise CapExceeded("%s cap %d" % (text % shown, cap))
