"""Exception types and argument checks shared across the package."""
import math


class ConfigError(ValueError):
    """Raised for invalid mode tables, config files, or experiment specs."""


class SlowFadingViolation(ValueError):
    """Raised when FSMC transition probabilities leave [0, 1].

    The slot duration is too long (or the Doppler too high) for the
    one-step birth-death approximation to hold; the offending states are
    listed in the message instead of being silently clamped.
    """

    def __init__(self, states, detail=""):
        self.states = tuple(states)
        msg = f"slow-fading approximation violated in states {list(self.states)}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def whole_number(name, x, lo, hi=math.inf):
    """x as an int when it is a whole number in [lo, hi]; else a ValueError."""
    if not (math.isfinite(x) and int(x) == x and lo <= x <= hi):
        raise ValueError(f"{name} must be a whole number in [{lo}, {hi}]: {x!r}")
    return int(x)
