"""Exception types shared across the package."""

import contextlib


def brief_repr(value: object) -> str:
    """repr(value) for an error message, cut to 80 characters and an ellipsis, so that a
    large offending value still makes a short message."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "…"


class FloodgaugeError(Exception):
    """Base class for every error this package raises on purpose."""


@contextlib.contextmanager
def naming(path):
    """Prefix path, the file the failing step read, to a FloodgaugeError raised within."""
    try:
        yield
    except FloodgaugeError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


class InputError(FloodgaugeError):
    """Rejected input: bad CSV field, negative byte count, empty flow id."""


class InsufficientBaselineError(FloodgaugeError):
    """Not enough attack-free windows to build a baseline profile."""


class DomainError(FloodgaugeError):
    """Value outside the domain of a model family (e.g. log of x <= 0)."""


class DegenerateDataError(FloodgaugeError):
    """Dataset cannot support the requested fit (all x equal, too few samples)."""


class DegenerateVarianceError(FloodgaugeError):
    """Observed series has zero variance, so variance-normalised measures are undefined."""


class EmptyRunError(FloodgaugeError):
    """A labelled run contributed no usable windows."""


class ConfigError(FloodgaugeError):
    """Scenario or command configuration is invalid."""
