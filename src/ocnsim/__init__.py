"""Simulation preorder decision engine for one-counter nets."""

from .core import Config, Ocn, build_product, format_net, normalize_pair, parse_net, steps
from .coloring import EngineLimits, StrongSimEngine
from .geometry import Belt, Slope
from .slope_game import belt_constant

__all__ = [
    "Belt",
    "Config",
    "EngineLimits",
    "Ocn",
    "QuotientColoring",
    "Slope",
    "StrongSimEngine",
    "belt_constant",
    "build_product",
    "format_net",
    "normalize_pair",
    "parse_net",
    "steps",
    "verify_coloring",
]


def __getattr__(name: str):
    # the quotient layer loads on first use: a zone-answered query never needs it
    if name in ("QuotientColoring", "verify_coloring"):
        from . import quotient

        return getattr(quotient, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
