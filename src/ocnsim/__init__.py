"""Simulation preorder decision engine for one-counter nets."""

from .core import Config, Ocn, build_product, format_net, normalize_pair, parse_net, steps
from .coloring import (
    Belt,
    EngineLimits,
    QuotientColoring,
    StrongSimEngine,
    verify_coloring,
)
from .geometry import Slope
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
