"""Simulation preorder decision engine for one-counter nets."""

from .core import Config, Ocn, build_product, format_net, normalize_pair, parse_net, steps
from .coloring import (
    Belt,
    EngineLimits,
    QuotientColoring,
    StrongSimEngine,
    decide_strong,
    solve_quotient,
    spoiler_bounded_win,
    verify_coloring,
)
from .geometry import Slope
from .slope_game import belt_constant, boundary_slope, solve_slope_game

__all__ = [
    "Belt",
    "Config",
    "EngineLimits",
    "Ocn",
    "QuotientColoring",
    "Slope",
    "StrongSimEngine",
    "belt_constant",
    "boundary_slope",
    "build_product",
    "decide_strong",
    "format_net",
    "normalize_pair",
    "parse_net",
    "solve_quotient",
    "solve_slope_game",
    "spoiler_bounded_win",
    "steps",
    "verify_coloring",
]
