"""Soft-sensing overlay access toolkit.

Analytic rate/delay formulas, the primary-queue Markov chain, access
probability optimization, a slot-level Monte Carlo simulator, and a
sweep CLI for a network of TDMA primaries sharing a channel with
ALOHA secondaries that exploit soft energy sensing and, optionally,
the primaries' ARQ feedback. The package exports every module's `__all__`.
"""
from . import chain, cli, model, optimize, rates, simulate
from .chain import *
from .cli import *
from .model import *
from .optimize import *
from .rates import *
from .simulate import *

__version__ = "0.1.0"

__all__ = []
__all__ += chain.__all__
__all__ += cli.__all__
__all__ += model.__all__
__all__ += optimize.__all__
__all__ += rates.__all__
__all__ += simulate.__all__
