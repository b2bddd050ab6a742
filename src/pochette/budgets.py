"""Search budgets for the semi-decision procedures.

This module is the only home of the budget defaults.  On the command
line ``--max-cosets`` belongs to surger, sweep, enumerate and cordcheck,
``--steps`` to simplify and ``--degree`` to cordcheck; an absent flag
falls back to POCHETTE_MAX_COSETS, POCHETTE_TIETZE_STEPS or
POCHETTE_QUOTIENT_DEGREE, then to the default.  A command reads and
checks only the budgets it takes; a value below a budget's least is an
input error (exit 2) that names the budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import InputError

__all__ = ["Budgets"]

# the least value each budget may take
_LEAST = {"max_cosets": 1, "tietze_steps": 1, "quotient_degree": 2}


@dataclass(frozen=True)
class Budgets:
    max_cosets: int = 100_000
    tietze_steps: int = 10_000
    quotient_degree: int = 8

    def __post_init__(self):
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if value < least:
                raise InputError(f"{name} must be at least {least}, got {value}")

    @staticmethod
    def with_overrides(**flags: int | None) -> "Budgets":
        """Budgets with each named field taken from its flag.

        A flag of None falls back to POCHETTE_<FIELD> when that is set,
        then to the default.  Fields that are not named keep their
        defaults; their variables are not read.
        """
        values = {}
        for name, value in flags.items():
            if value is None:
                var = f"POCHETTE_{name.upper()}"
                raw = os.environ.get(var)
                if raw is None:
                    continue
                try:
                    value = int(raw)
                except ValueError as exc:
                    raise InputError(f"{var} must be an integer, got {raw!r}") from exc
            values[name] = value
        return Budgets(**values)
