"""Search budgets for the semi-decision procedures.

This module is the only home of the budget defaults.  On the command
line ``--max-cosets`` belongs to surger, sweep, enumerate and cordcheck,
``--steps`` to simplify and ``--degree`` to cordcheck; an absent flag
falls back to POCHETTE_MAX_COSETS, POCHETTE_TIETZE_STEPS or
POCHETTE_QUOTIENT_DEGREE, then to the default.  Zero or negative values
are input errors (exit 2).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import InputError

__all__ = ["Budgets"]


@dataclass(frozen=True)
class Budgets:
    max_cosets: int = 100_000
    tietze_steps: int = 10_000
    quotient_degree: int = 8

    def __post_init__(self):
        if self.max_cosets <= 0 or self.tietze_steps <= 0:
            raise InputError("budgets must be positive")
        if self.quotient_degree < 2:
            raise InputError("quotient degree must be at least 2")

    @staticmethod
    def from_env() -> "Budgets":
        """Defaults, each replaced by its POCHETTE_<FIELD> variable when set."""
        values = {}
        for field in fields(Budgets):
            var = f"POCHETTE_{field.name.upper()}"
            raw = os.environ.get(var)
            if raw is None:
                continue
            try:
                values[field.name] = int(raw)
            except ValueError as exc:
                raise InputError(f"{var} must be an integer, got {raw!r}") from exc
        return Budgets(**values)

    @staticmethod
    def with_overrides(**flags: int | None) -> "Budgets":
        """The environment's budgets with every flag that is not None in place."""
        given = {name: value for name, value in flags.items() if value is not None}
        return replace(Budgets.from_env(), **given)
