"""Error channels shared across the package, and its default stage budget.

The CLI maps these to distinct exit codes, so raising the right one matters:
ParseError -> 2 (malformed input), HorizonExhausted -> 3 (a finite search
budget ran out before a certificate was found; the message names the budget).
"""

# How many stages a membership test or a certificate search examines
# unless told otherwise (the `oscillate --depth` default).  It lives here,
# in the one module the CLI loads at start-up, so that building the parser
# loads no construction module.
DEFAULT_STAGE_BUDGET = 12


class ParseError(ValueError):
    """Malformed document, point syntax, or set description."""


class HorizonExhausted(RuntimeError):
    """A bounded search failed; carries the failing budget description."""

    def __init__(self, budget: str, detail: str = "") -> None:
        self.budget = budget
        msg = f"horizon exhausted: {budget}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UndefinedAtPoint(ValueError):
    """The limit function was queried at a certified divergence point."""
