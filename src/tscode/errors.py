"""Exception taxonomy shared across the library and mapped to CLI exit codes."""


class SchemaError(ValueError):
    """Malformed input file or field (CLI exit code 2)."""


class SpecError(ValueError):
    """A family/model specification violates an invariant (CLI exit code 3)."""


class BudgetError(RuntimeError):
    """An enumeration exceeded its configured budget (CLI exit code 4)."""

    def __init__(self, what: str, needed: int | str, budget: int, hint: str = ""):
        if isinstance(needed, int) and needed.bit_length() > 64:
            # a long decimal reads as noise, and past 4,300 digits is refused
            needed = f"at least 2^{needed.bit_length() - 1}"
        msg = f"{what} requires {needed} items but the budget is {budget}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)


class ContainerError(ValueError):
    """Corrupt or mismatched container file (CLI exit code 5)."""
