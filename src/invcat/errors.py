"""Typed errors shared by every module.

Each error carries a stable ``code`` string so that callers (and the CLI,
which maps codes to exit statuses) can dispatch without parsing messages.
"""

from __future__ import annotations

from typing import Any


class ToolkitError(Exception):
    """Base error; ``code`` is a stable machine-readable identifier."""

    code = "TOOLKIT_ERROR"

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.message = message
        self.details = details

    def __str__(self) -> str:
        if not self.details:
            return f"{self.code}: {self.message}"
        extra = ", ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
        return f"{self.code}: {self.message} ({extra})"


class UndeclaredName(ToolkitError):
    """A table refers to an object or morphism that was never declared."""

    code = "UNDECLARED_NAME"


class NotInverseCategory(ToolkitError):
    """Some morphism has zero or several generalized inverses."""

    code = "NOT_INVERSE_CATEGORY"


class NotParallel(ToolkitError):
    """The natural order only compares morphisms with equal source and target."""

    code = "NOT_PARALLEL"


class SizeCapExceeded(ToolkitError):
    """A construction would exceed the configured element cap; nothing is emitted."""

    code = "SIZE_CAP_EXCEEDED"


class NotAFunctor(ToolkitError):
    code = "NOT_A_FUNCTOR"


class NotGlobal(ToolkitError):
    """Operation requires a global action (every D_s equals D_{ir(s)})."""

    code = "NOT_GLOBAL"


class NotIdeal(ToolkitError):
    """The given subset is not downward closed."""

    code = "NOT_IDEAL"


class NotComposable(ToolkitError):
    """Composition (or pseudo product) undefined for the given pair."""

    code = "NOT_COMPOSABLE"


class NotIdempotent(ToolkitError):
    code = "NOT_IDEMPOTENT"


class PreconditionFailed(ToolkitError):
    """Restriction/corestriction requested below an inadmissible idempotent."""

    code = "PRECONDITION_FAILED"


class NotASubcategory(ToolkitError):
    """The supplied embedding is not an injective, inverse-respecting functor."""

    code = "NOT_A_SUBCATEGORY"


class DimensionMismatch(ToolkitError):
    """Internal consistency failure: block dimensions do not sum to |morphisms|."""

    code = "DIMENSION_MISMATCH"


class ParseError(ToolkitError):
    """Malformed input (a spec file or a setting); carries line/column when known."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None, column: int | None = None, **details: Any):
        if line is not None:
            details["line"] = line
        if column is not None:
            details["column"] = column
        super().__init__(message, **details)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        loc = ""
        if self.line is not None:
            loc = f" at line {self.line}" + (f", column {self.column}" if self.column is not None else "")
        return f"{self.code}: {self.message}{loc}"
