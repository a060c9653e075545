"""Exception hierarchy.

Errors are grouped by how the command line maps them to exit codes:
usage and validation problems exit 1, transport problems exit 2, and
internal invariant breaches exit 3.
"""

from __future__ import annotations


class PerceptQAError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PerceptQAError):
    """Bad user input: unknown option value, inverted range, missing file."""


class SpecValidationError(PerceptQAError):
    """A chart spec violates a structural rule."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"chart spec invalid: {lines}")


class RenderError(PerceptQAError):
    """A chart spec cannot be laid out on the canvas."""


class QueryError(PerceptQAError):
    """A query cannot be evaluated against the given chart."""


class UnresolvableSelectorError(QueryError):
    """A selector matches no cell of the data table."""


class AmbiguousSelectorError(QueryError):
    """A selector that must match exactly one series matches several."""


class TieError(QueryError):
    """A rank or nearest-value pick has no unique winner."""


class NonScalarError(QueryError):
    """An arithmetic node received a multi-cell operand."""


class CapacityError(PerceptQAError):
    """More questions were requested than a chart can support."""


class TemplateError(PerceptQAError):
    """No registered phrasing exists for a query shape."""


class TraceFormatError(PerceptQAError):
    """A reasoning trace violates the two-phase output format."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        msg = code if not detail else f"{code}: {detail}"
        super().__init__(msg)


class StoreError(PerceptQAError):
    """Dataset directory is locked, inconsistent, or corrupt."""


class TransportError(PerceptQAError):
    """The model endpoint failed after retries were exhausted."""


class BudgetError(TransportError):
    """The per-run request budget was spent before the work finished."""


class InvariantError(PerceptQAError):
    """An internal consistency check failed; the output cannot be trusted."""
