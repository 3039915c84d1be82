"""Exception types and warning categories shared across the package."""


class FlowAnalysisError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(FlowAnalysisError):
    """A malformed field in an input file; parsing aborts the file.

    `row` is the 1-based data-row index (header excluded), `column` the
    offending field name, or None for structural problems.
    """

    def __init__(self, row, column, reason):
        super().__init__(f"row {row}, column {column}: {reason}")
        self.row = row
        self.column = column
        self.reason = reason


class NegativeFlow(FlowAnalysisError):
    """A trade value or flux entry is negative."""


class EmptySelection(FlowAnalysisError):
    """A (year, product) filter matched no rows; signals a bad filter."""


class SingularNetwork(FlowAnalysisError):
    """The flow balance cannot be solved: a closed circulation where every
    cycle node is throughflow-saturated makes I - M singular (or nearly so).
    """


class TooFewPoints(FlowAnalysisError):
    """Not enough usable points for a fit or correlation."""


class DegenerateFit(FlowAnalysisError):
    """Zero variance in the regressor; the slope is undefined."""


class NotATree(FlowAnalysisError):
    """The edge set has a cycle or multiple roots; not a rooted tree."""


class AllZero(FlowAnalysisError):
    """Every value in the vector is zero."""


class NoExports(FlowAnalysisError):
    """The country exports nothing; its comparative advantage is undefined."""


class NoMarket(FlowAnalysisError):
    """No country exports the product; the share denominator is zero."""


class ZeroVariance(FlowAnalysisError):
    """A correlation argument is constant."""


class BadSpec(FlowAnalysisError):
    """A synthetic-network spec has an out-of-range field."""


class FlowDataWarning(UserWarning):
    """Non-fatal data quirks: dropped self-loops, product codes shorter than
    the requested digit level."""
