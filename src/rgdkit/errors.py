"""Exception taxonomy shared by all modules."""


class RgdError(Exception):
    """Base class for all library errors."""


class CapExceeded(RgdError):
    """A configured resource cap (ball size, gallery count, group size) was hit."""


class NotSpherical(RgdError):
    """Operation requires a spherical (finite) standard parabolic."""


class BlueprintError(RgdError):
    """Malformed or undefined blueprint data."""


class ParseError(RgdError):
    """Blueprint file syntax or semantic error."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CollectionOverflow(RgdError):
    """Collection hit the rewrite-step cap; the relation table is malformed."""


class InternalConsistencyError(RgdError):
    """Two routes that must agree disagreed; refusing to guess."""


class Violated(RgdError):
    """A construction stopped at a mathematical violation; `report` holds it."""

    def __init__(self, report, message: str):
        super().__init__(message)
        self.report = report
