"""Exception types shared across the package."""


class TransknotError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateConeError(TransknotError):
    """The two cone generators are linearly dependent."""


class ReversalError(TransknotError):
    """A corner turns by exactly pi, so its sweep is undefined."""


class NongenericCurveError(TransknotError):
    """A curve failed genericity checks where a generic curve is required.

    Carries the offending violations in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        kinds = ", ".join(sorted({v.kind.name for v in self.violations}))
        super().__init__(f"curve is not generic: {kinds}")


class ParseError(TransknotError):
    """A diagram file could not be parsed.  ``line`` is 1-based."""

    def __init__(self, line, message, violations=()):
        self.line = line
        self.violations = list(violations)
        super().__init__(f"line {line}: {message}" if line else message)


class CrossingMismatchError(ParseError):
    """Declared crossing list disagrees with the detected crossings.

    ``missing`` and ``extra`` hold every differing pair, and
    ``violations`` one CrossingMismatch per differing edge pair; the
    message names the first 10 pairs of each list and counts the rest,
    so its length does not grow with the crossing count.
    """

    def __init__(self, missing, extra, violations):
        self.missing = sorted(missing)
        self.extra = sorted(extra)
        parts = []
        for label, pairs in (("missing", self.missing), ("extra", self.extra)):
            if pairs:
                named = ", ".join(f"({a},{b})" for a, b in pairs[:10])
                more = f" and {len(pairs) - 10} more" if len(pairs) > 10 else ""
                parts.append(f"{label} {named}{more}")
        super().__init__(0, "crossing list mismatch: " + "; ".join(parts), violations)


class InvalidDiagramError(TransknotError):
    """An operation required a valid diagram but validation failed."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"diagram is not valid ({len(self.violations)} violations)")


class HostTooShortError(TransknotError):
    """No safe scale was found for splicing a detour into the host edge,
    or a vertical host edge could not be bent before the detours go in."""


class InadmissibleDoublePointError(TransknotError):
    """A crossing cannot be declared a double point: the coorientation
    direction lies in the closed tangent cone, so one resolution would
    be forbidden in place."""


class FamilyArityError(TransknotError):
    """A singular family member has the wrong number of double points."""


class ComponentMismatchError(TransknotError):
    """A framing was applied to a diagram of a different component."""


class PreconditionFailedError(TransknotError):
    """A theorem's hypothesis was not established before applying it."""
