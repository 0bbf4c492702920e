"""Fraction routines that only the tests use, as references for the
routines of the package."""

from fractions import Fraction

from transknot.diagram import MAX_EXPONENT, MAX_TOKEN_CHARS
from transknot.errors import ParseError
from transknot.geometry import Point, Vec


def add(p: Point, d: Vec) -> Point:
    return Point(p.x + d.x, p.z + d.z)


def corners(curve):
    """Yield (i, d_in, d_out) for the corner at vertex i of the curve."""
    for i in range(1, curve.n + 1):
        yield i, curve.direction(i - 1), curve.direction(i)


def fraction_halvings(size2, room2) -> int:
    """``geometry.halvings`` as it was written on Fractions: the least
    e >= 0 with 16 * size2 <= room2 * 4**e."""
    e = 0
    while 16 * size2 > room2 * 4**e:
        e += 1
    return e


def fraction_token(token: str, lineno: int) -> tuple[int, int]:
    """A coordinate token as the parser read it with ``Fraction(token)``:
    its reduced (numerator, denominator), or the same ParseError."""
    if len(token) > MAX_TOKEN_CHARS:
        raise ParseError(lineno, f"rational token longer than {MAX_TOKEN_CHARS} characters")
    _, e, exponent = token.lower().partition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > MAX_EXPONENT
        except ValueError:
            too_large = False  # no exponent: Fraction rejects the token
        if too_large:
            raise ParseError(lineno, f"exponent of {token!r} exceeds {MAX_EXPONENT}")
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad rational {token!r}") from None
    if (e or "." in token) and len(str(value)) > MAX_TOKEN_CHARS:
        raise ParseError(lineno, f"{token!r} written as a fraction is longer than "
                                 f"{MAX_TOKEN_CHARS} characters")
    return value.numerator, value.denominator
