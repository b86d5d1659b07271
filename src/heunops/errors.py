"""Exception hierarchy shared across the package."""


class HeunopsError(Exception):
    """Base class for every error raised by this package."""


class NotExact(HeunopsError, TypeError):
    """An exact routine was given a value that is not an exact rational (a float, say)."""


class InvalidKnots(HeunopsError, ValueError):
    """Knot vector is not strictly increasing or not exactly equidistant."""


class NonpositiveWidth(HeunopsError, ValueError):
    """A width function evaluated to a value <= 0."""


class DivergentSeries(HeunopsError, ArithmeticError):
    """Series evaluation requested outside its disk of convergence."""


class InvalidC(HeunopsError, ValueError):
    """Lower hypergeometric parameter hits a zero denominator before the series terminates."""


class InvalidGamma(HeunopsError, ValueError):
    """gamma is a non-positive integer; the local series at 0 is undefined."""


class NonFinite(HeunopsError, ArithmeticError):
    """A NaN or infinite point or value, or an integrand not finite at a quadrature node."""


class UnsupportedK(HeunopsError, ValueError):
    """Closed forms for the squared Kantorovich kernel exist only for k = 2."""


class LengthMismatch(HeunopsError, ValueError):
    """Paired sequences have different lengths."""


class DomainError(HeunopsError, ValueError):
    """Argument outside the domain of the requested function or operator."""


class IndexOutOfRange(HeunopsError, IndexError):
    """Basis or coefficient index outside its admissible range."""


class InadmissibleMode(HeunopsError, ValueError):
    """Verification mode not admissible for the requested identity."""


class MissingParam(HeunopsError, ValueError):
    """A required identity parameter was not supplied."""


class ConstraintViolated(HeunopsError, ValueError):
    """Values violate a defining constraint: the accessory-parameter
    constraint of a derivative ladder, or an entropy point's invariants."""
