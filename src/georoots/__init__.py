"""Root sequences mod m, real quadratic ideal classes, and the closed
geodesics they parametrize, plus the pair-correlation machinery relating
the two."""

__version__ = "0.1.0"


class InputError(ValueError):
    """An input breaks a rule, and is rejected before any work: D is not
    a squarefree D = 1 (mod 4) of the sign the call needs, a filter lacks
    nu^2 = D (mod n), the filter reaches no root of an order class, a
    modulus bound reaches 2^31 or an orbit walk's is below 1, the coset
    walk's qmax is not finite or not above 1, or a CLI option is out of
    range.  The owner of each rule raises it, and the CLI reports it with
    exit code 2."""
