"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Rationals are ``fractions.Fraction`` (always stored canonically: reduced,
positive denominator).  Prime-field elements carry their modulus and refuse
mixed-modulus arithmetic.
"""

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch

Rational = Fraction


def is_prime(p):
    """Deterministic trial-division primality test (intended for p < 2**31)."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeFieldElement:
    """An element of F_p, stored as a canonical residue in [0, p)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        self.value = value % modulus
        self.modulus = modulus

    def _check(self, other):
        if not isinstance(other, PrimeFieldElement):
            raise FieldMismatch(f"cannot mix {other!r} with F_{self.modulus}")
        if other.modulus != self.modulus:
            raise FieldMismatch(f"mixed moduli {self.modulus} and {other.modulus}")

    def __add__(self, other):
        self._check(other)
        return PrimeFieldElement(self.value + other.value, self.modulus)

    def __sub__(self, other):
        self._check(other)
        return PrimeFieldElement(self.value - other.value, self.modulus)

    def __mul__(self, other):
        self._check(other)
        return PrimeFieldElement(self.value * other.value, self.modulus)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.modulus)

    def inverse(self):
        if self.value == 0:
            raise DivisionByZero(f"inverse of 0 in F_{self.modulus}")
        return PrimeFieldElement(pow(self.value, self.modulus - 2, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return self.modulus == other.modulus and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


class RationalField:
    """The field Q, with Fraction coefficients."""

    name = "Q"
    characteristic = 0

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, num, den):
        if den == 0:
            raise DivisionByZero("zero denominator")
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p < 2**31."""

    def __init__(self, p):
        if p >= 2 ** 31:
            raise ValueError(f"modulus {p} too large (need p < 2^31)")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"

    def one(self):
        return PrimeFieldElement(1, self.p)

    def from_int(self, n):
        return PrimeFieldElement(n, self.p)

    def from_fraction(self, num, den):
        return self.from_int(num) / self.from_int(den)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()
