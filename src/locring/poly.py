"""Multivariate polynomials: term orders, arithmetic, initial forms, parsing.

Monomials are plain tuples of non-negative integer exponents.  A term order
exposes ``key(exps)`` returning a sortable tuple; larger key means larger
monomial.  There are the three orders the library runs: ``DegRevLex``,
of every reduced basis an ``Ideal`` keeps; ``NegDegRevLex`` (Singular's
``ds``), of the truncated local standard bases; and ``BlockOrder``, the
first variable before degrevlex on the rest, of the runs on a ring with one
extra first variable (``PolyRing.extend``): eliminations and Lazard's
tangent cone run on the homogenized generators.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import add, ge

from .errors import (FieldMismatch, ParseError, RingMismatch, VariableClash,
                     ZeroPolynomial)


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    """Return a/b as a tuple, or None if b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_divides(b, a):
    return all(map(ge, a, b))


@lru_cache(maxsize=128)
def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d in nvars variables, as a tuple
    in descending lex order (stars and bars), enumerated once per
    (nvars, d)."""
    out = []
    for bars in combinations(range(d + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 1 - prev - 1)
        out.append(tuple(exps))
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# term orders

class TermOrder:
    """An order is its type: no order takes parameters."""

    def key(self, exps):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self).__name__)


class DegRevLex(TermOrder):
    def key(self, exps):
        return (sum(exps),) + tuple(-e for e in reversed(exps))

    def __repr__(self):
        return "degrevlex"


class NegDegRevLex(TermOrder):
    """Singular's local degree order ``ds``: lowest total degree leads,
    ties broken by degrevlex.  Not a well-order (1 > x > x^2 > ...), so it
    is used only with a truncation degree (see ``groebner.buchberger``)."""

    def key(self, exps):
        return (-sum(exps),) + tuple(-e for e in reversed(exps))

    def __repr__(self):
        return "ds"


class BlockOrder(TermOrder):
    """The first variable before the rest, each block under degrevlex (on
    one variable every order is the same).  With the variable to eliminate
    first this has the elimination property; with the homogenizing
    variable first it is Lazard's order."""

    def key(self, exps):
        drl = DegRevLex().key
        return drl(exps[:1]) + drl(exps[1:])

    def __repr__(self):
        return "block(1; degrevlex, degrevlex)"


# ---------------------------------------------------------------------------
# rings and polynomials

class PolyRing:
    """A polynomial ring: a coefficient field plus ordered variable names."""

    def __init__(self, field, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise VariableClash(f"duplicate variable names in {names}")
        self.field = field
        self.names = names
        self.nvars = len(names)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.names == other.names)

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one()})

    def var(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one()})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise RingMismatch("exponent length mismatch")
        return Polynomial(self, {exps: self.field.one()})

    def constant(self, n):
        c = self.field.from_int(n) if isinstance(n, int) else n
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def parse(self, text):
        return _parse(self, text)

    def extend(self, name):
        """Return a ring with one extra variable, prepended, named ``name``
        with "_" appended until no variable of this ring has the name."""
        while name in self.names:
            name += "_"
        return PolyRing(self.field, (name,) + self.names)


class Polynomial:
    """Immutable multivariate polynomial over an exact field."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        # exps tuple -> nonzero coeff; coefficients 0 in the field are dropped
        self.terms = terms if all(terms.values()) else \
            {e: c for e, c in terms.items() if c}

    # -- basic predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise RingMismatch(f"expected Polynomial, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatch(f"ring mismatch: {self.ring} vs {other.ring}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return Polynomial(self.ring, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                c = c1 * c2
                s = terms.get(e)
                if s is None:
                    terms[e] = c
                else:
                    s = s + c
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return Polynomial(self.ring, terms)

    def scale(self, c):
        if isinstance(c, int):
            c = self.ring.field.from_int(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {e: x * c for e, x in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- degrees, forms -----------------------------------------------------

    def total_degree(self):
        if not self.terms:
            raise ZeroPolynomial("degree of 0")
        return max(sum(e) for e in self.terms)

    def order(self):
        """Minimal total degree among the terms."""
        if not self.terms:
            raise ZeroPolynomial("order of 0")
        return min(sum(e) for e in self.terms)

    def initial_form(self):
        """Homogeneous component of minimal total degree."""
        d = self.order()
        return Polynomial(self.ring, {e: c for e, c in self.terms.items() if sum(e) == d})

    # -- homogenization -----------------------------------------------------

    def homogenize(self, name):
        """Homogenize with a new variable; returns a polynomial in
        ``ring.extend(name)``, whose first variable is the new one."""
        if self.is_zero():
            raise ZeroPolynomial("homogenize of 0")
        ring = self.ring.extend(name)
        d = self.total_degree()
        return Polynomial(ring, {(d - sum(e),) + e: c
                                 for e, c in self.terms.items()})

    def dehomogenize(self):
        """Set the first variable, the one ``homogenize`` adds, to 1 and
        drop it from the ring."""
        ring = PolyRing(self.ring.field, self.ring.names[1:])
        terms = {}
        for e, c in self.terms.items():
            ne = e[1:]
            s = terms.get(ne)
            if s is None:
                terms[ne] = c
            else:
                s = s + c
                if s:
                    terms[ne] = s
                else:
                    del terms[ne]
        return Polynomial(ring, terms)

    # -- ring moves ---------------------------------------------------------

    def substitute(self, values):
        """Substitute values[i] (a Polynomial in some common ring) for var i,
        on integers (residues over F_p): with d a common denominator, each
        term c*x^e of d*f adds c * d^(T - |e|) * prod (d*values[i])^e_i, T
        the degree of f, over d^(T+1); FieldMismatch for values over
        another field."""
        ring = values[0].ring
        if ring.field != self.ring.field:
            raise FieldMismatch(f"{ring.field} values for {self.ring}")
        p = ring.field.characteristic
        d = 1 if p else lcm(*(c.denominator for g in (self, *values)
                              for c in g.terms.values()))
        F, *V = [{e: c.value if p else int(c * d) for e, c in g.terms.items()}
                 for g in (self, *values)]
        T = max(map(sum, F), default=0)
        one = Polynomial(ring, {(0,) * ring.nvars: 1})
        powers = [[one, Polynomial(ring, v)] for v in V]
        out = {}
        for e, c in F.items():
            term = one
            for table, x in zip(powers, e):
                while len(table) <= x:
                    table.append(table[-1] * table[1])
                if x:
                    term = term * table[x]
            c *= d ** (T - sum(e))
            for m, t in term.terms.items():
                out[m] = out.get(m, 0) + c * t
        return Polynomial(ring, {m: ring.field.from_fraction(t, d ** (T + 1))
                                 for m, t in out.items()})

    # -- printing -----------------------------------------------------------

    def to_str(self):
        """The terms in descending degrevlex order."""
        if not self.terms:
            return "0"
        key = DegRevLex().key
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: key(t[0]),
                           reverse=True):
            mono = "*".join(
                f"{n}^{x}" if x > 1 else n
                for n, x in zip(self.ring.names, e) if x
            )
            neg = _is_negative(c)
            mag = -c if neg else c
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return self.to_str()


def _is_negative(c):
    if isinstance(c, Fraction):
        return c < 0
    return False


# ---------------------------------------------------------------------------
# parsing

def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch in "+-*^()/":
            tokens.append(("OP", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, ring, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", None)
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok[0] != "OP" or tok[1] != op:
            raise ParseError(f"expected {op!r}, got {tok[1]!r}", tok[2])

    def parse_expr(self):
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "OP" and tok[1] in "+-":
            self.next()
            sign = -1 if tok[1] == "-" else 1
        result = self.parse_term().scale(sign)
        while True:
            tok = self.peek()
            if tok and tok[0] == "OP" and tok[1] in "+-":
                self.next()
                term = self.parse_term()
                result = result + (term if tok[1] == "+" else -term)
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "OP" and tok[1] == "*":
                self.next()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self):
        base = self.parse_base()
        tok = self.peek()
        if tok and tok[0] == "OP" and tok[1] == "^":
            self.next()
            etok = self.next()
            if etok[0] != "INT":
                raise ParseError("expected integer exponent", etok[2])
            return base ** int(etok[1])
        return base

    def parse_base(self):
        tok = self.next()
        if tok[0] == "INT":
            num = int(tok[1])
            nxt = self.peek()
            if nxt and nxt[0] == "OP" and nxt[1] == "/":
                self.next()
                dtok = self.next()
                if dtok[0] != "INT":
                    raise ParseError("expected integer denominator", dtok[2])
                return self.ring.constant(self.ring.field.from_fraction(num, int(dtok[1])))
            return self.ring.constant(num)
        if tok[0] == "NAME":
            if tok[1] not in self.ring.names:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
            return self.ring.var(self.ring.names.index(tok[1]))
        if tok[0] == "OP" and tok[1] == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok[0] == "OP" and tok[1] == "-":
            return -self.parse_factor()
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def _parse(ring, text):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    parser = _Parser(ring, tokens)
    result = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return result
