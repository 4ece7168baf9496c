"""Kernels of maps x_i -> g_i(t): presentations of subalgebras of k[t]
generated by polynomials with zero constant term.
"""

from .errors import ParseError
from .ideal import Ideal
from .poly import PolyRing


class ParametrizedMap:
    """A map k[x_1..x_n] -> k[t], x_i -> g_i(t), into the maximal ideal."""

    def __init__(self, source_ring, images):
        if len(images) != source_ring.nvars:
            raise ValueError("one image per source variable")
        for g in images:
            if g.ring.nvars != 1:
                raise ValueError("images must be univariate")
            if g.ring.field != source_ring.field:
                raise ValueError("field mismatch between source and images")
            if g.is_zero() or g.is_constant():
                raise ValueError("images must be nonconstant")
            if (0,) in g.terms:
                raise ValueError("images must have zero constant term")
        self.source = source_ring
        self.param = images[0].ring
        self.images = tuple(images)

    def apply(self, f):
        """Substitute x_i <- g_i(t)."""
        return f.substitute(list(self.images))


def kernel(pmap, time_budget=None):
    """The kernel ideal in the source ring, by eliminating t from
    (x_1 - g_1(t), ..., x_n - g_n(t))."""
    ext = pmap.source.extend("_t")
    gens = [ext.var(i + 1) - g.map_to(ext, [0])
            for i, g in enumerate(pmap.images)]
    return Ideal(ext, gens).eliminate(time_budget=time_budget)


def verify_in_kernel(f, pmap):
    """Independent membership check by substitution; no basis computation."""
    return pmap.apply(f).is_zero()


def parse_map_file(text, field):
    """Map description: first nonempty line names the parameter, then one
    `x = <expression in the parameter>` line per source variable.  A line
    error names the line, counted from 1 with comments and blank lines."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)]
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty map file")
    n, param = lines[0]
    if not param.isidentifier():
        raise ParseError(f"line {n}: bad parameter name {param!r}")
    tring = PolyRing(field, (param,))
    names = []
    images = []
    for n, ln in lines[1:]:
        if "=" not in ln:
            raise ParseError(f"line {n}: expected '<var> = <expr>', got "
                             f"{ln!r}")
        name, expr = ln.split("=", 1)
        name = name.strip()
        if not name.isidentifier():
            raise ParseError(f"line {n}: bad variable name {name!r}")
        if name in names:
            raise ParseError(f"line {n}: duplicate variable name {name!r}")
        names.append(name)
        try:
            images.append(tring.parse(expr.strip()))
        except ParseError as exc:
            raise ParseError(f"line {n}: {exc}") from None
    if not names:
        raise ParseError("map file defines no source variables")
    src = PolyRing(field, tuple(names))
    return ParametrizedMap(src, images)
