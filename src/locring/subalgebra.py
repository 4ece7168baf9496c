"""Kernels of maps x_i -> g_i(t): presentations of subalgebras of k[t]
generated by polynomials with zero constant term.
"""

from .errors import ParseError
from .ideal import Ideal
from .poly import PolyRing


def _check_image(g, field):
    """ValueError unless g, an image of a map into the maximal ideal of
    field[t], is univariate over field, nonconstant and without constant
    term."""
    if g.ring.nvars != 1:
        raise ValueError("images must be univariate")
    if g.ring.field != field:
        raise ValueError("field mismatch between source and images")
    if g.is_constant():
        raise ValueError("images must be nonconstant")
    if (0,) in g.terms:
        raise ValueError("images must have zero constant term")


class ParametrizedMap:
    """A map k[x_1..x_n] -> k[t], x_i -> g_i(t), into the maximal ideal."""

    def __init__(self, source_ring, images):
        if len(images) != source_ring.nvars:
            raise ValueError("one image per source variable")
        for g in images:
            _check_image(g, source_ring.field)
        self.source = source_ring
        self.param = images[0].ring
        self.images = tuple(images)


def kernel(pmap, time_budget=None):
    """The kernel ideal in the source ring, by eliminating t from
    (x_1 - g_1(t), ..., x_n - g_n(t))."""
    ext = pmap.source.extend("_t")
    t = [ext.var(0)]
    gens = [ext.var(i + 1) - g.substitute(t)
            for i, g in enumerate(pmap.images)]
    return Ideal(ext, gens).eliminate(time_budget=time_budget)


def verify_in_kernel(f, pmap):
    """Independent membership check by substitution x_i <- g_i(t); no
    basis computation."""
    return f.substitute(list(pmap.images)).is_zero()


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
            g = tring.parse(expr.strip())
            _check_image(g, field)
        except (ParseError, ValueError) as exc:
            raise ParseError(f"line {n}: {exc}") from None
        images.append(g)
    if not names:
        raise ParseError("map file defines no source variables")
    src = PolyRing(field, tuple(names))
    return ParametrizedMap(src, images)
