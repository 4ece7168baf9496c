"""Binomial-representation growth bounds for Hilbert functions, and the
order-by-order feasibility table, built from a ring's embedding dimension
and multiplicity alone, that mechanizes the order-of-f elimination
arithmetic.
"""

from math import comb

ELIMINATED = "ELIMINATED"
UNRESOLVED = "UNRESOLVED"


def macaulay_rep(d, n):
    """Greedy (and hence unique) binomial representation of d in degree n:
    the (k_i, i) pairs, i descending, with d = sum of C(k_i, i) and the k_i
    strictly decreasing."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    ks = []
    rem = d
    i = n
    while rem > 0:
        if i < 1:
            raise ValueError(f"no representation for d={d}, n={n}")
        k = i
        while comb(k + 1, i) <= rem:
            k += 1
        ks.append((k, i))
        rem -= comb(k, i)
        i -= 1
    return ks


def macaulay_bound(d, n):
    """Maximal Hilbert-function growth from value d in degree n; ValueError
    unless n >= 1 and d >= 0."""
    if n < 1 or d < 0:
        raise ValueError(f"need d >= 0 and n >= 1, got d={d}, n={n}")
    if d == 0:
        return 0
    return sum(comb(k + 1, i + 1) for k, i in macaulay_rep(d, n))


def hf_feasible_max_length(prefix, N):
    """Total length of the maximal Hilbert function extending the prefix,
    given that degree N and beyond vanish and the socle forces the value 1
    in degree N-1 (Gorenstein quotient with m^N inside the principal ideal)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not prefix or prefix[0] != 1:
        raise ValueError("prefix must start with 1")
    values = list(prefix[:N])
    while len(values) < N:
        j = len(values) - 1
        if j == 0:
            if len(values) == N - 1:
                values.append(1)  # the socle cap applies directly
                break
            raise ValueError("cannot extend from degree 0 without a bound")
        values.append(macaulay_bound(values[-1], j))
    values[N - 1] = min(values[N - 1], 1)
    return sum(values)


# Known dimensions of the degree-2 slice of the initial ideal of I + (f),
# by the order of f: for order 1 the slice is spanned by x^2, f^2, af, bf
# (between 3 and 4 independent); for order 2 by x^2, f (1 or 2); for higher
# order no slice information is used (the coarse ambient bound applies).
DEFAULT_J2_RANGES = {1: (3, 4), 2: (1, 2)}


def order_case_report(emb, e, N, d_max):
    """(rows, tail) for R of embedding dimension emb, so HF_S(2) =
    C(emb + 1, 2), and multiplicity e: a row (d, hf2, max_length, d*e,
    status) per order d <= d_max and admissible HF prefix (1, HF(1), hf2)
    of R/fR, ELIMINATED when max_length is below d*e, the least colength
    of an order-d parameter; the tail settles every order above d_max.
    ValueError unless emb >= 1, e >= 1, N >= 1 and d_max >= 0."""
    for name, value, least in (("emb", emb, 1), ("e", e, 1), ("N", N, 1),
                               ("d_max", d_max, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    hf2_s = comb(emb + 1, 2)
    rows = []
    for d in range(1, d_max + 1):
        hf1 = emb - 1 if d == 1 else emb
        lo, hi = DEFAULT_J2_RANGES.get(d, (0, 0))
        lo, hi = min(lo, hf2_s), min(hi, hf2_s)
        cap = macaulay_bound(hf1, 1)
        for hf2 in range(max(0, hf2_s - hi), min(hf2_s - lo, cap) + 1):
            max_len = hf_feasible_max_length((1, hf1, hf2), N)
            rows.append((d, hf2, max_len, d * e,
                         ELIMINATED if max_len < d * e else UNRESOLVED))
    # orders beyond d_max: the length cap is independent of d while the
    # threshold d*e grows, so one comparison settles the whole tail
    tail_cap = hf_feasible_max_length((1, emb), N) if N > 1 else 1
    tail_threshold = (d_max + 1) * e
    if tail_cap < tail_threshold:
        return rows, (f"all orders d > {d_max} eliminated: max length "
                      f"{tail_cap} < d*e >= {tail_threshold}")
    return rows, (f"orders d > {d_max} not settled: max length {tail_cap} "
                  f">= {tail_threshold}")
