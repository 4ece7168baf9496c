from math import comb

import pytest

from locring.bounds import (ELIMINATED, UNRESOLVED, hf_feasible_max_length,
                            macaulay_bound, macaulay_rep, order_case_report)
from oracles import lex_segment_oracle


def test_macaulay_rep_is_greedy_and_exact():
    assert macaulay_rep(5, 2) == [(3, 2), (2, 1)]
    for d in range(1, 40):
        for n in range(1, 5):
            r = macaulay_rep(d, n)
            assert sum(comb(k, i) for k, i in r) == d
            ks = [k for k, _ in r]
            assert ks == sorted(ks, reverse=True)
            assert len(set(ks)) == len(ks)


def test_macaulay_bound_quoted_values():
    assert macaulay_bound(5, 2) == 7
    assert macaulay_bound(2, 2) == 2
    assert macaulay_bound(4, 2) == 5
    assert macaulay_bound(0, 3) == 0


def test_bound_agrees_with_lex_segment_quotient():
    for n in range(1, 5):
        for d in range(1, 13):
            v = n + d  # enough variables that the segment is unconstrained
            assert lex_segment_oracle(d, n, v) == macaulay_bound(d, n)


def test_lex_segment_edge_cases():
    assert lex_segment_oracle(0, 2, 3) == 0
    with pytest.raises(ValueError):
        lex_segment_oracle(100, 2, 2)


def test_hf_feasible_max_length():
    # growth 3 -> 6 -> 10 then socle caps degree 4 at 1
    assert hf_feasible_max_length((1, 3), 5) == 1 + 3 + 6 + 10 + 1
    assert hf_feasible_max_length((1, 3, 6), 5) == 21
    assert hf_feasible_max_length((1, 3, 4), 5) == 14
    assert hf_feasible_max_length((1, 2, 2), 5) == 8
    assert hf_feasible_max_length((1, 2, 3), 5) == 11
    assert hf_feasible_max_length((1, 3, 5), 5) == 17


def test_prefix_must_start_with_one():
    with pytest.raises(ValueError):
        hf_feasible_max_length((2, 3), 5)


@pytest.mark.parametrize("N", [0, -3])
def test_hf_feasible_max_length_needs_a_positive_N(N):
    # N = 0 used to end in an IndexError
    with pytest.raises(ValueError, match="N must be >= 1"):
        hf_feasible_max_length((1, 3, 6), N)


@pytest.mark.parametrize("args, message", [
    ((0, 8, 5, 4), "emb must be >= 1, got 0"),
    ((3, 0, 5, 4), "e must be >= 1, got 0"),
    # a negative multiplicity used to print a table of negative thresholds
    ((3, -8, 5, 4), "e must be >= 1, got -8"),
    # N = 0 used to end in an IndexError
    ((3, 8, 0, 4), "N must be >= 1, got 0"),
    ((3, 8, 5, -1), "d_max must be >= 0, got -1"),
], ids=["emb", "e-zero", "e-negative", "N", "d_max"])
def test_case_report_rejects_out_of_range_input(args, message):
    with pytest.raises(ValueError, match=message):
        order_case_report(*args)


def test_case_report_at_the_smallest_valid_input():
    # d_max = 0 leaves only the tail, and N = 1 caps every length at 1
    assert order_case_report(emb=1, e=1, N=1, d_max=0) == (
        [], "orders d > 0 not settled: max length 1 >= 1")
    # emb = 1: HF_S(2) = 1 clips the degree-2 slice ranges to it
    assert order_case_report(emb=1, e=1, N=1, d_max=2) == (
        [(1, 0, 1, 1, UNRESOLVED), (2, 0, 1, 2, ELIMINATED)],
        "all orders d > 2 eliminated: max length 1 < d*e >= 3")


def test_case_report_eliminations():
    # embedding dimension 3, so HF_S(2) = 6; e = 8 and m^5 in (f)
    assert order_case_report(3, 8, 5, 4) == (
        [(1, 2, 8, 8, UNRESOLVED), (1, 3, 11, 8, UNRESOLVED),
         (2, 4, 14, 16, ELIMINATED), (2, 5, 17, 16, UNRESOLVED),
         (3, 6, 21, 24, ELIMINATED), (4, 6, 21, 32, ELIMINATED)],
        "all orders d > 4 eliminated: max length 21 < d*e >= 40")


def test_case_report_large_multiplicity_eliminates_everything():
    assert order_case_report(3, 100, 5, 4) == (
        [(1, 2, 8, 100, ELIMINATED), (1, 3, 11, 100, ELIMINATED),
         (2, 4, 14, 200, ELIMINATED), (2, 5, 17, 200, ELIMINATED),
         (3, 6, 21, 300, ELIMINATED), (4, 6, 21, 400, ELIMINATED)],
        "all orders d > 4 eliminated: max length 21 < d*e >= 500")
