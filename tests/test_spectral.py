"""The integer tables of ``paraweb.spectral`` against the ``Fraction``
reference of ``oracles``, entry for entry, for k = 1..8 at the default,
moved, drawn and 40-digit spectral constants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import paraweb.spectral as spectral
from paraweb.report import MAX_LITERAL_DIGITS, _parse_fraction
from paraweb.webs import make_web, null_curve

import oracles


def forty_digit(k: int) -> list[Fraction]:
    """k + 2 constants with 20-digit numerators over pairwise distinct
    20-digit denominators, as long as a spectral literal may be."""
    t = [(-1) ** n * Fraction(10 ** 19 * (n + 1) + 7 * n + 1, 10 ** 19 * (n + 2) + 3 * n + 11) for n in range(k + 2)]
    assert all(sum(ch.isdigit() for ch in str(x)) == MAX_LITERAL_DIGITS and _parse_fraction(str(x)) == x for x in t)
    return t


CONSTANTS = {
    "default": lambda k: [Fraction(n) for n in range(k + 2)],
    "moved": lambda k: [Fraction(3 * n * n - 7, n + 2) for n in range(k + 2)],
    "drawn": lambda k: random.Random(k).sample(
        sorted({Fraction(m, d) for m in range(-30, 31) for d in range(1, 8)}), k + 2),
    "forty-digit": forty_digit,
}


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("kind", CONSTANTS)
def test_tables_equal_the_fraction_reference(kind, k):
    t = tuple(CONSTANTS[kind](k))
    assert len(set(t)) == k + 2
    assert spectral._omega_table(t) == oracles.omega_table(t)
    # the null dual is the coframe of the null curve, read from omega's
    # coefficient forms; r D = I with r the null-curve coefficient matrix
    d = oracles.coframe_matrix(null_curve(make_web(k, "w", t)))
    assert d == oracles.null_dual(t)
    r = spectral._null_coefficients(t)
    assert [[sum(r[i][j] * d[j][l] for j in range(k + 1)) for l in range(k + 1)] for i in range(k + 1)] == \
        [[int(i == l) for l in range(k + 1)] for i in range(k + 1)]
    # den_j = -prod_{l != j} (t_j - t_l), and c_j(s), c_j'(s) summed over
    # the null curve's coefficient matrix
    _, gaps = spectral._leave_one_out(t)
    assert [-g for g in gaps[:-1]] == list(oracles.null_denominators(t))
    r = spectral._null_coefficients(t)
    for s in (Fraction(0), Fraction(k + 5), Fraction(-7, 3), Fraction(1, 2)):
        for order in (0, 1):
            values = [sum(w * r[m][j] for m, w in oracles.spectral_weights(k + 1, s, order)) for j in range(k + 1)]
            assert values == oracles.null_values(t, s, order), (s, order)
    # H(s) at the first node family and at two rationals
    nodes = spectral._spectral_nodes(t, k + 2) + [Fraction(-7, 3), Fraction(1, 2)]
    scales, rows = spectral._bracket_h(t, nodes)
    assert [[h * x for h, x in zip(scales, row)] for row in rows] == [oracles.bracket_h(t, s) for s in nodes]
    # alpha at the first node family; the reference's check row is the
    # degree check that test_webs.py::TestFrameBrackets makes
    assert spectral._diagonal_tables.__wrapped__(t) == oracles.diagonal_tables(t, 0)[1]
