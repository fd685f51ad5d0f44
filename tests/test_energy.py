import random
from fractions import Fraction

import pytest

from locallab import (
    BudgetExceededError,
    LocalLabError,
    coloring_from_set,
    energy,
    energy_bruteforce,
    energy_lower_bound,
    implied_color_lower_bound,
    ln_ceiling,
    new_coloring,
    random_coloring,
    real_set,
)


def mono(n):
    return new_coloring(n, [(u, v, 0) for u in range(n) for v in range(u + 1, n)])


def proper_k4():
    # three perfect matchings, four ordered pairs per color
    return new_coloring(4, [(0, 1, 0), (2, 3, 0), (0, 2, 1), (1, 3, 1), (0, 3, 2), (1, 2, 2)])


def test_monochromatic_energy_is_maximal():
    for n in (2, 3, 5, 9):
        for r in (2, 3, 4):
            assert energy(mono(n), r) == (n * (n - 1)) ** r


def test_frozen_small_energies():
    rainbow3 = new_coloring(3, [(0, 1, "a"), (0, 2, "b"), (1, 2, "c")])
    assert energy(rainbow3, 2) == 12
    ap4 = coloring_from_set(real_set([0, 1, 2, 3]))
    assert energy(ap4, 2) == 56
    assert energy(ap4, 3) == 288
    assert energy(proper_k4(), 2) == 48
    assert energy(proper_k4(), 3) == 192


def test_energy_agrees_with_bruteforce():
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randrange(3, 7)
        c = rng.randrange(1, n + 2)
        g = random_coloring(n, c, seed=rng.randrange(10**6))
        for r in (2, 3):
            assert energy(g, r) == energy_bruteforce(g, r)


def test_energy_rejects_bad_order():
    with pytest.raises(LocalLabError):
        energy(mono(4), 1)
    with pytest.raises(LocalLabError):
        energy_bruteforce(mono(4), 0)


def test_bruteforce_respects_budget(monkeypatch):
    monkeypatch.setenv("LOCALLAB_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        energy_bruteforce(mono(6), 3)
    monkeypatch.delenv("LOCALLAB_BUDGET")
    assert energy_bruteforce(mono(6), 3) == (6 * 5) ** 3


def test_energy_lower_bound_holds_on_corpus():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(3, 9)
        c = rng.randrange(1, 8)
        g = random_coloring(n, c, seed=rng.randrange(10**6))
        for r in (2, 3):
            bound = energy_lower_bound(n, g.num_colors, r)
            assert energy(g, r) >= bound
            assert isinstance(bound, Fraction)


def test_energy_lower_bound_equality_cases():
    # a rainbow triangle meets the r=2 bound with equality
    rainbow3 = new_coloring(3, [(0, 1, "a"), (0, 2, "b"), (1, 2, "c")])
    assert energy(rainbow3, 2) == energy_lower_bound(3, 3, 2)
    # the properly 3-edge-colored K_4 meets the r=3 bound with equality
    assert energy(proper_k4(), 3) * 3**2 == (4 * 3) ** 3
    assert energy(proper_k4(), 3) == energy_lower_bound(4, 3, 3)


def test_implied_color_lower_bound():
    b = implied_color_lower_bound(4, 2, energy(mono(4), 2))
    assert (b.base, b.minimum_colors) == (Fraction(1), 1)
    b = implied_color_lower_bound(3, 2, 12)
    assert (b.base, b.exponent, b.minimum_colors) == (Fraction(3), Fraction(1), 3)
    b = implied_color_lower_bound(4, 3, 192)
    assert (b.base, b.exponent, b.minimum_colors) == (Fraction(9), Fraction(1, 2), 3)
    # non-exact root rounds up
    b = implied_color_lower_bound(4, 3, 250)
    assert b.minimum_colors == 3 and 2**2 < b.base <= 3**2
    with pytest.raises(LocalLabError):
        implied_color_lower_bound(4, 2, 0)
    with pytest.raises(LocalLabError):
        implied_color_lower_bound(4, 1, 10)


def test_implied_bound_never_exceeds_true_palette():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randrange(3, 9)
        c = rng.randrange(1, 10)
        g = random_coloring(n, c, seed=rng.randrange(10**6))
        for r in (2, 3):
            b = implied_color_lower_bound(n, r, energy(g, r))
            assert b.minimum_colors <= g.num_colors


def test_ln_ceiling():
    assert [ln_ceiling(n) for n in (2, 3, 7, 8, 12, 20, 30, 55)] == [1, 2, 2, 3, 3, 3, 4, 5]
    with pytest.raises(LocalLabError):
        ln_ceiling(1)
