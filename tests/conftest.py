"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings

from oracles import Wall
from parastab import LaurentMatrix, NumTransform, WeightSystem, is_generic, weight_system
from parastab.chamber import wall_crossings
from parastab.weights_core import wall_grid

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# the CLI tests start child interpreters; they import the package from src/ too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# Denominators chosen as prime powers so random accumulated sums rarely
# collapse to integers; genericity rejection loops terminate quickly.
_DENS = (64, 81, 125, 243, 128)


def rand_weights(rng: random.Random, r: int, n: int) -> WeightSystem:
    """Uniform-ish full-flag weight rows, strictly increasing in [0, 1)."""
    rows = []
    for _ in range(n):
        den = rng.choice(_DENS)
        nums = sorted(rng.sample(range(den), r))
        rows.append([Fraction(k, den) for k in nums])
    return weight_system(rows)


def rand_generic_weights(rng: random.Random, r: int, n: int) -> WeightSystem:
    while True:
        w = rand_weights(rng, r, n)
        if is_generic(w):
            return w


def rand_concentrated_weights(rng: random.Random, r: int, n: int) -> WeightSystem:
    """Generic weights whose per-point spread stays under 4 / (n * r**2)."""
    bound = Fraction(4, n * r * r)
    while True:
        rows = []
        ok = True
        for _ in range(n):
            den = rng.choice(_DENS)
            offs = sorted(rng.sample(range(1, den), r - 1))
            spread = [Fraction(o, den) * bound for o in offs]
            room = 1 - spread[-1]
            k_max = (room.numerator * 997) // room.denominator
            if k_max <= 0:
                ok = False
                break
            base = Fraction(rng.randrange(k_max), 997)
            rows.append([base] + [base + s for s in spread])
        if not ok:
            continue
        w = weight_system(rows)
        if is_generic(w):
            return w


def rand_transform(rng: random.Random, r: int, n: int) -> NumTransform:
    perm = list(range(n))
    rng.shuffle(perm)
    return NumTransform(
        tuple(perm),
        rng.choice((1, -1)),
        rng.randrange(-4, 5),
        tuple(rng.randrange(r) for _ in range(n)),
    )


def matrix_power(m: LaurentMatrix, k: int) -> LaurentMatrix:
    """The k-th power of a square matrix, by repeated products."""
    acc = LaurentMatrix.identity(m.nrows)
    for _ in range(k):
        acc = acc @ m
    return acc


def crossed_walls(w1, w2, d, relevant_only=True) -> tuple[Wall, ...]:
    """One oracle ``Wall`` per level m of each ``wall_crossings`` range.

    An m is relevant when it lies on its subrank's ``wall_grid`` for degree
    d at q = 1, as ``walls --all`` reports it.
    """
    return tuple(
        Wall(rp, picks, m, (m + shift) % width == 0)
        for rp, picks, levels in wall_crossings(w1, w2, d, relevant_only)
        for shift, width in [wall_grid(w1.rank, rp, 1, d)]
        for m in levels
    )
