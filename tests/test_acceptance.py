"""Top-level guarantees of the package, every check in exact arithmetic.

Each test here either reproduces a frozen example family bit for bit or
sweeps a randomized sample large enough to pin the advertised behavior.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from parastab import (
    CurveData,
    Laurent,
    LaurentMatrix,
    NumTransform,
    apply_to_degree,
    apply_to_weights,
    chamber_fingerprint,
    compose,
    cyclic_matrix,
    dim_nonreduced_stratum,
    dims,
    dual_weights,
    h_matrix,
    hecke_conjugation_check,
    hecke_weights,
    identity_transform,
    inverse,
    inverse_exact,
    is_concentrated,
    is_generic,
    is_parabolic,
    make_transform,
    max_subdegree,
    normalize,
    owt,
    rank1_factor,
    same_numerical_chamber,
    stability_check,
    subdegree_bounds,
    trivial_curve,
    weight_system,
    xi_matrix,
)
from parastab._claims import FIXTURE_CLAIMS
from parastab.local_matrix import L_ZERO, inner_factor
from conftest import (
    crossed_walls,
    rand_concentrated_weights,
    rand_generic_weights,
    rand_transform,
    rand_weights,
)
from oracles import admissible_types, is_inverse_pair, mp_matrix

F = Fraction


# ---------------------------------------------------------------------------
# 0. the frozen example families, one test per claim of ``parastab fixtures``


@pytest.mark.parametrize("name", list(FIXTURE_CLAIMS))
def test_fixture_claim(name):
    holds, detail = FIXTURE_CLAIMS[name]()
    assert holds, detail


# ---------------------------------------------------------------------------
# 1. rank-3 single-point family


def test_rank3_hecke_dual_involution_exact():
    """The involution through the bare dual; the transform word, its square
    and its degree action are fixture claims."""
    alpha = weight_system([[F(1, 8), F(3, 8), F(7, 8)]])
    assert dual_weights(hecke_weights(alpha, (1,))) == normalize(alpha)


# ---------------------------------------------------------------------------
# 2. rank-2 two-point family


def _rank2_member(a2: Fraction) -> "weight_system":
    a1 = F(1, 10)
    return weight_system(
        [[a1, a2], [a2 - F(1, 2), a1 + F(1, 2)]],
        points=["x", "y"],
    )


def test_rank2_symmetry_classes_match_brute_force():
    member = _rank2_member(F(7, 10))
    curve = CurveData(genus=2, points=("x", "y"), symmetries=(((1, 0), 1),))
    from parastab import automorphism_group

    result = automorphism_group(member, 0, curve)
    got = sorted((t.perm, t.sign, t.tdeg, t.hecke) for t in result.classes)
    assert got == [((0, 1), 1, 0, (0, 0)), ((1, 0), 1, 1, (1, 1))]
    assert result.order == 2 ** 4 * 2
    assert result.torsion_factor == 2 ** 4

    # independent sweep over the raw class space, no candidate solving;
    # at rank 2 the dual factor is redundant, so fold to dual-free form
    from parastab import reduce_dual_rank2

    ref = chamber_fingerprint(normalize(member), 0)
    survivors = set()
    for perm in ((0, 1), (1, 0)):
        for sign in (1, -1):
            for tdeg in range(-3, 4):
                for hecke in itertools.product((0, 1), repeat=2):
                    t = make_transform(perm, sign, tdeg, hecke, 2)
                    if apply_to_degree(t, 0, 2) != 0:
                        continue
                    image = apply_to_weights(t, member)
                    if chamber_fingerprint(image, 0) == ref:
                        survivors.add(t if t.sign == 1 else reduce_dual_rank2(t, 0))
    assert survivors == set(result.classes)


# ---------------------------------------------------------------------------
# 3. concentrated chambers admit only torsion and marked-curve symmetry


def test_concentrated_generic_has_torsion_only_symmetry():
    rng = random.Random(81)
    cases = 0
    for r, n in itertools.product((2, 3), (1, 2, 3)):
        for _ in range(17):
            d = rng.choice([v for v in range(-5, 6) if v and v % r])
            w = rand_concentrated_weights(rng, r, n)
            assert is_concentrated(w) and is_generic(w)
            g = rng.randrange(2, 6)
            curve = trivial_curve(g, list(w.points))
            from parastab import automorphism_group

            res = automorphism_group(w, d, curve)
            assert all(c.hecke == (0,) * n for c in res.classes)
            assert res.classes == (identity_transform(n),)
            assert res.order == r ** (2 * g) * curve.order()
            cases += 1
    assert cases >= 100


def test_concentrated_symmetric_pair_keeps_curve_factor():
    # equal concentrated tuples at two points: the swap survives with no
    # Hecke part and multiplies the order by the curve symmetry count
    rng = random.Random(99)
    from parastab import automorphism_group

    done = 0
    while done < 6:
        row = rand_concentrated_weights(rng, 3, 1).weights[0]
        w = weight_system([list(row), list(row)], points=["x", "y"])
        if not (is_concentrated(w) and is_generic(w)):
            continue
        d = rng.choice([v for v in range(-5, 6) if v and v % 3])
        g = rng.randrange(2, 5)
        curve = CurveData(genus=g, points=("x", "y"), symmetries=(((1, 0), 1),))
        res = automorphism_group(w, d, curve)
        assert sorted(c.perm for c in res.classes) == [(0, 1), (1, 0)]
        assert all(c.hecke == (0, 0) and c.sign == 1 for c in res.classes)
        assert res.order == 3 ** (2 * g) * curve.order()
        done += 1


# ---------------------------------------------------------------------------
# 4. dimension bookkeeping across the full grid


def test_dimension_identity_full_grid():
    for g in range(2, 21):
        for n in range(1, 9):
            for r in range(2, 9):
                res = dims(g, n, r)
                assert res.fixed_det == (r * r - 1) * (g - 1) + n * (r * r - r) // 2
                assert res.w_total == res.fixed_det
                assert len(res.w) == r
                assert res.w[0] == g


def test_first_stratum_dominates_deeper_strata():
    for g in range(2, 21):
        for n in range(1, 9):
            for r in range(3, 9):
                first = dim_nonreduced_stratum(g, n, r, 1)
                for d in range(2, r // 2 + 1):
                    assert first > dim_nonreduced_stratum(g, n, r, d)


# ---------------------------------------------------------------------------
# 5. group axioms at scale


def _factors(t: NumTransform) -> list[NumTransform]:
    n = t.npoints
    ident = tuple(range(n))
    zeros = (0,) * n
    word = []
    if t.perm != ident:
        word.append(NumTransform(t.perm, 1, 0, zeros))
    if t.sign == -1:
        word.append(NumTransform(ident, -1, 0, zeros))
    if t.tdeg:
        word.append(NumTransform(ident, 1, t.tdeg, zeros))
    for x, h in enumerate(t.hecke):
        unit = tuple(1 if y == x else 0 for y in range(n))
        word.extend(NumTransform(ident, 1, 0, unit) for _ in range(h))
    return word


def _fold(rng: random.Random, word: list[NumTransform], r: int, n: int) -> NumTransform:
    items = list(word) or [identity_transform(n)]
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i : i + 2] = [compose(items[i], items[i + 1], r)]
    return items[0]


def test_group_axioms_on_thousand_triples():
    rng = random.Random(2026)
    for _ in range(1000):
        r = rng.randrange(2, 6)
        n = rng.randrange(1, 4)
        a, b, c = (rand_transform(rng, r, n) for _ in range(3))
        ident = identity_transform(n)

        assert compose(compose(a, b, r), c, r) == compose(a, compose(b, c, r), r)
        assert compose(a, ident, r) == a == compose(ident, a, r)
        assert compose(a, inverse(a, r), r).is_identity()
        assert compose(inverse(a, r), a, r).is_identity()

        w = rand_weights(rng, r, n)
        d = rng.randrange(-6, 7)
        ab = compose(a, b, r)
        assert apply_to_weights(ab, w) == apply_to_weights(a, apply_to_weights(b, w))
        assert apply_to_degree(ab, d, r) == apply_to_degree(
            a, apply_to_degree(b, d, r), r
        )

        if n >= 2:
            x, y = rng.sample(range(n), 2)
            ux = NumTransform(tuple(range(n)), 1, 0, tuple(1 if v == x else 0 for v in range(n)))
            uy = NumTransform(tuple(range(n)), 1, 0, tuple(1 if v == y else 0 for v in range(n)))
            assert compose(ux, uy, r) == compose(uy, ux, r)

        hvec = tuple(rng.randrange(0, 3) for _ in range(n))
        trivial = make_transform(
            tuple(range(n)), 1, sum(hvec), tuple(r * h for h in hvec), r
        )
        assert trivial.is_identity()


def test_normal_form_is_path_independent():
    rng = random.Random(404)
    for _ in range(200):
        r = rng.randrange(2, 6)
        n = rng.randrange(1, 4)
        a = rand_transform(rng, r, n)
        b = rand_transform(rng, r, n)
        word = _factors(a) + _factors(b)
        target = compose(a, b, r)
        assert _fold(rng, word, r, n) == target
        assert _fold(rng, word, r, n) == target


# ---------------------------------------------------------------------------
# 6. chamber fingerprints against wall crossings at scale


def _translate(w, rng: random.Random):
    rows = []
    for tup in w.weights:
        lo = -tup[0]
        hi = 1 - tup[-1]
        den = rng.choice((16, 27, 49))
        eps = lo + (hi - lo) * F(rng.randrange(1, den), den)
        rows.append([a + eps for a in tup])
    return weight_system(rows, points=w.points)


def test_chamber_fingerprint_matches_wall_crossings():
    rng = random.Random(606)
    for r, n in ((2, 2), (2, 3), (3, 1), (3, 2)):
        lower, upper = None, None
        for _ in range(250):
            d = rng.randrange(-4, 5)
            w1 = rand_generic_weights(rng, r, n)
            w2 = rand_generic_weights(rng, r, n)

            inv1 = chamber_fingerprint(w1, d)
            crossed = crossed_walls(w1, w2, d)
            same = same_numerical_chamber(w1, w2, d)
            assert same == (len(crossed) == 0)

            assert chamber_fingerprint(_translate(w1, rng), d) == inv1

            lower, upper = subdegree_bounds(r, d, n)
            for value in inv1:
                assert lower < value <= upper


def test_stability_verdicts_match_floor_characterization():
    rng = random.Random(808)
    for _ in range(1000):
        r, n = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
        d = rng.randrange(-4, 5)
        w = rand_weights(rng, r, n)
        t = rng.choice(admissible_types(r, n))
        bound = max_subdegree(w, d, t)
        d_sub = bound + rng.randrange(-2, 3)
        verdict = stability_check(w, d, (t.subrank, d_sub, t))
        exact = (F(t.subrank * d) + t.subrank * w.total() - r * owt(w, t)) / r
        if d_sub > bound:
            assert verdict == "violated"
        elif d_sub == bound and exact == bound:
            assert verdict == "equality"
        else:
            assert verdict == "strict"


# ---------------------------------------------------------------------------
# 7. twisted conjugation calculus

XI4_EXPECTED = (
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
    (-1, -1, -1, -1, 0, -1, -1, -1, 0, 0, -1, -1, 0, 0, 0, -1),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
    (-1, -1, -1, -1, 0, -1, -1, -1, 0, 0, -1, -1, 0, 0, 0, -1),
    (-1, -1, -1, -1, 0, -1, -1, -1, 0, 0, -1, -1, 0, 0, 0, -1),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
    (-1, -1, -1, -1, 0, -1, -1, -1, 0, 0, -1, -1, 0, 0, 0, -1),
    (-1, -1, -1, -1, 0, -1, -1, -1, 0, 0, -1, -1, 0, 0, 0, -1),
    (-1, -1, -1, -1, 0, -1, -1, -1, 0, 0, -1, -1, 0, 0, 0, -1),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
)


def test_exponent_matrix_sixteen_by_sixteen():
    assert xi_matrix(4) == XI4_EXPECTED


def test_shift_matrix_conjugation_is_permutation_tensor():
    for n in (2, 3):
        h = h_matrix(n)
        p = cyclic_matrix(n)
        assert mp_matrix(h, inverse_exact(h)) == p.kron(p)


def _rand_laurent(rng: random.Random, vmin: int, vmax: int) -> Laurent:
    coeffs = {}
    for e in range(vmin, vmax + 1):
        if rng.random() < 0.6:
            coeffs[e] = F(rng.randrange(-4, 5), rng.choice((1, 2, 3)))
    return Laurent(coeffs)


def test_outer_product_recognition_500_instances():
    rng = random.Random(707)
    round_trips = 0
    rejections = 0
    while round_trips < 250:
        n = rng.choice((2, 3))
        col = [_rand_laurent(rng, 0, 2) for _ in range(n)]
        row = [_rand_laurent(rng, 0, 2) for _ in range(n)]
        m = [[col[i] * row[j] for j in range(n)] for i in range(n)]
        factored = rank1_factor(m)
        assert factored is not None
        c, r_ = factored
        for i in range(n):
            for j in range(n):
                assert c[i] * r_[j] == m[i][j]
        round_trips += 1
    while rejections < 250:
        n = rng.choice((2, 3))
        m = [[_rand_laurent(rng, 0, 2) for _ in range(n)] for _ in range(n)]
        minor = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if minor.is_zero():
            continue
        assert rank1_factor(m) is None
        rejections += 1


def _rand_unimodular(rng: random.Random, n: int) -> LaurentMatrix:
    """Unit lower times upper triangular with nonzero monomials on the diagonal: invertible."""
    lower = [[_rand_laurent(rng, 0, 2) if i > j else Laurent.const(int(i == j))
              for j in range(n)] for i in range(n)]
    upper = [[_rand_laurent(rng, 0, 2) if i < j else L_ZERO for j in range(n)]
             for i in range(n)]
    for i in range(n):
        upper[i][i] = Laurent.z(rng.randrange(-2, 3), F(rng.choice((-3, -1, 1, 2)), 2))
    return LaurentMatrix.build(lower) @ LaurentMatrix.build(upper)


def test_inner_factor_one_sided_check_matches_two_sided():
    rng = random.Random(808)
    outcomes = []
    for _ in range(200):
        n = rng.choice((2, 3))
        a = _rand_unimodular(rng, n)
        inv = inverse_exact(a)
        kind = rng.randrange(4)
        if kind == 0:
            b = inv
        elif kind == 1:
            b = LaurentMatrix.build([[_rand_laurent(rng, 0, 2) for _ in range(n)] for _ in range(n)])
        elif kind == 2:
            # one entry of the inverse moved by a random nonzero Laurent polynomial
            rows = [list(row) for row in inv.rows]
            i, j = rng.randrange(n), rng.randrange(n)
            step = _rand_laurent(rng, -1, 1)
            rows[i][j] = rows[i][j] + (Laurent.const(1) if step.is_zero() else step)
            b = LaurentMatrix.build(rows)
        else:
            b = inverse_exact(_rand_unimodular(rng, n))
        two_sided = is_inverse_pair(a, b)
        assert inner_factor((a, b)) is (a if two_sided else None)
        outcomes.append(two_sided)
    assert 30 <= sum(outcomes) <= 170


def test_conjugation_integrality_on_200_matrices():
    rng = random.Random(909)

    integral_seen = 0
    while integral_seen < 100:
        n = rng.choice((2, 3))
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    v = _rand_laurent(rng, 0, 2)
                    if v.coeff(0) == 0:
                        v = v + Laurent.const(rng.choice((1, 2, -1)))
                    row.append(v)
                elif i > j:
                    row.append(_rand_laurent(rng, 1, 2))
                else:
                    row.append(_rand_laurent(rng, 0, 2))
            rows.append(row)
        a = LaurentMatrix.build(rows)
        assert is_parabolic(a)
        report = hecke_conjugation_check(a)
        assert report.integral
        assert report.k == 0
        integral_seen += 1

    broken_seen = 0
    while broken_seen < 100:
        n = rng.choice((2, 3))
        rows = [[_rand_laurent(rng, 0, 1) for _ in range(n)] for _ in range(n)]
        i = rng.randrange(1, n)
        j = rng.randrange(i)
        rows[i][j] = rows[i][j] + Laurent.const(rng.choice((1, 2)))
        a = LaurentMatrix.build(rows)
        det = a.det()
        if det.is_zero() or det.coeff(0) == 0:
            continue
        report = hecke_conjugation_check(a)
        assert not report.parabolic_input
        assert not report.integral
        broken_seen += 1


# ---------------------------------------------------------------------------
# 8. command line fixture family is deterministic


def test_fixture_command_passes_and_reruns_bitwise():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "parastab.cli", "fixtures"],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    assert all(proc.returncode == 0 for proc in runs)
    assert runs[0].stdout == runs[1].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["all_pass"] is True
    assert all(check["pass"] for check in payload["checks"])
