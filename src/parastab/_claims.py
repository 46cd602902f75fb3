"""The frozen example families of ``parastab fixtures``, one named claim each.

Only the ``fixtures`` command loads this module, so no other command builds
the example weight systems and transforms below.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .autgroup import AutResult, CurveData, automorphism_group, trivial_curve
from .chamber import same_numerical_chamber
from .transform_group import NumTransform, apply_to_degree, apply_to_weights, compose, hecke_weights
from .weights_core import WeightSystem, normalize, weight_system

# claim name -> check returning (holds, detail), in report order
FIXTURE_CLAIMS: dict[str, Callable[[], tuple[bool, str]]] = {}


def _claim(name: str):
    def register(check: Callable[[], tuple[bool, str]]):
        FIXTURE_CLAIMS[name] = check
        return check

    return register


def _rank2_member(a2: Fraction) -> WeightSystem:
    """Base weights (1/10, a2) at x, partner point (a2 - 1/2, 1/10 + 1/2) at y."""
    a1 = Fraction(1, 10)
    return weight_system([[a1, a2], [a2 - Fraction(1, 2), a1 + Fraction(1, 2)]], points=["x", "y"])


def _classes(result: AutResult) -> list:
    return sorted((t.perm, t.sign, t.tdeg, t.hecke) for t in result.classes)


_ALPHA3 = weight_system([[Fraction(1, 8), Fraction(3, 8), Fraction(7, 8)]])
_ALPHA4 = weight_system([[Fraction(1, 16), Fraction(3, 16), Fraction(5, 16), Fraction(15, 16)]])


@_claim("rank2 full Hecke shift equals the point swap")
def _rank2_swap() -> tuple[bool, str]:
    swap = NumTransform((1, 0), 1, 0, (0, 0))
    ok, shown = True, []
    for a2 in (Fraction(3, 5), Fraction(7, 10)):
        member = _rank2_member(a2)
        lhs = hecke_weights(normalize(member), (1, 1))
        ok = ok and lhs == apply_to_weights(swap, member)
        shown.append([[str(a) for a in t] for t in lhs.weights])
    return ok, f"{shown}"


@_claim("rank2 classes are the identity and the swapped full Hecke shift")
def _rank2_classes() -> tuple[bool, str]:
    curve = CurveData(2, ("x", "y"), (((1, 0), 1),))
    result = automorphism_group(_rank2_member(Fraction(7, 10)), 0, curve)
    got = _classes(result)
    want = [((0, 1), 1, 0, (0, 0)), ((1, 0), 1, 1, (1, 1))]
    return got == want and result.order == 2 ** 4 * 2, f"classes={got} order={result.order}"


@_claim("rank2 single and double Hecke shifts leave the chamber")
def _rank2_separated() -> tuple[bool, str]:
    base = normalize(_rank2_member(Fraction(7, 10)))
    images = [hecke_weights(base, h) for h in ((1, 0), (0, 1), (1, 1))]
    separated = not any(same_numerical_chamber(image, base, 0) for image in images)
    return separated, "compared against the fingerprint at degree 0"


@_claim("rank3 Hecke shift value")
def _rank3_shift() -> tuple[bool, str]:
    shifted = hecke_weights(_ALPHA3, (1,)).weights[0]
    return shifted == (Fraction(0), Fraction(1, 2), Fraction(3, 4)), f"{[str(a) for a in shifted]}"


def _involution_claims(r: int, alpha: WeightSystem, shift: int, shifted: str, image: str) -> None:
    """The dualized Hecke shift t = ((0,), -1, 1, (shift,)) of a one-point family."""
    t = NumTransform((0,), -1, 1, (shift,))

    @_claim(f"rank{r} dualized {shifted} fixes the weight class")
    def _fixes() -> tuple[bool, str]:
        return apply_to_weights(t, alpha) == normalize(alpha), image

    @_claim(f"rank{r} involution squares to the identity and fixes degree -1")
    def _involution() -> tuple[bool, str]:
        ok = compose(t, t, r).is_identity() and apply_to_degree(t, -1, r) == -1
        return ok, "T.T = id, degree -1 -> -1"

    @_claim(f"rank{r} classes are the identity and the involution")
    def _aut_classes() -> tuple[bool, str]:
        result = automorphism_group(alpha, -1, trivial_curve(2, ["x"]))
        got = _classes(result)
        want = [((0,), -1, 1, (shift,)), ((0,), 1, 0, (0,))]
        return got == want and result.order == 2 * r ** 4, f"classes={got} order={result.order}"


_involution_claims(3, _ALPHA3, 1, "Hecke shift", "image equals (0, 1/4, 3/4)")


@_claim("rank3 chamber fingerprints separate the three Hecke images")
def _rank3_separated() -> tuple[bool, str]:
    base = normalize(_ALPHA3)
    sh1, sh2 = hecke_weights(base, (1,)), hecke_weights(base, (2,))
    ok = not any(
        same_numerical_chamber(u, v, -1) for u, v in ((base, sh1), (base, sh2), (sh1, sh2))
    )
    return ok, "pairwise distinct at degree -1"


_involution_claims(4, _ALPHA4, 2, "double Hecke shift", "image equals the normalized weights")
