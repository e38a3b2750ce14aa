"""Closed-form arithmetic: genus, the heart's dimension and weight
multiplicity profiles.

Everything here is exact integer arithmetic; no group computation is
involved. The standing hypothesis is that either p does not divide n or
q = p^r divides n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .fields import is_prime


class HypothesisViolated(ValueError):
    """p | n but q does not divide n: outside the standing hypothesis."""


class NotApplicable(ValueError):
    """Requested quantity has no closed form in this branch."""


# the largest exponent r accepted, far above the r <= 2 of every test,
# fixture and benchmark input: q = p^r then has under 2500 digits for any p
# that `is_prime` decides (p < 3.3e24), inside Python's 4300-digit limit for
# printing an int
MAX_R = 100

# the largest q a weight profile is listed for, one row per i < q: 10^5 rows
# (0.9 MB of text), against q <= 37^2 in every test, fixture and
# benchmark input
MAX_PROFILE_Q = 100_000


@dataclass(frozen=True)
class CurveParams:
    """Degree n >= 4, odd prime p, exponent r >= 1; q = p^r."""

    n: int
    p: int
    r: int = 1

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("degree n must be >= 4")
        if self.p < 3 or not is_prime(self.p):
            raise ValueError(f"p = {self.p} must be an odd prime")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.r > MAX_R:
            raise ValueError(f"r = {self.r} is above the limit MAX_R = {MAX_R}")
        if self.n % self.p == 0 and self.n % self.q != 0:
            raise HypothesisViolated(
                f"p = {self.p} divides n = {self.n} but q = {self.q} does not"
            )

    @property
    def q(self) -> int:
        return self.p**self.r


def genus(params: CurveParams) -> int:
    """(q-1)(n-1)/2 when p does not divide n, (q-1)(n-2)/2 when q | n."""
    n, q = params.n, params.q
    if n % params.p != 0:
        return (q - 1) * (n - 1) // 2
    return (q - 1) * (n - 2) // 2


def heart_dim(n: int, p: int) -> int:
    return n - 2 if n % p == 0 else n - 1


@dataclass(frozen=True)
class WeightProfile:
    """Multiplicities i -> floor(n*i/q) over 1 <= i < q with p not dividing i.

    gcd treats absent/zero entries as neutral (gcd(0, x) = x); support
    counts the nonzero multiplicities. The multiplicities sum to
    phi(q)(n-1)/2, the dimension of the abelian subvariety they grade;
    for r = 1 that number coincides with the curve genus.
    """

    params: CurveParams
    mults: tuple[tuple[int, int], ...]  # (i, multiplicity), i ascending

    @property
    def genus(self) -> int:
        """Genus of the curve itself, (q-1)(n-1)/2 here since p never divides n."""
        return genus(self.params)

    @property
    def gcd(self) -> int:
        g = 0
        for _, m in self.mults:
            g = gcd(g, m)
        return g

    @property
    def support(self) -> int:
        return sum(1 for _, m in self.mults if m != 0)

    def table(self) -> str:
        lines = ["i, n_sigma_i"]
        for i, m in self.mults:
            lines.append(f"{i}, {m}")
        lines.append(f"genus {self.genus} gcd {self.gcd} support {self.support}")
        return "\n".join(lines) + "\n"


def weight_profile(params: CurveParams) -> WeightProfile:
    """The closed-form profile; only stated when p does not divide n."""
    if params.n % params.p == 0:
        raise NotApplicable("multiplicity formula requires p not dividing n")
    q = params.q
    if q > MAX_PROFILE_Q:
        raise ValueError(f"q = {q} is above the limit MAX_PROFILE_Q = {MAX_PROFILE_Q}")
    mults = tuple(
        (i, params.n * i // q) for i in range(1, q) if i % params.p != 0
    )
    return WeightProfile(params, mults)
