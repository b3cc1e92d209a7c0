"""Proportional reward sharing over a critical tree.

A reward is split top-down: every agent receives a coefficient made of a
basic part (driven by how many descendants her siblings have) and a
diffusion part (growing with her own descendant count, weighted by the
parameter ``alpha``); whatever is not kept is passed on to her subtree.
All arithmetic is exact, so the coefficients of a nonempty tree sum to 1
as a rational identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from netredist.profiles import SPONSOR

if TYPE_CHECKING:  # the tree keeps its coefficients, so it imports this module
    from netredist.critical_tree import CriticalTree

ZERO = Fraction(0)
ONE = Fraction(1)


class SharingError(ValueError):
    """Raised for invalid sharing parameters or an empty tree."""


@dataclass(frozen=True)
class SharingParams:
    """Split parameter ``alpha`` in (0, 1) and the reward to distribute."""

    alpha: Fraction
    reward: Fraction = ONE

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise SharingError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.reward < 0:
            raise SharingError(f"reward must be non-negative, got {self.reward}")

    @staticmethod
    def of(alpha, reward=1) -> "SharingParams":
        return SharingParams(Fraction(alpha), Fraction(reward))


@dataclass(frozen=True)
class ShareVector:
    """Per-agent coefficients, pass-down masses and monetary shares.

    ``omega[i]`` is the fraction of the reward kept by ``i``;
    ``omega_pass[i]`` the fraction handed on to ``i``'s subtree
    (``omega_pass[s] == 1``).  The coefficients do not depend on the
    reward.
    """

    omega: Mapping[str, Fraction]
    omega_pass: Mapping[str, Fraction]
    reward: Fraction

    @property
    def share(self) -> dict[str, Fraction]:
        """Monetary shares, ``share[i] == omega[i] * reward``; built anew
        on every access."""
        return {i: w * self.reward for i, w in self.omega.items()}


def prst(tree: CriticalTree, params: SharingParams) -> ShareVector:
    """Compute every agent's share of the reward over ``tree``.

    Top-down recursion: with ``n_sib = |C_parent|`` and ``n_own = |C_i|``,

        total = (n_own + 1) / n_sib
        base  = 1 / (n_sib - n_own)
        omega_i = pass_parent * (base + (total - base) * alpha)
        pass_i  = pass_parent * (total - base) * (1 - alpha)

    ``total - base`` is always >= 0 and vanishes exactly when an agent is
    an only child with all of her parent's descendants below her, in which
    case her whole line keeps nothing back for deeper agents.

    With ``P = n_sib``, ``o = n_own`` and ``alpha = a/b`` the spread is
    ``total - base = o * (P - o - 1) / (P * (P - o))``, so each agent
    costs one exact fraction per output:

        omega_i = pass_parent * (b*P + a*o*(P - o - 1)) / (b*P*(P - o))
        pass_i  = pass_parent * o*(P - o - 1)*(b - a) / (b*P*(P - o))

    A leaf has ``o = 0``: she keeps ``pass_parent / P`` and passes nothing
    on, whatever alpha is.  That value depends on her parent alone, so all
    leaf children of one parent share one coefficient, computed once.
    """
    if not tree.parent:
        raise SharingError("cannot share a reward over an empty tree")
    a, b = params.alpha.numerator, params.alpha.denominator
    n = len(tree.parent)  # all agents are below the sponsor
    parent, size = tree.parent, tree.size

    omega: dict[str, Fraction] = {}
    omega_pass: dict[str, Fraction] = {SPONSOR: ONE}
    leaf_omega: dict[str, Fraction] = {}  # parent -> her leaf children's omega
    # preorder visits every parent before her children
    for i in tree.preorder:
        p = parent[i]
        parent_count = n if p == SPONSOR else size[p] - 1
        own_count = size[i] - 1
        if not own_count:
            w = leaf_omega.get(p)
            if w is None:
                w = leaf_omega[p] = omega_pass[p] / parent_count
            omega[i] = w
            omega_pass[i] = ZERO
            continue
        spread = own_count * (parent_count - own_count - 1)
        den = b * parent_count * (parent_count - own_count)
        pass_p = omega_pass[p]
        omega[i] = pass_p * Fraction(b * parent_count + a * spread, den)
        omega_pass[i] = pass_p * Fraction(spread * (b - a), den) if spread else ZERO

    return ShareVector(omega=omega, omega_pass=omega_pass, reward=params.reward)


def share_totals(shares: ShareVector) -> Fraction:
    """Sum of all monetary shares; equals the reward exactly."""
    return sum(shares.share.values(), Fraction(0))
