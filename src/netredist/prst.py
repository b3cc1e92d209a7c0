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
from math import gcd
from typing import TYPE_CHECKING, Mapping

from netredist.profiles import SPONSOR, ZERO, _cut
from netredist.render import fraction_str

if TYPE_CHECKING:  # the tree keeps its coefficients, so it imports this module
    from netredist.critical_tree import CriticalTree

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
            raise SharingError(f"alpha must lie in (0, 1), got {_cut(fraction_str(self.alpha))}")
        if self.reward < 0:
            raise SharingError(f"reward must be non-negative, got {_cut(fraction_str(self.reward))}")

    @staticmethod
    def of(alpha, reward=1) -> "SharingParams":
        return SharingParams(Fraction(alpha), Fraction(reward))


@dataclass(frozen=True)
class ShareVector:
    """Per-agent coefficients and the reward they split.

    ``omega[i]`` is the fraction of the reward kept by ``i``; the
    coefficients do not depend on the reward, and ``shares`` turns them
    into money.
    """

    omega: Mapping[str, Fraction]
    reward: Fraction


def shares(omega: Mapping[str, Fraction], reward: Fraction) -> dict[str, Fraction]:
    """Monetary shares, ``share[i] == omega[i] * reward``."""
    return {i: w * reward if w else ZERO for i, w in omega.items()}


def prst(tree: CriticalTree, params: SharingParams) -> ShareVector:
    """Compute every agent's share of the reward over ``tree``.

    Top-down recursion: with ``n_sib = |C_parent|`` and ``n_own = |C_i|``,

        total = (n_own + 1) / n_sib
        base  = 1 / (n_sib - n_own)
        omega_i = pass_parent * (base + (total - base) * alpha)
        pass_i  = pass_parent * (total - base) * (1 - alpha)

    ``total - base`` is always >= 0 and vanishes exactly for a leaf
    (``n_own = 0``) and for an only child (``n_own = n_sib - 1``): a leaf
    or an only child passes nothing on.  So every agent with an only child
    among her strict ancestors keeps 0.  The walk leaves those at 0: at the
    first child of an agent who passes nothing it jumps to the end of that
    agent's preorder interval, so a pure chain costs one fraction, not one
    per agent.

    With ``P = n_sib``, ``o = n_own`` and ``alpha = a/b`` the spread is
    ``total - base = o * (P - o - 1) / (P * (P - o))``.  The walk carries
    every pass-down mass as an integer pair ``pn/pd`` reduced by one
    ``gcd``, so each agent costs one exact fraction, her coefficient:

        omega_i = pn * (b*P + a*o*(P - o - 1)) / (pd * b*P*(P - o))
        pass_i  = pn * o*(P - o - 1)*(b - a) / (pd * b*P*(P - o))

    A leaf has ``o = 0``: she keeps ``pn / (pd * P)`` and passes nothing
    on, whatever alpha is.  That value depends on her parent alone, so all
    leaf children of one parent share one coefficient, computed once.
    """
    return ShareVector(omega=walk(tree, params.alpha), reward=params.reward)


def walk(tree: CriticalTree, alpha: Fraction) -> dict[str, Fraction]:
    """``prst``'s coefficients at ``alpha``, keyed in preorder.  The
    nonzero pass-down masses stay inside the walk, as reduced integer
    pairs ``(numerator, denominator)``."""
    if not tree.parent:
        raise SharingError("cannot share a reward over an empty tree")
    a, b = alpha.numerator, alpha.denominator
    preorder, pre, parent, size = tree.preorder, tree.pre, tree.parent, tree.size
    n = len(preorder)  # all agents are below the sponsor

    omega = dict.fromkeys(preorder, ZERO)
    passes = {SPONSOR: (1, 1)}  # an agent who passes nothing has no entry
    leaf_omega: dict[str, Fraction] = {}  # parent -> her leaf children's omega
    # preorder visits every parent before her children
    k = 0
    while k < n:
        i = preorder[k]
        p = parent[i]
        pn, pd = passes.get(p, (0, 1))
        if not pn:  # the rest of p's interval keeps 0: skip it
            k = pre[p] + size[p]
            continue
        k += 1
        parent_count = n if p == SPONSOR else size[p] - 1
        own_count = size[i] - 1
        if not own_count:
            w = leaf_omega.get(p)
            if w is None:
                w = leaf_omega[p] = Fraction(pn, pd * parent_count)
            omega[i] = w
            continue
        spread = own_count * (parent_count - own_count - 1)
        den = pd * b * parent_count * (parent_count - own_count)
        omega[i] = Fraction(pn * (b * parent_count + a * spread), den)
        if spread:
            num = pn * spread * (b - a)
            g = gcd(num, den)
            passes[i] = num // g, den // g
    return omega


def share_totals(shares: ShareVector) -> Fraction:
    """Sum of all monetary shares; equals the reward exactly."""
    return sum((w * shares.reward for w in shares.omega.values() if w), ZERO)
