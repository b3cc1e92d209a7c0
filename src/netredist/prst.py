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
from typing import Mapping

from netredist.critical_tree import CriticalTree
from netredist.profiles import SPONSOR

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
    (``omega_pass[s] == 1``); ``share[i] == omega[i] * reward``.
    """

    omega: Mapping[str, Fraction]
    omega_pass: Mapping[str, Fraction]
    share: Mapping[str, Fraction]
    reward: Fraction


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
    """
    if not tree.parent:
        raise SharingError("cannot share a reward over an empty tree")
    alpha = params.alpha
    n = len(tree.parent)  # all agents are below the sponsor

    omega: dict[str, Fraction] = {}
    omega_pass: dict[str, Fraction] = {SPONSOR: ONE}
    # preorder visits every parent before her children
    for i in tree.preorder:
        p = tree.parent[i]
        parent_count = n if p == SPONSOR else tree.size[p] - 1
        own_count = tree.size[i] - 1
        total = Fraction(own_count + 1, parent_count)
        base = Fraction(1, parent_count - own_count)
        spread = total - base
        omega[i] = omega_pass[p] * (base + spread * alpha)
        omega_pass[i] = omega_pass[p] * spread * (1 - alpha)

    share = {i: w * params.reward for i, w in omega.items()}
    return ShareVector(omega=omega, omega_pass=omega_pass, share=share,
                       reward=params.reward)


def share_totals(shares: ShareVector) -> Fraction:
    """Sum of all monetary shares; equals the reward exactly."""
    return sum(shares.share.values(), Fraction(0))
