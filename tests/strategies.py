"""Hypothesis strategies shared across the test suite.

Every strategy shrinks towards smaller networks, so a failure reports a
minimal counterexample.
"""

from __future__ import annotations

from hypothesis import strategies as st

from netredist.profiles import ReportProfile

from networks import T


@st.composite
def invitation_digraphs(draw) -> ReportProfile:
    """Up to eight agents with values in 0..3, so that ties and zero bids
    are common, each inviting up to three others and the sponsor one or
    two of them, so that roots the sponsor does not invite are common;
    shrinks towards fewer agents, fewer invitations and zero values."""
    ids = [f"a{k}" for k in range(draw(st.integers(min_value=1, max_value=8)))]
    invitations = st.sets(st.sampled_from(ids), min_size=1, max_size=3)
    values = st.integers(min_value=0, max_value=3)
    reports = {i: T(draw(values), draw(invitations) - {i}) for i in ids}
    sponsored = draw(st.sets(st.sampled_from(ids), min_size=1, max_size=2))
    return ReportProfile(frozenset(sponsored), reports)
