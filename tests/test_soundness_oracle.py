"""Criterion 10's soundness gate on hypothesis-drawn scenarios: the draws
of `test_acceptance._random_scenario` (family, degree, p <= 37, r in
{1, 2, 3}, the zeta flag, the custom pool), made from a hypothesis-backed
random stream so that a breach shrinks to a small scenario. The fixed-seed
1000-scenario test stays beside it in test_acceptance.py."""

import pytest

from heartproof import verdict

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402

from test_acceptance import ROUTE_NAMES, _random_scenario  # noqa: E402


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False).map(_random_scenario))
def test_drawn_scenarios_never_breach_the_soundness_gate(s):
    try:
        cert = verdict.dispatch(s)
    except verdict.InvalidScenario:
        return
    assert cert.theorem in ROUTE_NAMES
    if cert.conclusion.kind == "inconclusive":
        return
    assert all(c.passed is True for c in cert.checks), verdict.explain(cert)
    assert cert.conclusion.dimension_over_q == s.q - 1
    if s.r == 1:
        assert cert.conclusion.kind == "cyclotomic_ring"
    else:
        assert cert.conclusion.kind == "cyclotomic_product_algebra"
        assert len(cert.conclusion.fields) == s.r
