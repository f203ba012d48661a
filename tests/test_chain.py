"""Filter recursion, delay ring buffer, and law validation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import ReferenceChain

from qfb import FeedbackChain, FeedbackLaw, ModelParams, validate_law

P = ModelParams(tau_m=0.2, dt=0.005)


def law(Ts=0.0, Td=0.0):
    return FeedbackLaw(delta0=-1.0, delta1=2.0, Ts=Ts, Td=Td)


class TestFeedbackLaw:
    def test_n_delay_rounding(self):
        assert law(Td=0.2).n_delay(0.005) == 40
        assert law(Td=0.0).n_delay(0.005) == 0
        assert law(Td=0.012).n_delay(0.005) == 2
        nd = law(Td=0.013).n_delay(0.005)
        assert abs(nd * 0.005 - 0.013) <= 0.005 / 2

    def test_alpha_passthrough_and_general(self):
        assert law(Ts=0.0).filter_alpha(0.005) == 1.0
        assert law(Ts=0.1).filter_alpha(0.005) == pytest.approx(
            1.0 - math.exp(-0.05), rel=1e-14
        )

    def test_negative_settings_rejected(self):
        with pytest.raises(ValueError):
            FeedbackLaw(0.0, 0.0, Ts=-0.1)
        with pytest.raises(ValueError):
            FeedbackLaw(0.0, 0.0, Td=-0.1)

    @pytest.mark.parametrize("name", ["delta0", "delta1", "Ts", "Td"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, name, value):
        settings = {"delta0": 0.0, "delta1": 1.0, "Ts": 0.0, "Td": 0.0, name: value}
        with pytest.raises(ValueError, match=f"^{name}: must be finite"):
            FeedbackLaw(**settings)


class TestFilter:
    def test_passthrough_when_ts_zero(self):
        chain = FeedbackChain([law(Ts=0.0)], P, batch=1)
        for r in (0.3, -2.0, 11.0):
            assert chain.push(r) == r

    def test_half_step_convergence(self):
        # dt = Ts ln2 -> one push from 0 toward 1 lands exactly at 0.5
        ts = P.dt / math.log(2.0)
        chain = FeedbackChain([law(Ts=ts)], P, batch=1)
        assert chain.push(1.0) == pytest.approx(0.5, rel=1e-12)

    def test_geometric_convergence_and_sum_oracle(self):
        ts = 0.05
        chain = FeedbackChain([law(Ts=ts)], P, batch=1)
        c = 0.8
        alpha = 1.0 - math.exp(-P.dt / ts)
        decay = math.exp(-P.dt / ts)
        outs = [chain.push(c).item() for _ in range(400)]
        # geometric approach with ratio exp(-dt/Ts)
        for k in (10, 50, 100):
            assert outs[k] - c == pytest.approx((outs[0] - c) * decay**k, rel=1e-9)
        # closed-form sum of the recursion (independent evaluation path)
        k = 200
        direct = sum(alpha * decay ** (k - j) * c for j in range(k + 1))
        assert outs[k] == pytest.approx(direct, abs=1e-12)
        # continuum moving-average weights dt/Ts agree to O(dt/Ts)
        approx = sum((P.dt / ts) * decay ** (k - j) * c for j in range(k + 1))
        assert outs[k] == pytest.approx(approx, rel=2 * P.dt / ts)

    def test_dc_gain_is_one(self):
        for ts in (0.0, 0.02, 0.2):
            chain = FeedbackChain([law(Ts=ts)], P, batch=1)
            out = 0.0
            for _ in range(5000):
                out = chain.push(1.7)
            assert out == pytest.approx(1.7, rel=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=300)
        v = rng.normal(size=300)
        a, b = 1.3, -0.7

        def run(seq):
            chain = FeedbackChain([law(Ts=0.04)], P, batch=1)
            return np.array([chain.push(r).item() for r in seq])

        lhs = run(a * u + b * v)
        rhs = a * run(u) + b * run(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestDelay:
    def test_zero_delay_passthrough(self):
        chain = FeedbackChain([law(Td=0.0)], P, batch=1)
        assert chain.push(0.42) == 0.42

    def test_buffer_fill_semantics(self):
        chain = FeedbackChain([law(Td=3 * P.dt)], P, batch=1)
        outs = [chain.push(v).item() for v in (1.0, 2.0, 3.0, 4.0)]
        assert outs == [0.0, 0.0, 0.0, 1.0]

    def test_shift_equality_over_random_sequence(self):
        # n_d = 40 at dt = 0.005, Td = 0.2
        rng = np.random.default_rng(11)
        seq = rng.normal(size=500)
        chain = FeedbackChain([law(Td=0.2)], P, batch=1)
        outs = np.array([chain.push(v).item() for v in seq])
        assert np.array_equal(outs[40:], seq[:-40])
        assert np.all(outs[:40] == 0.0)

    def test_batch_mode_matches_scalar(self):
        rng = np.random.default_rng(4)
        seq = rng.normal(size=(100, 3))
        batch = FeedbackChain([law(Ts=0.03, Td=5 * P.dt)], P, batch=3)
        scalars = [FeedbackChain([law(Ts=0.03, Td=5 * P.dt)], P, batch=1) for _ in range(3)]
        for row in seq:
            got = batch.push(row)
            want = [c.push(r).item() for c, r in zip(scalars, row)]
            assert np.allclose(got, want, atol=0)


class TestChainComposition:
    def test_markovian_chain_is_identity(self):
        chain = FeedbackChain([law(Ts=0.0, Td=0.0)], P, batch=1)
        rng = np.random.default_rng(8)
        for r in rng.normal(size=100):
            assert chain.push(r) == r

    def test_filter_then_delay_order(self):
        # output is the *filtered* value from n_d steps ago
        ts = 0.05
        n_d = 4
        chain = FeedbackChain([law(Ts=ts, Td=n_d * P.dt)], P, batch=1)
        ref = FeedbackChain([law(Ts=ts, Td=0.0)], P, batch=1)
        seq = np.linspace(-1, 1, 50)
        outs = [chain.push(r).item() for r in seq]
        filt = [ref.push(r).item() for r in seq]
        assert outs[n_d:] == pytest.approx(filt[:-n_d], abs=1e-15)


class TestValidateLaw:
    def test_warns_at_gain_bound(self):
        p = ModelParams(tau_m=0.2, dt=0.01)
        bound = 1.0 / (5.0 * math.sqrt(p.dt * p.tau_m))
        with pytest.warns(UserWarning):
            validate_law(FeedbackLaw(0.0, bound * 1.01), p)

    def test_silent_below_bound(self):
        import warnings

        p = ModelParams(tau_m=0.2, dt=0.0005)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_law(FeedbackLaw(0.0, 4.05), p)


class TestPerPointLaws:
    LAWS = (
        law(Ts=0.0, Td=0.0),
        law(Ts=0.03, Td=5 * P.dt),
        law(Ts=0.0, Td=2 * P.dt),
        law(Ts=0.05, Td=0.0),
    )

    def test_rows_match_single_law_chains(self):
        rng = np.random.default_rng(5)
        batch = 3
        chain = FeedbackChain(self.LAWS, P, batch=batch)
        alone = [FeedbackChain([l], P, batch=batch) for l in self.LAWS]
        for rows in rng.normal(size=(60, len(self.LAWS), batch)):
            got = chain.push(rows)
            for p, c in enumerate(alone):
                assert np.array_equal(got[p], c.push(rows[p:p + 1])[0])

    def test_passthrough_rows_are_exact(self):
        rng = np.random.default_rng(6)
        chain = FeedbackChain((law(Ts=0.0), law(Ts=0.04)), P, batch=2)
        for rows in rng.normal(size=(20, 2, 2)):
            assert np.array_equal(chain.push(rows)[0], rows[0])

    def test_ring_reads_each_delay_before_writing(self):
        delays = (0, 1, 3, 5)
        chain = FeedbackChain([law(Td=d * P.dt) for d in delays], P, batch=1)
        assert chain.ring.shape == (6, 4, 1)
        pushed = np.arange(1.0, 13.0)
        outs = np.array([chain.push(np.full((4, 1), v))[:, 0].copy() for v in pushed])
        for p, d in enumerate(delays):
            assert np.all(outs[:d, p] == 0.0)
            assert np.array_equal(outs[d:, p], pushed[:len(pushed) - d])


@st.composite
def chains(draw):
    """1-5 laws mixing filter constants and delays of 0-5 steps, a batch of 1-4
    and a noise seed."""
    n_laws = draw(st.integers(1, 5))
    laws = [
        law(Ts=draw(st.sampled_from((0.0, P.dt, 5 * P.dt, 0.1))),
            Td=draw(st.integers(0, 5)) * P.dt)
        for _ in range(n_laws)
    ]
    return laws, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


@settings(database=None, derandomize=True, deadline=None)
@given(drawn=chains())
# a delay longer than the 40 pushes: every output is 0
@example(drawn=([law(Td=50 * P.dt), law(Ts=0.1)], 2, 7))
# a ring of one slot, one passthrough row and one filter row
@example(drawn=([law(Ts=0.0), law(Ts=5 * P.dt)], 3, 8))
def test_push_matches_the_reference_chain_bit_for_bit(drawn):
    laws, batch, seed = drawn
    chain = FeedbackChain(laws, P, batch)
    reference = ReferenceChain(laws, P, batch)
    for k, r in enumerate(np.random.default_rng(seed).normal(size=(40, len(laws), batch))):
        assert chain.push(r).tobytes() == reference.push(r).tobytes(), k
