"""Dataflow-aware pruning constraints (paper Sec. IV-A2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pruning import (
    LayerFoldConstraint,
    adjust_removal,
    requested_removal,
)


class TestLayerFoldConstraint:
    def test_validation(self):
        with pytest.raises(ValueError):
            LayerFoldConstraint(pe=0)
        with pytest.raises(ValueError):
            LayerFoldConstraint(simd_next=0)

    def test_validate_unpruned(self):
        LayerFoldConstraint(pe=8, simd_next=4).validate_unpruned(64)
        with pytest.raises(ValueError):
            LayerFoldConstraint(pe=7).validate_unpruned(64)
        with pytest.raises(ValueError):
            LayerFoldConstraint(pe=8, simd_next=5).validate_unpruned(64)


class TestRequestedRemoval:
    def test_floor(self):
        assert requested_removal(64, 0.05) == 3
        assert requested_removal(64, 0.85) == 54
        assert requested_removal(64, 0.0) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            requested_removal(64, 1.0)
        with pytest.raises(ValueError):
            requested_removal(64, -0.1)


class TestAdjustRemoval:
    def test_paper_constraints_hold(self):
        c = LayerFoldConstraint(pe=8, simd_next=4)
        r = adjust_removal(64, 20, c)
        remaining = 64 - r
        assert remaining % 8 == 0
        assert remaining % 4 == 0
        assert r <= 20

    def test_iterative_decrease(self):
        c = LayerFoldConstraint(pe=8, simd_next=8)
        # requested 20 -> nearest feasible below is 16
        assert adjust_removal(64, 20, c) == 16

    def test_zero_when_infeasible(self):
        c = LayerFoldConstraint(pe=32, simd_next=32)
        assert adjust_removal(64, 20, c) == 0

    def test_unconstrained(self):
        c = LayerFoldConstraint()
        assert adjust_removal(64, 20, c) == 20

    def test_never_removes_everything(self):
        c = LayerFoldConstraint(pe=1, simd_next=1)
        assert adjust_removal(8, 100, c) == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            adjust_removal(64, -1, LayerFoldConstraint())

    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(1, 8),
        st.floats(0.0, 0.99),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariants(self, pe_pow, simd_pow, groups, rate):
        """For any folding and rate: result <= requested, constraints hold,
        and the result is the LARGEST feasible removal."""
        pe = 2 ** (pe_pow - 1)
        simd = 2 ** (simd_pow - 1)
        ch = math.lcm(pe, simd) * groups
        c = LayerFoldConstraint(pe=pe, simd_next=simd)
        requested = requested_removal(ch, rate)
        r = adjust_removal(ch, requested, c)
        assert 0 <= r <= requested
        remaining = ch - r
        assert remaining % pe == 0 and remaining % simd == 0
        # Maximality: no feasible r' in (r, requested].
        group = math.lcm(pe, simd)
        for rp in range(r + 1, min(requested, ch - 1) + 1):
            if (ch - rp) % group == 0:
                pytest.fail(f"r={r} not maximal; {rp} also feasible")


FOLDS = st.sampled_from([1, 2, 3, 4, 6, 8, 16])


class TestDivisibilityProperties:
    """Property-based guarantee of the paper's Sec. IV-A2 invariant:
    whatever rate is requested, the surviving channel count divides both
    the layer's PE count and the next layer's SIMD width."""

    @given(pe=FOLDS, simd=FOLDS, groups=st.integers(1, 12),
           rate=st.floats(0.0, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_remaining_channels_divide_pe_and_simd(self, pe, simd,
                                                   groups, rate):
        ch_out = math.lcm(pe, simd) * groups
        c = LayerFoldConstraint(pe=pe, simd_next=simd)
        r = adjust_removal(ch_out, requested_removal(ch_out, rate), c)
        remaining = ch_out - r
        assert remaining >= max(pe, simd)  # one full group survives
        assert remaining % pe == 0
        assert remaining % simd == 0

    @given(pe=FOLDS, simd=FOLDS, groups=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_achievable_rates_round_trip(self, pe, simd, groups):
        """Requesting an achievable rate (one that leaves a whole number
        of fold groups) realizes that rate up to the folding granularity
        (float flooring in ``requested_removal`` can land one filter
        short of a group boundary, never more)."""
        group = math.lcm(pe, simd)
        ch_out = group * groups
        c = LayerFoldConstraint(pe=pe, simd_next=simd)
        for remaining in range(ch_out, 0, -group):
            rate = 1.0 - remaining / ch_out
            requested = requested_removal(ch_out, rate)
            achieved = adjust_removal(ch_out, requested, c)
            assert abs(achieved - ch_out * rate) < group
            assert (ch_out - achieved) % group == 0

    @given(pe=FOLDS, simd=FOLDS, groups=st.integers(1, 8),
           r1=st.floats(0.0, 0.999), r2=st.floats(0.0, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_adjustment_monotone_in_request(self, pe, simd, groups,
                                            r1, r2):
        ch_out = math.lcm(pe, simd) * groups
        c = LayerFoldConstraint(pe=pe, simd_next=simd)
        lo, hi = sorted((r1, r2))
        a_lo = adjust_removal(ch_out, requested_removal(ch_out, lo), c)
        a_hi = adjust_removal(ch_out, requested_removal(ch_out, hi), c)
        assert a_hi >= a_lo


class TestModelLevelDivisibility:
    """Seeded random configurations through the full pruning pass: every
    pruned CONV layer of a real model keeps its surviving channel count
    divisible by its PE count and its consumer's SIMD width."""

    @pytest.fixture(scope="class")
    def folded_model(self):
        from repro.finn import cnv_reference_fold, fold_constraints
        from repro.models import CNVConfig, ExitsConfiguration, build_cnv

        model = build_cnv(CNVConfig(width_scale=0.25, seed=0),
                          ExitsConfiguration.paper_default())
        cons = fold_constraints(model, cnv_reference_fold(model))
        return model, cons

    def test_random_rates_respect_fold_constraints(self, folded_model):
        import numpy as np

        from repro.pruning import prune_model

        model, cons = folded_model
        rng = np.random.default_rng(2024)
        for rate in rng.uniform(0.05, 0.85, size=6):
            for prune_exits in (True, False):
                _, report = prune_model(model, float(rate),
                                        constraints=cons,
                                        prune_exits=prune_exits)
                assert report.decisions
                for d in report.decisions:
                    c = cons.get(d.layer_name, LayerFoldConstraint())
                    assert d.channels_after % c.pe == 0, d.layer_name
                    assert d.channels_after % c.simd_next == 0, \
                        d.layer_name
                    assert d.achieved_removal <= d.requested_removal
