"""Tests for the pole/residue waveform models."""

import math

import numpy as np
import pytest

from repro.core.model import AweWaveform, PoleResidueModel, _value_and_slope
from repro.errors import ApproximationError


def simple_model(offset=5.0, k=-5.0, p=-1e9, t0=0.0, slope=0.0):
    return PoleResidueModel(((complex(p), 1, complex(k)),), offset=offset,
                            slope=slope, t0=t0, name="m")


class TestPoleResidueModel:
    def test_evaluate_matches_closed_form(self):
        model = simple_model()
        t = np.linspace(0, 5e-9, 101)
        np.testing.assert_allclose(model.evaluate(t), 5 - 5 * np.exp(-1e9 * t))

    def test_zero_before_t0(self):
        model = simple_model(t0=1e-9)
        values = model.evaluate(np.array([0.5e-9, 2e-9]))
        assert values[0] == 0.0
        assert values[1] > 0.0

    def test_scalar_time(self):
        model = simple_model()
        assert float(model.evaluate(2e-9)) == pytest.approx(5 - 5 * np.exp(-2))

    def test_scalar_before_t0(self):
        assert float(simple_model(t0=1e-9).evaluate(0.0)) == 0.0

    def test_initial_value(self):
        assert simple_model().initial_value() == pytest.approx(0.0)

    def test_final_value(self):
        assert simple_model().final_value() == pytest.approx(5.0)

    def test_final_value_with_slope_raises(self):
        with pytest.raises(ApproximationError):
            simple_model(slope=1.0).final_value()

    def test_unstable_flagged(self):
        model = PoleResidueModel(((complex(1e9), 1, complex(1.0)),))
        assert not model.is_stable
        with pytest.raises(ApproximationError):
            model.final_value()

    def test_complex_pair_is_real(self):
        p = -1e9 + 4e9j
        k = 1 - 2j
        model = PoleResidueModel(
            ((p, 1, k), (np.conj(p), 1, np.conj(k))), offset=0.0
        )
        values = model.evaluate(np.linspace(0, 3e-9, 64))
        assert np.isrealobj(values)

    def test_unpaired_complex_rejected_on_eval(self):
        model = PoleResidueModel(((complex(-1e9, 4e9), 1, complex(1, 1)),))
        with pytest.raises(ApproximationError, match="complex"):
            model.evaluate(np.linspace(0, 3e-9, 16))

    def test_repeated_pole_term(self):
        # k·t·e^{pt} via power=2.
        model = PoleResidueModel(((complex(-1.0), 2, complex(3.0)),))
        t = np.linspace(0, 4, 33)
        np.testing.assert_allclose(model.transient_at(t), 3 * t * np.exp(-t))

    def test_real_terms_agree_with_complex_arithmetic(self):
        # Real terms evaluate in float64; the reference is the all-complex
        # sum every term once went through.
        p, k = -1e9 + 4e9j, 1 - 2j
        terms = ((complex(-1e9), 1, complex(-5.0)), (complex(-3e9), 2, complex(2e9)),
                 (p, 1, k), (np.conj(p), 1, np.conj(k)))
        t = np.linspace(0, 5e-9, 101)
        reference = sum(residue * np.exp(pole * t) * t ** (power - 1)
                        / math.factorial(power - 1)
                        for pole, power, residue in terms).real
        np.testing.assert_allclose(PoleResidueModel(terms).transient_at(t),
                                   reference, rtol=1e-13, atol=1e-15)

    def test_dominant_time_constant(self):
        model = PoleResidueModel(
            ((complex(-1e9), 1, complex(1)), (complex(-1e10), 1, complex(1)))
        )
        assert model.dominant_time_constant() == pytest.approx(1e-9)

    def test_empty_model_evaluates_particular_only(self):
        model = PoleResidueModel((), offset=2.0, slope=1.0, t0=1.0)
        assert float(model.evaluate(3.0)) == pytest.approx(4.0)


class TestAweWaveform:
    def test_superposition_of_events(self):
        up = simple_model()
        down = PoleResidueModel(((complex(-1e9), 1, complex(5.0)),),
                                offset=-5.0, t0=2e-9)
        waveform = AweWaveform((up, down))
        # Final: 5 + (−5) = 0 (a pulse).
        assert waveform.final_value() == pytest.approx(0.0)
        assert waveform.evaluate(np.array([1e-9]))[0] > 3.0

    def test_ramp_pair_final_value(self):
        # Two ramping models whose slopes cancel: finite final value.
        up = PoleResidueModel((), offset=0.0, slope=2.0, t0=0.0)
        down = PoleResidueModel((), offset=0.0, slope=-2.0, t0=1.0)
        waveform = AweWaveform((up, down))
        assert waveform.final_value() == pytest.approx(2.0)

    def test_unbalanced_ramp_rejected(self):
        ramp = PoleResidueModel((), offset=0.0, slope=2.0)
        with pytest.raises(ApproximationError, match="ramps forever"):
            AweWaveform((ramp,)).final_value()

    def test_baseline_added(self):
        waveform = AweWaveform((simple_model(),), baseline=1.0)
        assert waveform.final_value() == pytest.approx(6.0)

    def test_suggested_window_covers_transient(self):
        waveform = AweWaveform((simple_model(t0=2e-9),))
        assert waveform.suggested_window() >= 2e-9 + 5e-9

    def test_to_waveform_auto_window(self):
        sampled = AweWaveform((simple_model(),)).to_waveform()
        assert sampled.values[-1] == pytest.approx(5.0, rel=1e-3)

    def test_callable(self):
        waveform = AweWaveform((simple_model(),))
        assert waveform(0.0) == pytest.approx(0.0)

    def test_stability_aggregate(self):
        good = simple_model()
        bad = PoleResidueModel(((complex(1e9), 1, complex(1.0)),))
        assert AweWaveform((good,)).is_stable
        assert not AweWaveform((good, bad)).is_stable


class TestScalarForm:
    """The crossing polish reads the model's value and slope from a scalar
    form of its terms, built once per ``first_crossings`` call."""

    def test_value_and_slope_match_the_model(self):
        p, k = -1e9 + 4e9j, 1 - 2j
        waveform = AweWaveform((
            PoleResidueModel(((p, 1, k), (np.conj(p), 1, np.conj(k)),
                              (complex(-2e9), 2, complex(3e9)),
                              (complex(-5e8), 1, complex(-1.5))),
                             offset=1.0, slope=2e8),
            PoleResidueModel(((complex(-2e9), 1, complex(0.5)),),
                             offset=-0.5, slope=-2e8, t0=1.05e-9),
        ), baseline=0.25)
        form = waveform._scalar_form()
        # The central difference is good to about 1e3 V/s on slopes that
        # run to 1e9 V/s.
        h = 1e-13
        for t in np.linspace(0.1e-9, 5e-9, 23):
            value, slope = _value_and_slope(form, t)
            assert value + 0.25 == pytest.approx(float(waveform.evaluate(t)),
                                                 rel=1e-12)
            numeric = float(waveform.evaluate(t + h) - waveform.evaluate(t - h)) / (2 * h)
            assert slope == pytest.approx(numeric, rel=1e-6, abs=1e3)


def _evaluate_masked(model, t):
    """Every sample masked, evaluated where active and scattered back."""
    t = np.asarray(t, dtype=float)
    tau = t - model.t0
    active = tau >= 0.0
    values = np.zeros(t.shape)
    if np.any(active):
        tau_active = tau[active] if tau.ndim else tau
        contribution = (model.offset + model.slope * tau_active
                        + model.transient_at(tau_active))
        if tau.ndim:
            values[active] = contribution
        else:
            values = np.asarray(contribution)
    return values


class TestEvaluatePaths:
    """All-active samples are evaluated directly; the values must be
    bitwise those of the masked evaluation."""

    MODELS = (
        simple_model(),
        simple_model(t0=2e-9, slope=1e8),
        PoleResidueModel(((complex(-1e9, 3e9), 1, complex(1.0, -0.5)),
                          (complex(-1e9, -3e9), 1, complex(1.0, 0.5)),
                          (complex(-4e8), 2, complex(2e8))), offset=1.0, t0=1e-9),
    )

    @pytest.mark.parametrize("model", MODELS)
    def test_all_active_partly_active_and_scalar(self, model):
        grids = (
            np.linspace(model.t0, model.t0 + 8e-9, 4000),   # all active
            np.linspace(0.0, 8e-9, 4000),                    # partly active
            np.linspace(0.0, 8e-9, 4000).reshape(40, 100),   # 2-D
            np.array([]),
        )
        for t in grids:
            got, expected = model.evaluate(t), _evaluate_masked(model, t)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        for scalar in (0.0, model.t0, model.t0 + 1e-9, model.t0 - 1e-12):
            got, expected = model.evaluate(scalar), _evaluate_masked(model, scalar)
            assert got.shape == () and got.tobytes() == expected.tobytes()
