import numpy as np
import pytest

from ncsym.measurement import (
    MIXTURE_TOL,
    MeasurementError,
    MeasurementModel,
    PointerObservable,
    hybrid_interaction_bracket,
    hybrid_order_report,
    matrix_apparatus_crosscheck,
    stern_gerlach,
    suppression_sweep,
    uniform_suppression,
)
from ncsym.superclassical import variables

(X, P), _ = variables(2, 0)


def test_uniform_suppression_values():
    assert uniform_suppression(0.0) == pytest.approx(1.0)
    assert uniform_suppression(1e-9) == pytest.approx(1.0, abs=1e-15)
    assert uniform_suppression(np.pi) == pytest.approx(2.0 / np.pi, rel=1e-12)
    # the first zero sits at one full period
    assert uniform_suppression(2.0 * np.pi) == pytest.approx(0.0, abs=1e-15)


def test_suppression_bound_and_large_argument():
    kappas = np.logspace(-2, 9, 60)
    mags = suppression_sweep(kappas)
    bound = np.minimum(1.0, 2.0 / kappas)
    assert np.all(mags <= bound + 1e-12)
    assert uniform_suppression(1e8) <= 1e-7


def test_model_kappa_eta_and_reduced_state():
    model = MeasurementModel(
        lambdas=[-1.0, 1.0],
        amplitudes=[0.6, 0.8],
        k_mean=5.0e4,
        tau=2.0e-3,
        hbar=1.0e-2,
    )
    assert model.eta(0, 1) == pytest.approx(2.0 * 5e4 * 2e-3)
    assert model.kappa(0, 1) == pytest.approx(abs(model.eta(0, 1)) / 1e-2)
    rep = model.reduced_final_state()
    assert rep["probabilities"] == pytest.approx([0.36, 0.64])
    kappa = model.kappa(0, 1)
    assert rep["offDiagonalResidual"] <= 0.6 * 0.8 * min(1.0, 2.0 / kappa) + 1e-15
    # kappa = 2e4 leaves an interference term near 1.5e-5, above the 1e-7
    # mixture tolerance, although the pointer resolves the branches
    assert rep["offDiagonalResidual"] > 1e-7
    assert not rep["offDiagonalResidual"] <= MIXTURE_TOL
    assert rep["pointerResolved"]
    assert rep["signalRatios"] == pytest.approx([kappa])
    # a smaller hbar pushes kappa past 1e8 and the result is a mixture
    sharp = MeasurementModel(
        lambdas=[-1.0, 1.0],
        amplitudes=[0.6, 0.8],
        k_mean=5.0e4,
        tau=2.0e-3,
        hbar=1.0e-6,
    )
    assert sharp.kappa(0, 1) >= 1e8
    assert sharp.reduced_final_state()["offDiagonalResidual"] <= MIXTURE_TOL


def test_model_flags_missing_signal():
    model = MeasurementModel(
        lambdas=[0.0, 1.0],
        amplitudes=[1.0, 1.0],
        k_mean=0.0,
        tau=1.0,
        hbar=1.0,
    )
    rep = model.reduced_final_state()
    assert rep["probabilities"] == pytest.approx([0.5, 0.5])
    assert float(np.sum(rep["probabilities"])) == pytest.approx(1.0)
    assert model.degenerate_signal
    assert not rep["pointerResolved"]
    # kappa vanishes, so the interference survives at full strength
    assert not rep["offDiagonalResidual"] <= MIXTURE_TOL


def test_model_rejects_degenerate_eigenvalues():
    with pytest.raises(MeasurementError):
        MeasurementModel(
            lambdas=[1.0, 1.0], amplitudes=[1.0, 1.0], k_mean=1.0, tau=1.0, hbar=1.0
        )


def test_model_same_branch_interference_is_an_error():
    model = MeasurementModel(
        lambdas=[0.0, 1.0], amplitudes=[1.0, 1.0], k_mean=1.0, tau=1.0, hbar=1.0
    )
    with pytest.raises(MeasurementError):
        model.interference_magnitude(1, 1)


def test_model_eigenstate_input_has_no_interference():
    model = MeasurementModel(
        lambdas=[0.0, 1.0], amplitudes=[1.0, 0.0], k_mean=1.0, tau=1.0, hbar=1.0
    )
    rep = model.reduced_final_state()
    assert rep["probabilities"] == pytest.approx([1.0, 0.0])
    assert rep["offDiagonalResidual"] == 0.0
    assert rep["offDiagonalResidual"] <= MIXTURE_TOL


def test_pointer_observable_classify_and_expectations():
    pointer = PointerObservable(
        {"down": (-3.0, -1.0), "up": (1.0, 3.0)},
        {"down": -1.0, "up": 1.0},
    )
    assert pointer.classify(2.2) == "up"
    assert pointer.classify(0.0) is None
    assert pointer.value(-1.5) == -1.0
    # the value function is constant per branch, so the uniform average over
    # the interval returns the assigned value exactly
    assert pointer.uniform_expectation("up") == pytest.approx(1.0, abs=1e-12)
    assert pointer.uniform_expectation("down") == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(MeasurementError):
        pointer.value(0.0)
    with pytest.raises(MeasurementError):
        PointerObservable(
            {"a": (0.0, 2.0), "b": (1.0, 3.0)}, {"a": 0.0, "b": 1.0}
        )


def test_pointer_observable_rejects_duplicate_values():
    with pytest.raises(MeasurementError):
        PointerObservable(
            {"a": (0.0, 1.0), "b": (2.0, 3.0)}, {"a": 1.0, "b": 1.0}
        )


def test_stern_gerlach_magnitudes():
    out = stern_gerlach()
    assert out["params"]["x3"] - out["params"]["x1"] == pytest.approx(23.0)
    assert out["params"]["z2"] - out["params"]["z1"] == pytest.approx(0.1)
    assert out["tau"] == pytest.approx(4.6e-4, rel=1e-9)
    assert out["eta"] == pytest.approx(4.14e-20, rel=1e-9)
    assert out["ratio"] == pytest.approx(3.7636e7, rel=1e-3)
    # the acceptance windows
    assert 4e-4 <= out["tau"] <= 6e-4
    assert 1e-20 <= abs(out["eta"]) <= 1e-19
    assert 1e7 <= out["ratio"] <= 1e9


def test_matrix_apparatus_exact_shift():
    out = matrix_apparatus_crosscheck()
    assert out["direct"] == pytest.approx([0.36, 0.64, 0.0], abs=1e-10)
    assert out["bracketRoute"] == pytest.approx(out["expected"], abs=1e-8)
    assert np.abs(out["direct"] - out["bracketRoute"]).max() <= 1e-6


def test_hybrid_bracket_routes_agree_at_leading_order():
    rng = np.random.default_rng(20250825)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    fmat = a + a.conj().T
    amat = b + b.conj().T
    k = X * X
    j = P * P
    hbar = 1e-3
    exact = hybrid_interaction_bracket(fmat, amat, k, j, hbar, "star")
    approx = hybrid_interaction_bracket(fmat, amat, k, j, hbar, "classical")
    scale = max(exact[r, s].norm() for r in range(2) for s in range(2))
    gap = max((exact[r, s] - approx[r, s]).norm() for r in range(2) for s in range(2))
    assert gap / scale < 1e-4
    with pytest.raises(MeasurementError):
        hybrid_interaction_bracket(fmat, amat, k, j, hbar, "diagonal")


def test_hybrid_bracket_orders_are_exact():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    fmat = a + a.conj().T
    amat = b + b.conj().T
    k = X * X + P
    j = P * P * X
    orders = hybrid_order_report(fmat, amat, k, j)
    assert orders["residual"] <= 1e-12
    assert orders["orderOneSize"] > 1e-8
    # a commuting pair has no hbar**1 order: nothing beyond the classical
    # limit is left for the row to certify
    assert hybrid_order_report(fmat, fmat, k, j)["orderOneSize"] <= 1e-14
    with pytest.raises(MeasurementError, match="three orders"):
        hybrid_order_report(fmat, amat, j * X, j)


MODEL = dict(lambdas=[0.0, 1.0], amplitudes=[1.0, 1.0], k_mean=1.0, tau=1.0, hbar=1.0)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("hbar", float("nan")),
        ("hbar", float("inf")),
        ("hbar", 0.0),
        ("tau", float("nan")),
        ("tau", -1.0),
        ("k_mean", float("nan")),
        ("k_mean", float("inf")),
        ("lambdas", [0.0, float("nan")]),
        ("amplitudes", [1.0, float("nan")]),
    ],
)
def test_model_rejects_non_finite_or_nonpositive_inputs(field, bad):
    # a NaN would reach max(0.0, nan) = 0.0 and report a mixture
    with pytest.raises(MeasurementError):
        MeasurementModel(**{**MODEL, field: bad})


