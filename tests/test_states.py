import unittest

import numpy as np

from ncsym.algebra import grassmann_algebra, matrix_algebra
from ncsym.calculus import AlgebraIsomorphism
from ncsym.states import (
    STATE_GATE,
    PObVM,
    StateError,
    cc_check,
    gns,
    make_state,
    tracial_state,
    vector_state,
)

M2 = matrix_algebra(2)
M3 = matrix_algebra(3)
M11 = matrix_algebra(2, grading=(1, 1))
G2 = grassmann_algebra(2)

KET0 = np.array([1.0, 0.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


class StateBasicsTest(unittest.TestCase):
    def test_density_state_expectations(self):
        rho = np.diag([0.7, 0.3])
        phi = make_state(M2, "densityMatrix", rho)
        sz = M2.element([1, 0, 0, -1])
        self.assertAlmostEqual(phi.expectation(sz).real, 0.4, places=12)
        self.assertAlmostEqual(phi.expectation(M2.unit).real, 1.0, places=12)
        # phi(E_ab) = Tr(rho E_ab) = rho[b, a]
        back = phi.functional.reshape(2, 2).T
        self.assertLess(np.abs(back - rho).max(), 1e-12)

    def test_negative_density_rejected(self):
        with self.assertRaises(StateError):
            make_state(M2, "densityMatrix", np.diag([1.5, -0.5]))

    def test_unnormalized_rejected(self):
        with self.assertRaises(StateError):
            make_state(M2, "densityMatrix", np.diag([0.7, 0.7]))

    def test_nonpositive_functional_rejected(self):
        # phi(A) = Tr(diag(1.5, -0.5) A) is normalized and hermitian but
        # fails positivity; the Gram check must produce a witness
        f = np.array([1.5, 0, 0, -0.5], dtype=complex)
        with self.assertRaisesRegex(StateError, "not positive"):
            make_state(M2, "functional", f)

    def test_odd_support_rejected(self):
        f = np.array([1.0, 0.2, 0.2, 0.0], dtype=complex)
        with self.assertRaisesRegex(StateError, "odd"):
            make_state(M11, "functional", f)


class BerezinStateTest(unittest.TestCase):
    def test_g2_density(self):
        # rho = theta2 theta1 integrates to one and kills everything else
        rho = G2.element([0, 0, 0, -1.0])
        phi = make_state(G2, "berezinDensity", rho)
        self.assertAlmostEqual(phi.expectation(G2.unit).real, 1.0, places=12)
        self.assertAlmostEqual(abs(phi.expectation(G2.basis_element(3))), 0.0)

    def test_g2_gns_is_one_dimensional(self):
        rho = G2.element([0, 0, 0, -1.0])
        phi = make_state(G2, "berezinDensity", rho)
        res = gns(G2, phi)
        self.assertEqual(res.dimension, 1)
        self.assertEqual(res.null_space_dimension, 3)
        self.assertTrue(res.irreducible)

    def test_unnormalized_density_rejected(self):
        with self.assertRaises(StateError):
            make_state(G2, "berezinDensity", G2.element([0, 0, 0, 1.0]))


class TransformTest(unittest.TestCase):
    def test_isomorphism_transport(self):
        # the transpose of an isomorphism Phi carries a state to the state
        # A -> phi(Phi(A))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        iso = AlgebraIsomorphism.unitary_conjugation(M2, h)
        phi = vector_state(M2, KET0)
        moved = make_state(M2, "functional", iso.matrix.T @ phi.functional)
        sx = M2.element([0, 1, 1, 0])
        self.assertAlmostEqual(moved.expectation(sx).real, 1.0, places=12)
        # phi(E_ab) = Tr(rho E_ab) = rho[b, a]
        rho = moved.functional.reshape(2, 2).T
        self.assertLess(np.abs(rho - np.full((2, 2), 0.5)).max(), 1e-12)


class PObVMTest(unittest.TestCase):
    def setUp(self):
        eye = M2.unit
        sz = M2.element([1, 0, 0, -1])
        self.measure = PObVM(M2, {"up": 0.5 * (eye + sz), "down": 0.5 * (eye - sz)})

    def test_probabilities(self):
        phi = vector_state(M2, PLUS)
        self.assertAlmostEqual(self.measure.probability(phi, "up"), 0.5, places=12)
        self.assertAlmostEqual(self.measure.probability(phi, "down"), 0.5, places=12)
        self.assertAlmostEqual(
            self.measure.probability(phi, ["up", "down"]), 1.0, places=12
        )

    def test_incomplete_effects_rejected(self):
        sz = M2.element([1, 0, 0, -1])
        with self.assertRaisesRegex(StateError, "resolve"):
            PObVM(M2, {"up": 0.5 * (M2.unit + sz)})

    def test_negative_effects_are_gated_at_the_state_gate(self):
        # diag(low, 0.5) and its complement diag(1 - low, 0.5) resolve the
        # unit; low = -2e-9 lies below -STATE_GATE, -5e-10 within it
        self.assertEqual(STATE_GATE, 1e-9)
        for low in (-2e-9, -5e-10):
            e = M2.element([low, 0, 0, 0.5])
            effects = {"low": e, "rest": M2.unit - e}
            if low < -STATE_GATE:
                with self.assertRaisesRegex(StateError, "'low' has negative part -2.000e-09"):
                    PObVM(M2, effects)
            else:
                self.assertEqual(set(PObVM(M2, effects).effects), {"low", "rest"})


class SeparationTest(unittest.TestCase):
    def test_single_state_fails_to_separate(self):
        # one state cannot tell two observables with equal expectation apart
        rho = G2.element([0, 0, 0, -1.0])
        phi = make_state(G2, "berezinDensity", rho)
        a = G2.unit + G2.basis_element(3)
        b = G2.unit + 2.0 * G2.basis_element(3)
        out = cc_check([a, b], [phi])
        self.assertFalse(out["verdict"])
        self.assertEqual(out["clause"], "statesSeparateObservables")
        self.assertEqual(out["witness"], {"observables": [0, 1]})

    def test_observables_must_separate_states(self):
        # the unit has expectation 1 in every state; sigma_z tells |0> and
        # |+> apart
        states = [vector_state(M2, KET0), vector_state(M2, PLUS)]
        out = cc_check([M2.unit], states)
        self.assertFalse(out["verdict"])
        self.assertEqual(out["clause"], "observablesSeparateStates")
        self.assertEqual(out["witness"], {"states": [0, 1]})
        sz = M2.element([1, 0, 0, -1])
        self.assertTrue(cc_check([M2.unit, sz], states)["verdict"])


class GnsTest(unittest.TestCase):
    def test_vector_state_gives_defining_rep(self):
        for alg, n in ((M2, 2), (M3, 3)):
            psi = np.zeros(n)
            psi[0] = 1.0
            res = gns(alg, vector_state(alg, psi))
            self.assertEqual(res.dimension, n)
            self.assertEqual(res.null_space_dimension, n * (n - 1))
            self.assertTrue(res.irreducible)
            self.assertEqual(res.commutant_dimension, 1)
            self.assertLess(res.reproduction_residual, 1e-10)
            self.assertLess(res.homomorphism_residual, 1e-10)
            self.assertLess(res.star_residual, 1e-10)

    def test_tracial_state_gives_square_rep(self):
        res = gns(M2, tracial_state(M2))
        self.assertEqual(res.dimension, 4)
        self.assertEqual(res.null_space_dimension, 0)
        self.assertFalse(res.irreducible)
        self.assertEqual(res.commutant_dimension, 4)
        self.assertLess(res.reproduction_residual, 1e-10)

    def test_cyclic_vector_norm(self):
        res = gns(M2, vector_state(M2, KET0))
        self.assertAlmostEqual(np.linalg.norm(res.cyclic_vector), 1.0, places=12)


if __name__ == "__main__":
    unittest.main()
