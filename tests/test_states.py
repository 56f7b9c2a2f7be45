import numpy as np
import pytest

from nhbounds import (
    DensityOperator,
    StateVector,
    evolve_lindblad,
    jump_count_moments,
    make_dephasing,
    normalize,
    pure_density,
    qsl_mt_open,
    sweep,
    tur_ml,
)
from nhbounds.errors import BadParameter, HermiticityViolation, NormUnderflow, NotPSD
from nhbounds.models import random_commuting


class TestStateVector:
    def test_norm_tracking(self):
        psi = StateVector(np.array([3.0, 4.0]))
        assert psi.norm == pytest.approx(5.0)
        assert not psi.is_normalized()

    def test_zero_state_rejected(self):
        with pytest.raises(NormUnderflow):
            StateVector(np.zeros(2))


class TestNormalize:
    def test_real_axis(self):
        unit, n = normalize(StateVector(np.array([2.0, 0.0])))
        assert n == pytest.approx(2.0)
        assert np.allclose(unit.amplitudes, [1.0, 0.0])

    def test_complex(self):
        unit, n = normalize(StateVector(np.array([1.0, 1.0j])))
        assert n == pytest.approx(np.sqrt(2.0))
        assert np.allclose(unit.amplitudes, np.array([1.0, 1.0j]) / np.sqrt(2.0))

    def test_decayed_closed_form(self):
        amp = np.array([1.0, np.exp(-5.0)]) / np.sqrt(2.0)
        _, n = normalize(StateVector(amp))
        assert n == pytest.approx(np.sqrt((1.0 + np.exp(-10.0)) / 2.0), abs=1e-15)

    def test_idempotent_on_unit(self):
        unit, _ = normalize(StateVector(np.array([0.6, 0.8j])))
        again, n = normalize(unit)
        assert n == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(again.amplitudes, unit.amplitudes)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityViolation):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(BadParameter):
            DensityOperator(np.diag([0.7, 0.7]))


def test_pure_density_matches_outer():
    psi = StateVector(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    rho = pure_density(psi)
    assert np.allclose(rho.matrix, 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]]))


PUBLIC_ENTRIES = {
    "evolve_lindblad": lambda rho: evolve_lindblad(make_dephasing(1.0), rho, 0.5),
    "jump_count_moments": lambda rho: jump_count_moments(make_dephasing(1.0), rho, 0.5),
    "qsl_mt_open": lambda rho: qsl_mt_open(make_dephasing(1.0), rho, 0.5),
    "sweep": lambda rho: sweep(make_dephasing(1.0), rho, [0.5], ["ml-open", "mt-open"]),
    "tur_ml": lambda rho: tur_ml(random_commuting(2, 1), rho, 0.5, np.diag([0.0, 1.0])),
}


@pytest.mark.parametrize("entry", sorted(PUBLIC_ENTRIES))
@pytest.mark.parametrize("raw, error", [
    (np.array([[0.5, 0.5], [0.0, 0.5]]), HermiticityViolation),
    (np.diag([1.5, -0.5]), NotPSD),
    (np.diag([0.7, 0.7]), BadParameter),
], ids=["non-hermitian", "negative", "bad-trace"])
def test_raw_state_validated_at_public_entry(entry, raw, error):
    """A raw density matrix given to a public function is checked as a
    DensityOperator on the way in."""
    with pytest.raises(error):
        PUBLIC_ENTRIES[entry](raw)
