import hashlib
import math

import numpy as np
import pytest

from nhbounds import (
    BadParameter,
    LindbladModel,
    ShapeError,
    StateVector,
    evolve_lindblad,
    fid_mt_open,
    make_dephasing,
    make_refrigerator,
    pure_density,
    random_density,
    sample_trajectory,
    trajectory_ensemble,
)
from nhbounds import linalg, propagation
from nhbounds.propagation import (
    _initial_rows,
    _lift_propagators,
    _philox4x32,
    _uniform_pairs,
    _unravel,
)
from conftest import SX, SZ


PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
REFRIGERATOR = make_refrigerator(1.0, 1.0, 1.0, 1.0, 1.05, 0.9)
# (model, initial state): pure dephasing, mixed dephasing, and the
# three-channel refrigerator from a mixed state
STREAM_CASES = [
    (make_dephasing(1.0), PLUS),
    (make_dephasing(1.0), random_density(2, 20)),
    (REFRIGERATOR, random_density(3, 22)),
]


def chunk_events(model, state0, tau, n, seed):
    """Jump records of trajectories 0..n-1 run as one chunk of the ensemble kernel."""
    nodes = np.array([0.0, tau])
    traj = np.arange(n, dtype=np.uint64)
    events = [[] for _ in range(n)]
    _unravel(model, _initial_rows(model, state0)(seed, traj), seed, traj, nodes,
             _lift_propagators(model, nodes), lambda _j, _psi: None, events)
    return events


class TestPhilox:
    # Random123 kat_vectors: counter words, key words -> output words
    @pytest.mark.parametrize(
        "ctr, key, out",
        [
            ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
            ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
            (
                (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
                (0xA4093822, 0x299F31D0),
                (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
            ),
        ],
    )
    def test_known_answers(self, ctr, key, out):
        assert tuple(int(w) for w in _philox4x32(ctr, key)) == out

    def test_uniform_moments(self):
        n = 1_000_000
        u = _uniform_pairs(2**64 - 1, np.arange(n // 2), 3).ravel()
        assert u.size == n
        assert 0.0 <= u.min() and u.max() < 1.0
        # U(0,1): mean 1/2 with variance 1/(12 n); variance 1/12 with
        # variance (1/80 - 1/144)/n = 1/(180 n)
        assert abs(u.mean() - 0.5) <= 5.0 * math.sqrt(1.0 / (12.0 * n))
        assert abs(u.var() - 1.0 / 12.0) <= 5.0 * math.sqrt(1.0 / (180.0 * n))

    def test_draws_are_functions_of_seed_trajectory_and_block(self):
        traj = np.arange(6)
        a = _uniform_pairs(9, traj, 2)
        assert np.array_equal(a[3:], _uniform_pairs(9, traj[3:], 2))
        assert np.array_equal(a, _uniform_pairs(9, traj, np.full(6, 2)))
        for other in (_uniform_pairs(10, traj, 2), _uniform_pairs(9, traj, 3)):
            assert not np.any(a == other)


def test_lift_stack_equals_per_step_exponentials():
    # one expm call over every interval and level gives what one call per
    # step gives, bit for bit
    nodes = np.array([0.0, 0.3, 0.45, 2.0])
    heff = REFRIGERATOR.effective_hamiltonian()
    lifts = _lift_propagators(REFRIGERATOR, nodes)
    assert lifts.shape == (3, 41, 3, 3)
    for j, dt in enumerate(np.diff(nodes)):
        for k in range(41):
            assert np.array_equal(lifts[j, k], linalg.expm(-1j * math.ldexp(dt, -k) * heff).T)


class TestSampleTrajectory:
    def test_no_jumps_without_channels(self):
        model = LindbladModel(SZ, ())
        traj = sample_trajectory(model, StateVector(np.array([0.6, 0.8])), 1.0, seed=1)
        assert traj.jump_count == 0
        assert traj.jump_times == []

    def test_deterministic_unitary_path_is_exact(self):
        # the no-jump branch is propagated with exp(-i H_eff t) itself
        model = LindbladModel(SZ, ())
        psi0 = StateVector(np.array([0.6, 0.8]))
        traj = sample_trajectory(model, psi0, 1.0, seed=2)
        exact = linalg.expm(-1j * SZ) @ psi0.amplitudes
        overlap = abs(np.vdot(exact, traj.final_state.amplitudes))
        assert overlap >= 1.0 - 1e-10

    def test_reproducible_for_fixed_seed(self):
        model = make_dephasing(1.0)
        a = sample_trajectory(model, PLUS, 2.0, seed=7, traj_index=3)
        b = sample_trajectory(model, PLUS, 2.0, seed=7, traj_index=3)
        assert a.jump_times == b.jump_times
        assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
        c = sample_trajectory(model, PLUS, 2.0, seed=8, traj_index=3)
        assert a.jump_times != c.jump_times or not np.array_equal(
            a.final_state.amplitudes, c.final_state.amplitudes
        )

    def test_jump_times_strictly_increasing_in_range(self):
        model = make_dephasing(2.0)
        traj = sample_trajectory(model, PLUS, 3.0, seed=11)
        times = [t for t, _ in traj.jump_times]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(0.0 < t <= 3.0 + 1e-12 for t in times)

    def test_sampled_states_are_normalized(self):
        model = make_dephasing(1.0)
        traj = sample_trajectory(
            model, PLUS, 1.0, seed=3, sample_times=[0.0, 0.5, 1.0]
        )
        assert len(traj.sampled_states) == 3
        for _t, state in traj.sampled_states:
            assert abs(state.norm - 1.0) <= 1e-10

    @pytest.mark.parametrize("key", ["seed", "traj_index"])
    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_key_outside_64_bits_rejected(self, key, value):
        args = {"seed": 0, "traj_index": 0, key: value}
        with pytest.raises(BadParameter):
            sample_trajectory(make_dephasing(1.0), PLUS, 1.0, **args)

    def test_sample_times_are_exact(self):
        model = make_dephasing(1.0)
        times = [0.7, 0.0, 1.0 / 3.0, 0.7]
        traj = sample_trajectory(model, PLUS, 1.0, seed=3, sample_times=times)
        assert [t for t, _state in traj.sampled_states] == times
        assert np.allclose(traj.sampled_states[1][1].amplitudes, PLUS.amplitudes, rtol=0, atol=1e-15)
        with pytest.raises(BadParameter):
            sample_trajectory(model, PLUS, 1.0, seed=3, sample_times=[1.5])


class TestTrajectoryEnsemble:
    def test_matches_single_trajectory_streams(self):
        for model, state0 in STREAM_CASES:
            ens = trajectory_ensemble(model, state0, 1.0, 8, seed=5)
            events = chunk_events(model, state0, 1.0, 8, seed=5)
            for i in range(8):
                single = sample_trajectory(model, state0, 1.0, seed=5, traj_index=i)
                assert ens.jump_counts[i] == single.jump_count
                assert events[i] == single.jump_times
            assert ens.jump_counts.sum() > 0

    def test_sampled_records_are_pinned(self):
        # both sides of the stream test above run the same kernel, so a
        # kernel change that moves any jump would go unseen there; this
        # digest pins the jump counts and (time, channel) records over one
        # and over several sample intervals and of a 10,000-run ensemble
        h = hashlib.sha256()
        for model, state0 in STREAM_CASES:
            h.update(trajectory_ensemble(model, state0, 1.0, 64, seed=5).jump_counts.tobytes())
            for i in range(8):
                single = sample_trajectory(model, state0, 1.0, seed=5, traj_index=i)
                h.update(repr(single.jump_times).encode())
        model, state0 = STREAM_CASES[2]
        times = [0.3, 0.7, 1.0]
        ens = trajectory_ensemble(model, state0, 1.0, 64, seed=6, sample_times=times)
        h.update(ens.jump_counts.tobytes())
        single = sample_trajectory(model, state0, 1.0, seed=6, traj_index=3, sample_times=times)
        h.update(repr(single.jump_times).encode())
        ens = trajectory_ensemble(make_dephasing(1.0), PLUS, 1.0, 10_000, seed=7)
        h.update(ens.jump_counts.tobytes())
        assert h.hexdigest() == "157b86ddc2c0161b0aee450fdbd8c5de6d84b878df18080ef611efe1212f3bc9"

    def test_deterministic_across_runs(self):
        model = make_dephasing(1.0)
        a = trajectory_ensemble(model, PLUS, 1.0, 64, seed=9)
        b = trajectory_ensemble(model, PLUS, 1.0, 64, seed=9)
        assert np.array_equal(a.jump_counts, b.jump_counts)
        assert np.array_equal(a.mean_states[0], b.mean_states[0])

    def test_chunking_does_not_change_results(self, monkeypatch):
        # every sum runs over the trajectories in index order, so the mean
        # states and standard errors are equal bit for bit, not just to round-off
        for model, state0 in STREAM_CASES:
            monkeypatch.setattr(propagation, "_CHUNK", 7)
            a = trajectory_ensemble(model, state0, 0.5, 50, seed=10, sample_times=[0.2, 0.5])
            monkeypatch.setattr(propagation, "_CHUNK", 50)
            b = trajectory_ensemble(model, state0, 0.5, 50, seed=10, sample_times=[0.2, 0.5])
            assert np.array_equal(a.jump_counts, b.jump_counts)
            for k in range(2):
                assert np.array_equal(a.mean_states[k], b.mean_states[k])
                assert np.array_equal(a.stderr_real[k], b.stderr_real[k])
                assert np.array_equal(a.stderr_imag[k], b.stderr_imag[k])

    def test_dephasing_jump_rate(self):
        # <L^dag L> = gamma for every state, so the mean count is gamma*tau
        gamma, tau, n = 1.0, 1.0, 100_000
        ens = trajectory_ensemble(make_dephasing(gamma), PLUS, tau, n, seed=12)
        se = ens.jump_count_stderr()
        assert abs(ens.mean_jump_count() - gamma * tau) <= 3.0 * se

    def test_mean_state_matches_lindblad(self):
        model = make_dephasing(1.0)
        tau, n = 1.0, 4000
        ens = trajectory_ensemble(model, PLUS, tau, n, seed=13, sample_times=[0.5, tau])
        for k, t in enumerate([0.5, tau]):
            exact = evolve_lindblad(model, pure_density(PLUS), t)
            dev_re = np.abs(ens.mean_states[k].real - exact.real)
            dev_im = np.abs(ens.mean_states[k].imag - exact.imag)
            assert np.all(dev_re <= 5.0 * ens.stderr_real[k])
            assert np.all(dev_im <= 5.0 * ens.stderr_imag[k])

    def test_mixed_initial_state(self):
        model = make_dephasing(1.0)
        rho0 = random_density(2, 20)
        tau, n = 0.8, 4000
        ens = trajectory_ensemble(model, rho0, tau, n, seed=14)
        exact = evolve_lindblad(model, rho0, tau)
        dev = np.abs(ens.mean_states[0] - exact)
        se = np.sqrt(ens.stderr_real[0] ** 2 + ens.stderr_imag[0] ** 2)
        assert np.all(dev <= 5.0 * se)

    def test_sample_times_are_exact_nodes(self):
        model = make_dephasing(1.0)
        times = [0.1 * math.pi, 1.0 / 3.0, 0.0, 0.9]
        ens = trajectory_ensemble(model, PLUS, 0.9, 16, seed=4, sample_times=times)
        assert ens.times.tolist() == times
        assert ens.n_steps == 3
        assert np.allclose(ens.mean_states[2], pure_density(PLUS).matrix, rtol=0, atol=1e-15)
        with pytest.raises(BadParameter):
            trajectory_ensemble(model, PLUS, 0.9, 4, seed=4, sample_times=[-0.1])

    def test_state_dimension_checked(self):
        three = StateVector(np.ones(3) / np.sqrt(3.0))
        with pytest.raises(ShapeError):
            trajectory_ensemble(make_dephasing(1.0), three, 0.5, 4, seed=1)

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_zero_jump_fraction_is_survival_weight(self, tau):
        # driven amplitude damping plus dephasing: P(no jump in [0, tau]) is
        # the trace of the no-jump branch
        ls = (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 0.5 * SZ)
        model = LindbladModel(0.8 * SX, ls)
        n = 20_000
        ens = trajectory_ensemble(model, PLUS, tau, n, seed=31)
        frac = float(np.mean(ens.jump_counts == 0))
        weight = fid_mt_open(model, PLUS, tau).params["survival_weight"]
        se = math.sqrt(weight * (1.0 - weight) / n)
        assert abs(frac - weight) <= 5.0 * se

    def test_two_channel_model_channels_recorded(self):
        # amplitude damping plus dephasing: both channels must fire
        ls = (
            np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
            0.7 * SZ,
        )
        model = LindbladModel(np.zeros((2, 2), dtype=complex), ls)
        channels = set()
        for i in range(40):
            traj = sample_trajectory(model, PLUS, 2.0, seed=21, traj_index=i)
            channels.update(ch for _t, ch in traj.jump_times)
        assert channels == {0, 1}
