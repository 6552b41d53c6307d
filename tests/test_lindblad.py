import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analytic_model import gamma_m, gamma_m_phi, gamma_m_plus_1
from dense_model import (
    displacement,
    ladder,
    liouvillian,
    number_operator,
    strang_states,
    window_channel,
)
from fockscan.drive import mean_displacement
from fockscan.errors import (
    DimensionCeilingExceeded,
    FidelityUnreachable,
    InvalidArgument,
    StabilityGuard,
    TruncationLeak,
)
from fockscan.fock import HilbertSpace, number_state
from fockscan.gates import (
    BeamsplitterSpec,
    apply_plan,
    apply_plan_rho,
    linear_plan,
    make_plan,
    single_photon_matrix,
)
from fockscan import lindblad
from fockscan.lindblad import (
    NoiseModel,
    _mean_pair_rates,
    calibrate_bs_multiplier,
    effective_lossy_window,
    effective_noise_model,
    effective_propagate_cycle,
    lossy_ed_apply,
    propagate_cycle,
    swap_fidelity,
    transformed_rates,
)
from fockscan.tensorops import apply_left, apply_right_dag

TAU_DM = 1e6 / (2 * math.pi * 7e9)
G_DRIVE = 73.6
GAMMA_DOWN = 1.0 / 2.27e-3
GAMMA_PHI = GAMMA_DOWN / 10.0
N_TH = 1.2093e-3
GAMMA_UP = GAMMA_DOWN * N_TH / (1 + N_TH)
G_BS = 2 * math.pi * 1e6


def reference_noise(n):
    return NoiseModel.uniform(n, GAMMA_UP, GAMMA_DOWN, GAMMA_PHI)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            NoiseModel((1.0,), (-1.0,), (0.0,))
        with pytest.raises(InvalidArgument):
            NoiseModel((1.0, 1.0), (1.0,), (0.0,))

    def test_helpers(self):
        nm = NoiseModel.uniform(3, 1.0, 2.0, 3.0)
        assert nm.heating_off().gamma_up == (0.0, 0.0, 0.0)
        el = nm.elevated(10.0, (1,))
        assert el.gamma_down == (2.0, 20.0, 2.0)
        assert el.gamma_up == (1.0, 1.0, 1.0)


class TestTransformedRates:
    def test_equal_rates_average(self):
        rates = transformed_rates(2, reference_noise(2), 1)
        assert rates.bar_gamma_up_1 == pytest.approx(GAMMA_UP)
        assert gamma_m_plus_1(rates) == pytest.approx(2 * GAMMA_UP)

    def test_single_cavity_has_no_dephasing_swap(self):
        rates = transformed_rates(1, reference_noise(1), 3)
        assert gamma_m_phi(rates) == 0.0

    def test_m_zero_structure(self):
        rates = transformed_rates(2, reference_noise(2), 0)
        assert gamma_m(rates) == 0.0
        assert gamma_m_plus_1(rates) == pytest.approx(rates.bar_gamma_up_1)

    def test_unequal_rates(self):
        nm = NoiseModel((0.4, 0.8), (1.0, 3.0), (0.1, 0.3))
        rates = transformed_rates(2, nm, 2)
        assert rates.bar_gamma_up_1 == pytest.approx(0.6)
        assert gamma_m(rates) == pytest.approx(2 * 2.0)
        assert gamma_m_phi(rates) == pytest.approx(2 * 0.5 * 0.2)

    def test_uniform_rates_identical_for_any_count(self):
        fields = {
            (r.bar_gamma_up_1, r.bar_gamma_down, r.bar_gamma_phi)
            for r in (transformed_rates(n, reference_noise(n), 1) for n in (1, 2, 4, 8))
        }
        assert fields == {(GAMMA_UP, GAMMA_DOWN, GAMMA_PHI)}


def projector(psi):
    return np.outer(psi, psi.conj())


def one_step(space, rho, noise, dt):
    """One drive-free discretised Lindblad step: a one-step background run from rho."""
    return propagate_cycle(space, 0, noise, 0.0, TAU_DM, dt, "background", dt=dt,
                           rho0=rho).final_state


def exact_channel(space, rho, noise, dt):
    """exp(dt L) rho with the dense Liouvillian L, exponentiated by scipy."""
    from scipy.linalg import expm

    return (expm(dt * liouvillian(space, noise)) @ rho.ravel()).reshape(rho.shape)


class TestOneBackgroundStep:
    def test_pure_decay_first_order(self):
        sp = HilbertSpace(1, 3)
        rho = projector(number_state(sp, [1]))
        dt = 1e-6
        noise = NoiseModel.uniform(1, 0.0, GAMMA_DOWN, 0.0)
        out = one_step(sp, rho, noise, dt)
        assert out[1, 1].real == pytest.approx(math.exp(-GAMMA_DOWN * dt), rel=1e-12)
        assert out[0, 0].real == pytest.approx(-math.expm1(-GAMMA_DOWN * dt), rel=1e-12)

    def test_heating_from_vacuum(self):
        sp = HilbertSpace(1, 3)
        rho = projector(number_state(sp, [0]))
        dt = 1e-6
        noise = NoiseModel.uniform(1, GAMMA_UP, 0.0, 0.0)
        out = one_step(sp, rho, noise, dt)
        assert out[1, 1].real == pytest.approx(exact_channel(sp, rho, noise, dt)[1, 1].real,
                                               rel=1e-12)

    def test_dephasing_preserves_trace_and_hermiticity(self):
        sp = HilbertSpace(2, 3)
        psi = number_state(sp, [1, 0]) + number_state(sp, [0, 1])
        psi /= np.linalg.norm(psi)
        out = one_step(sp, projector(psi), NoiseModel.uniform(2, 0.0, 0.0, 50.0), 1e-5)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_stability_guard(self):
        sp = HilbertSpace(1, 4)
        rho = projector(number_state(sp, [0]))
        with pytest.raises(StabilityGuard):
            one_step(sp, rho, NoiseModel.uniform(1, 0.0, 1e4, 0.0), 1e-4)


RATES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@st.composite
def dissipator_cases(draw):
    n = draw(st.integers(1, 3))
    cutoff = draw(st.integers(2, 5))
    noise = NoiseModel(*(draw(st.lists(RATES, min_size=n, max_size=n)) for _ in range(3)))
    return HilbertSpace(n, cutoff), noise


class TestDissipator:
    @settings(max_examples=60, deadline=None)
    @given(dissipator_cases())
    def test_one_mode_generator_matches_dense_liouvillian(self, case):
        space, noise = case
        c = space.cutoff
        for rates in lindblad._mode_rates(noise, space):
            want = liouvillian(HilbertSpace(1, c), NoiseModel(*((r,) for r in rates)))
            got = lindblad._generator(c, rates)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @settings(max_examples=60, deadline=None)
    @given(dissipator_cases())
    def test_total_rate_is_the_largest_decay_over_the_product_basis(self, case):
        # the diagonal of sum_A A^dag A over all modes' channels, dense
        space, noise = case
        decay = np.zeros(space.dim)
        for mode in range(space.n_modes):
            for rate, op in ((noise.gamma_up[mode], ladder(space, mode, raising=True)),
                             (noise.gamma_down[mode], ladder(space, mode)),
                             (noise.gamma_phi[mode], number_operator(space, mode))):
                decay += rate * np.diag(op.conj().T @ op).real
        want = decay.max()
        assert abs(lindblad._total_rate(noise, space.cutoff) - want) <= 1e-12 * max(want, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    def test_kron_helper_matches_numpy_bytes(self, n, k, seed):
        # complex against complex and against the real identity, as _generator pairs them
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(k, k)) - 1j * rng.normal(size=(k, k))
        a[0, 0] = b[-1, 0] = 0.0
        for left, right in ((a, b), (a, b.conj()), (a, np.eye(k)), (np.eye(n), b.T)):
            assert lindblad._kron(left, right).tobytes() == np.kron(left, right).tobytes()


class TestHermitianCoordinates:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, n, cutoff, seed):
        space = HilbertSpace(n, cutoff)
        rho = random_hermitian(np.random.default_rng(seed), space.dim)
        coords = lindblad._coordinates(rho, space)
        assert coords.dtype == float and coords.shape == (cutoff * cutoff,) * n
        back = lindblad._operator(coords, space)
        assert np.abs(back - rho).max() <= 1e-15 * np.abs(rho).max()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.tuples(RATES, RATES, RATES), st.booleans())
    def test_generator_real_form_drops_only_rounding(self, cutoff, rates, eigen):
        gen = lindblad._generator(cutoff, rates, eigen)
        herm = lindblad._hermitian_basis(cutoff)
        full = herm.conj().T @ gen @ herm
        assert np.abs(full.imag).max() <= 1e-14 * np.abs(gen).max()
        assert np.array_equal(lindblad._real_form(gen), full.real)

    @pytest.mark.parametrize("cutoff", range(2, 10))
    def test_eigen_rotation_is_orthogonal(self, cutoff):
        rot = lindblad._eigen_rotation(cutoff)
        assert rot.dtype == float
        assert np.abs(rot @ rot.T - np.eye(cutoff * cutoff)).max() <= 1e-14
        # it takes the coordinates of Q^dag X Q to those of X
        q = lindblad._displacement_eigensystem(cutoff)[1]
        one = HilbertSpace(1, cutoff)
        x = random_hermitian(np.random.default_rng(cutoff), cutoff)
        want = lindblad._coordinates(x, one)
        got = rot @ lindblad._coordinates(q.conj().T @ x @ q, one)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestPropagateCycle:
    def test_frozen_when_no_drive_no_noise(self):
        sp = HilbertSpace(2, 4)
        noise = NoiseModel.uniform(2, 0.0, 0.0, 0.0)
        dt = TAU_DM / 100
        res = propagate_cycle(sp, 1, noise, 0.0, TAU_DM, 2 * TAU_DM, "signal",
                              ed=linear_plan(2), dt=dt, record_times=np.arange(1, 200) * dt)
        assert np.allclose(res.population, res.population[0], atol=1e-12)
        assert res.trace_defect.max() < 1e-12

    def test_lossless_single_cavity_matches_closed_form(self):
        sp = HilbertSpace(1, 4)
        noise = NoiseModel.uniform(1, 0.0, 0.0, 0.0)
        res = propagate_cycle(sp, 0, noise, G_DRIVE, TAU_DM, 5 * TAU_DM, "signal",
                              ed=linear_plan(1), dt=TAU_DM / 200)
        expected = mean_displacement(G_DRIVE, TAU_DM, res.times[-1]) ** 2
        assert res.population[-1] == pytest.approx(expected, rel=5e-3)

    def test_two_cavity_doubles_signal(self):
        noise1 = NoiseModel.uniform(1, 0.0, 0.0, 0.0)
        noise2 = NoiseModel.uniform(2, 0.0, 0.0, 0.0)
        r1 = propagate_cycle(HilbertSpace(1, 4), 0, noise1, G_DRIVE, TAU_DM, 5 * TAU_DM,
                             "signal", ed=linear_plan(1), dt=TAU_DM / 200)
        r2 = propagate_cycle(HilbertSpace(2, 4), 0, noise2, G_DRIVE, TAU_DM, 5 * TAU_DM,
                             "signal", ed=linear_plan(2), dt=TAU_DM / 200)
        assert r2.population[-1] / r1.population[-1] == pytest.approx(2.0, rel=5e-3)

    def test_background_initial_growth_rate(self):
        # n_b ~ (m+1) bar_gamma_up t at early times (linear fit within 1%)
        m = 5
        sp = HilbertSpace(2, m + 4)
        dt = TAU_DM / 400
        res = propagate_cycle(sp, m, reference_noise(2), 0.0, TAU_DM, 0.15 * TAU_DM,
                              "background", ed=linear_plan(2), dt=dt,
                              record_times=np.arange(1, 60) * dt)
        slope = np.polyfit(res.times[1:], res.population[1:], 1)[0]
        assert slope == pytest.approx((m + 1) * GAMMA_UP, rel=1e-2)

    def test_trace_and_leak_budgets_over_full_cycle(self):
        sp = HilbertSpace(2, 9)
        res = propagate_cycle(sp, 5, reference_noise(2), G_DRIVE, TAU_DM, 20 * TAU_DM,
                              "signal", ed=make_plan("binary", 2),
                              record_times=np.arange(1, 800) * (20 * TAU_DM / 800))
        assert res.trace_defect.max() < 1e-6
        assert res.leakage.max() < 1e-6

    def test_truncation_leak_raises(self):
        sp = HilbertSpace(1, 3)
        noise = NoiseModel.uniform(1, 0.0, 0.0, 0.0)
        dt = TAU_DM / 200
        with pytest.raises(TruncationLeak):
            propagate_cycle(sp, 0, noise, 5e4, TAU_DM, 10 * TAU_DM, "signal",
                            ed=linear_plan(1), dt=dt, record_times=np.arange(2, 2000, 2) * dt)

    def test_populate_mode_validation(self):
        sp = HilbertSpace(1, 4)
        with pytest.raises(InvalidArgument):
            propagate_cycle(sp, 0, reference_noise(1), 0.0, TAU_DM, TAU_DM, "both")

    def test_noise_length_must_match_the_modes(self):
        sp = HilbertSpace(2, 3)
        rho = projector(number_state(sp, [1, 0]))
        for n in (1, 3):
            with pytest.raises(InvalidArgument):
                propagate_cycle(sp, 0, reference_noise(n), G_DRIVE, TAU_DM, TAU_DM, "signal")
            with pytest.raises(InvalidArgument):
                lossy_ed_apply(rho, sp, linear_plan(2), 0.99, G_BS, reference_noise(n),
                               multiplier=10.0)


def stepping_loop(space, rho, drive_amp, g, tau_dm, n_steps, dt, record_steps):
    """The stepping loop with every rate zero: per-step displacements, then symmetrisation.

    Returns {step: state} at step 0 and at every record step.
    """
    states = {0: rho}
    amp_prev = mean_displacement(g, tau_dm, 0.0)
    for step in range(1, n_steps + 1):
        amp_next = mean_displacement(g, tau_dm, step * dt)
        d_alpha = drive_amp * (amp_next - amp_prev)
        amp_prev = amp_next
        if d_alpha != 0.0:
            d1 = displacement(HilbertSpace(1, space.cutoff), 0, d_alpha)
            for mode in range(space.n_modes):
                rho = apply_left(d1, rho, (mode,), space)
                rho = apply_right_dag(d1, rho, (mode,), space)
        rho = 0.5 * (rho + rho.conj().T)
        if step in record_steps:
            states[step] = rho
    return states


@st.composite
def drive_only_cases(draw):
    # drive_amp sqrt(8) is the effective backend of eight cavities, on one mode
    drive_amp = draw(st.sampled_from([1.0, math.sqrt(8.0)]))
    n = draw(st.integers(1, 2)) if drive_amp == 1.0 else 1
    cutoff = draw(st.integers(3, 6))
    n_steps = draw(st.integers(1, 600))
    every = draw(st.one_of(st.none(), st.integers(1, 200)))
    steps = set(range(every, n_steps, every)) if every is not None else set(
        draw(st.lists(st.integers(1, n_steps), min_size=0, max_size=40)))
    g = draw(st.floats(1.0, 5e3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return HilbertSpace(n, cutoff), drive_amp, n_steps, steps, g, seed


class TestDriveOnlyRuns:
    @settings(max_examples=40, deadline=None)
    @given(drive_only_cases())
    def test_matches_stepping_loop(self, case):
        space, drive_amp, n_steps, steps, g, seed = case
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        readout = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        dt = TAU_DM / 200
        run = dict(dt=dt, rho0=rho0, readout=readout, leak_tol=math.inf,
                   record_times=[s * dt for s in steps])
        if drive_amp == 1.0:
            noise = NoiseModel.uniform(space.n_modes, 0.0, 0.0, 0.0)
            res = propagate_cycle(space, 0, noise, g, TAU_DM, n_steps * dt, "signal", **run)
        else:
            rates = transformed_rates(8, NoiseModel.uniform(8, 0.0, 0.0, 0.0), 0)
            res = effective_propagate_cycle(8, 0, rates, g, TAU_DM, n_steps * dt, "signal",
                                            cutoff=space.cutoff, **run)
        rho, times, pops, traces, leaks = (res.final_state, res.times, res.population,
                                           res.trace_defect, res.leakage)
        assert res.n_steps == n_steps
        wanted = steps | {n_steps}
        oracle = stepping_loop(space, rho0, drive_amp, g, TAU_DM, n_steps, dt, wanted)
        assert list(times) == [s * dt for s in sorted(oracle)]
        for k, step in enumerate(sorted(oracle)):
            want = oracle[step]
            pop = float(np.real(np.vdot(readout, want @ readout)))
            assert abs(pops[k] - pop) <= 1e-10 * abs(pop)
            diag = np.diag(want).real
            assert abs(traces[k] - abs(diag.sum() - 1.0)) <= 1e-10
            leak = lindblad._leakage_probs(diag, lindblad._top_levels(space))
            assert leaks[k] == pytest.approx(leak, rel=1e-10, abs=1e-300)
        final = oracle[n_steps]
        assert np.abs(rho - final).max() <= 1e-10 * np.abs(final).max()

    def test_leak_guard_trips_at_the_same_record(self):
        sp = HilbertSpace(1, 3)
        noise = NoiseModel.uniform(1, 0.0, 0.0, 0.0)
        dt, n_steps = TAU_DM / 200, 2000
        rho0 = projector(number_state(sp, [0]))
        records = set(range(13, n_steps + 1, 13)) | {n_steps}
        oracle = stepping_loop(sp, rho0, 1.0, 1e3, TAU_DM, n_steps, dt, records)
        tops = lindblad._top_levels(sp)
        first = min(s for s, r in oracle.items()
                    if lindblad._leakage_probs(np.diag(r).real, tops) > lindblad.DEFAULT_LEAK_TOL)
        assert first > 13
        with pytest.raises(TruncationLeak, match=f"at t = {first * dt:.3g} s"):
            propagate_cycle(sp, 0, noise, 1e3, TAU_DM, n_steps * dt, "signal",
                            ed=linear_plan(1), dt=dt, record_times=np.arange(13, n_steps, 13) * dt)

    def test_reports_nominal_steps_and_one_record_per_grid_point(self):
        sp = HilbertSpace(2, 4)
        noise = NoiseModel.uniform(2, GAMMA_UP, 0.0, 0.0)
        grid = np.linspace(0.2, 40.0, 60) * TAU_DM
        res = propagate_cycle(sp, 0, noise, G_DRIVE, TAU_DM, grid[-1], "signal",
                              ed=make_plan("binary", 2), record_times=grid)
        assert res.n_steps == 8000 and res.dt == TAU_DM / 200
        assert len(res.times) - 1 == 60


@st.composite
def engine_cases(draw):
    n = draw(st.integers(1, 3))
    cutoff = draw(st.integers(2, {1: 6, 2: 5, 3: 3}[n]))
    rates = st.one_of(st.just(0.0), st.floats(1e2, 1e5))
    noise = NoiseModel(*(draw(st.lists(rates, min_size=n, max_size=n)) for _ in range(3)))
    plan = make_plan(draw(st.sampled_from(["linear"] if n == 3 else ["linear", "binary"])), n)
    populate = draw(st.sampled_from(["signal", "background"]))
    m = draw(st.integers(0, cutoff - 2))
    g = draw(st.floats(1e3, 5e4))
    n_steps = draw(st.integers(1, 300))
    records = sorted(set(draw(st.lists(st.integers(1, n_steps), max_size=6))) | {n_steps})
    lossy = draw(st.sampled_from([0.0, 1e-9, 1.0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return HilbertSpace(n, cutoff), m, noise, plan, populate, g, records, lossy, seed


def random_density(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


class TestStrangEngine:
    @settings(max_examples=30, deadline=None)
    @given(engine_cases())
    def test_matches_dense_strang_oracle(self, case):
        # lossy: the weight of a full-rank state mixed into rho0, read through a
        # matrix readout, as a lossy gate hands over; at 1e-9 the engine's basis
        # must keep the components that lie 1e-9 below the ideal state's
        space, m, noise, plan, populate, g, records, lossy, seed = case
        rng = np.random.default_rng(seed)
        run_noise = noise.heating_off() if populate == "signal" else noise
        dt = lindblad.default_dt(TAU_DM, lindblad._total_rate(run_noise, space.cutoff))
        psi0, target = (apply_plan(v, plan, space) for v in lindblad._primary_states(space, m))
        rho0 = (1 - lossy) * projector(psi0) + lossy * random_density(rng, space.dim)
        obs = random_hermitian(rng, space.dim) if lossy else projector(target)
        res = propagate_cycle(space, m, noise, g, TAU_DM, records[-1] * dt, populate, ed=plan,
                              dt=dt, rho0=rho0 if lossy else None,
                              readout=obs if lossy else None,
                              record_times=[s * dt for s in records], leak_tol=math.inf)
        bounds, d_alphas = lindblad._boundaries(records), None
        if populate == "signal":
            d_alphas = np.diff(mean_displacement(g, TAU_DM, np.array([0] + bounds) * dt))
        oracle = strang_states(space, run_noise, rho0, dt, d_alphas, bounds, set(records))
        assert list(res.times) == [s * dt for s in [0] + records]
        for k, step in enumerate(records, start=1):
            want = float(np.real(np.vdot(obs, oracle[step])))
            assert abs(res.population[k] - want) <= 1e-10 * max(abs(want), 1e-3)
            diag = np.diag(oracle[step]).real
            assert abs(res.trace_defect[k] - abs(diag.sum() - 1.0)) <= 1e-12
            leak = lindblad._leakage_probs(diag, lindblad._top_levels(space))
            assert abs(res.leakage[k] - leak) <= 1e-10 * max(leak, 1e-3)
        final = oracle[records[-1]]
        assert np.abs(res.final_state - final).max() <= 1e-10 * np.abs(final).max()

    def test_second_order_in_dt(self):
        # one record at the end, so every Strang step spans STRIDE steps: tau/k
        sp = HilbertSpace(1, 5)
        pops = [propagate_cycle(sp, 1, reference_noise(1), 1e3, TAU_DM, 2 * TAU_DM, "signal",
                                dt=TAU_DM / (k * lindblad.STRIDE),
                                record_times=[2 * TAU_DM]).population[-1] for k in (10, 20, 40)]
        assert abs(pops[0] - pops[1]) / abs(pops[1] - pops[2]) >= 3.5


class TestStride:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 2000), min_size=1, max_size=12, unique=True))
    def test_boundaries_rule(self, records):
        records = sorted(records)
        bounds = lindblad._boundaries(records)
        assert set(records) <= set(bounds) and bounds[-1] == records[-1]
        for start, end in zip([0] + records, records):
            sizes = np.diff([start] + [b for b in bounds if start < b <= end])
            assert sizes.sum() == end - start
            assert 1 <= sizes.min() and sizes.max() <= lindblad.STRIDE
            assert sizes.max() - sizes.min() <= 1
            assert len(sizes) == math.ceil((end - start) / lindblad.STRIDE)

    def test_driven_runs_over_the_ceiling_are_refused(self):
        # the estimate n_steps // STRIDE + records is one over the ceiling
        sp, dt = HilbertSpace(1, 4), TAU_DM / 200
        tau = (lindblad.MAX_STRANG_STEPS * lindblad.STRIDE) * dt
        with pytest.raises(DimensionCeilingExceeded, match=r"about 1e\+06 Strang steps"):
            propagate_cycle(sp, 0, reference_noise(1), G_DRIVE, TAU_DM, tau, "signal", dt=dt)
        # a drive-free run is exact at any length
        res = propagate_cycle(sp, 0, reference_noise(1), G_DRIVE, TAU_DM, 1e30 * TAU_DM,
                              "background", dt=dt)
        assert res.n_steps > 10 ** 31 and len(res.population) == 2

    @pytest.mark.parametrize("n,m", [(1, m) for m in range(6)] + [(2, 0), (2, 1)])
    @pytest.mark.parametrize("populate", ["signal", "background"])
    def test_matches_per_step_oracle(self, n, m, populate):
        # the strided engine against one dense Strang step per dt, over the
        # default grid to 40 tau_dm at cutoff m + 4
        space, noise = HilbertSpace(n, m + 4), reference_noise(n)
        plan = make_plan("binary", n)
        grid = np.linspace(0.2, 40.0, 60) * TAU_DM
        res = propagate_cycle(space, m, noise, G_DRIVE, TAU_DM, grid[-1], populate, ed=plan,
                              record_times=grid)
        records = [int(round(t / res.dt)) for t in grid]
        psi0, target = (apply_plan(v, plan, space) for v in lindblad._primary_states(space, m))
        bounds, d_alphas = range(1, res.n_steps + 1), None
        if populate == "signal":
            noise = noise.heating_off()
            d_alphas = np.diff(mean_displacement(G_DRIVE, TAU_DM,
                                                 np.arange(res.n_steps + 1) * res.dt))
        oracle = strang_states(space, noise, projector(psi0), res.dt, d_alphas, bounds,
                               set(records))
        want = np.array([np.vdot(target, oracle[s] @ target).real for s in records])
        assert np.all(np.abs(res.population[1:] - want) <= 1e-5 * np.abs(want))


def per_step_channels(cutoff, rates, dt, bounds, d_alphas, steps, basis):
    """The driven loop one Strang step at a time, with its own phase exp and factor lookup.

    The reference for lindblad._mode_channels: the same arithmetic on rows
    of Hermitian coordinates, without the per-interval phase table, the
    per-run factor dict or the preallocated buffers.
    """
    vals, _ = lindblad._displacement_eigensystem(cutoff)
    rows, cols = np.triu_indices(cutoff, 1)
    freqs, pairs = vals[rows] - vals[cols], 2 * len(rows)
    rot = lindblad._eigen_rotation(cutoff)
    records = set(steps)

    def half(k):
        return np.ascontiguousarray(lindblad._factor(cutoff, rates, 0.5 * k * dt, True).T)

    psi, done, size = basis.T @ rot, 0, 0
    for bound, d_alpha in zip(bounds, d_alphas):
        psi = psi @ half(size + bound - done)
        rotated = psi[:, :pairs].view(complex) * np.exp(-1j * d_alpha * freqs)
        psi[:, :pairs] = rotated.view(float)
        done, size = bound, bound - done
        if bound in records:
            yield (psi @ half(size) @ rot.T).T


@st.composite
def driven_loop_cases(draw):
    cutoff = draw(st.integers(2, 6))
    rates = tuple(draw(st.one_of(st.just(0.0), st.floats(1e2, 1e5))) for _ in range(3))
    # gaps of one step, of multiples of STRIDE and of anything in between
    gaps = draw(st.lists(st.one_of(st.just(1), st.integers(1, 4).map(lambda k: k * lindblad.STRIDE),
                                   st.integers(2, 45)), min_size=1, max_size=8))
    rank = draw(st.integers(1, cutoff * cutoff))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return cutoff, rates, list(np.cumsum(gaps)), rank, seed


class TestDrivenLoop:
    @settings(max_examples=60, deadline=None)
    @given(driven_loop_cases())
    def test_matches_per_step_loop_bit_for_bit(self, case):
        cutoff, rates, steps, rank, seed = case
        rng = np.random.default_rng(seed)
        dt = TAU_DM / 200
        bounds = lindblad._boundaries(steps)
        d_alphas = rng.uniform(-0.05, 0.05, len(bounds))
        d_alphas[rng.random(len(bounds)) < 0.2] = 0.0
        shape = (cutoff * cutoff, rank)
        basis = np.linalg.qr(rng.normal(size=shape))[0]
        got = list(lindblad._mode_channels(cutoff, rates, dt, (bounds, d_alphas), steps, basis))
        want = list(per_step_channels(cutoff, rates, dt, bounds, d_alphas, steps, basis))
        assert len(got) == len(want) == len(steps)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_phase_tables_split_long_intervals_bit_for_bit(self, monkeypatch):
        # a record interval of more than PHASE_ROWS Strang steps takes its
        # phases a table at a time; three rows here, so tables split mid-interval
        monkeypatch.setattr(lindblad, "PHASE_ROWS", 3)
        rng = np.random.default_rng(7)
        cutoff, rates, steps, dt = 5, (1e3, 2e4, 5e2), [7, 95, 96, 230], TAU_DM / 200
        bounds = lindblad._boundaries(steps)
        d_alphas = rng.uniform(-0.05, 0.05, len(bounds))
        basis = np.linalg.qr(rng.normal(size=(cutoff * cutoff, 4)))[0]
        got = list(lindblad._mode_channels(cutoff, rates, dt, (bounds, d_alphas), steps, basis))
        want = list(per_step_channels(cutoff, rates, dt, bounds, d_alphas, steps, basis))
        assert len(got) == len(want) == len(steps)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestContinuousLimit:
    def test_strang_engine_matches_adaptive_master_equation(self):
        # independent oracle: scipy's adaptive integration of the continuous
        # master equation with the same drive and collapse channels
        from scipy.integrate import solve_ivp

        from fockscan.fock import single_mode_ladder

        c, m = 5, 1
        sp = HilbertSpace(1, c)
        noise = reference_noise(1)
        t_end = 2 * TAU_DM
        res = propagate_cycle(sp, m, noise, G_DRIVE, TAU_DM, t_end, "signal",
                              ed=None, dt=TAU_DM / 400)

        a = single_mode_ladder(c)
        k_gen = a.conj().T - a
        chans = [(math.sqrt(noise.gamma_down[0]) * a),
                 (math.sqrt(noise.gamma_phi[0]) * (a.conj().T @ a))]

        def alpha_dot(t):
            if t < 1e-9 * TAU_DM:
                return G_DRIVE
            amp = mean_displacement(G_DRIVE, TAU_DM, t)
            return G_DRIVE ** 2 * TAU_DM * (1 - math.exp(-t / TAU_DM)) / amp

        def rhs(t, y):
            rho = y.reshape(c, c)
            drho = alpha_dot(t) * (k_gen @ rho - rho @ k_gen)
            for op in chans:
                opd = op.conj().T
                drho = drho + op @ rho @ opd - 0.5 * (opd @ op @ rho + rho @ opd @ op)
            return drho.ravel()

        rho0 = np.zeros((c, c), dtype=complex)
        rho0[m, m] = 1.0
        sol = solve_ivp(rhs, (0.0, t_end), rho0.ravel(), rtol=1e-9, atol=1e-14)
        n_oracle = sol.y[:, -1].reshape(c, c)[m + 1, m + 1].real
        assert res.population[-1] == pytest.approx(n_oracle, rel=5e-3)


class TestHeatingSumRule:
    def test_transformed_heating_rates_sum(self):
        # sum_i bar_gamma_up_i = sum_n gamma_up_n (unitarity of the gate)
        for n, scheme in [(2, "linear"), (4, "binary")]:
            sp = HilbertSpace(n, 3)
            m = single_photon_matrix(make_plan(scheme, n), sp)
            ups = np.linspace(0.5, 1.4, n)
            bar = np.abs(m.conj().T) ** 2 @ ups  # |M_ni|^2 weights, per target i
            bar_direct = np.array([sum(ups[k] * abs(m[k, i]) ** 2 for k in range(n))
                                   for i in range(n)])
            assert np.allclose(bar, bar_direct, atol=1e-12)
            assert bar_direct.sum() == pytest.approx(ups.sum(), abs=1e-10)
            assert bar_direct[0] == pytest.approx(ups.mean(), abs=1e-12)

    def test_heating_deposit_measured_in_simulation(self):
        # one heating-only step from the distributed state deposits
        # sum gamma_up * dt of total photon number
        sp = HilbertSpace(2, 5)
        ups = (0.7, 1.3)
        noise = NoiseModel(ups, (0.0, 0.0), (0.0, 0.0))
        plan = linear_plan(2)
        dt = 1e-4
        rho = projector(apply_plan(number_state(sp, [1, 0]), plan, sp))
        out = one_step(sp, rho, noise, dt)
        n_tot = number_operator(sp, 0) + number_operator(sp, 1)
        gain = np.trace(n_tot @ (out - rho)).real
        expected = np.trace(n_tot @ (exact_channel(sp, rho, noise, dt) - rho)).real
        assert gain == pytest.approx(expected, rel=1e-6)
        # bosonic enhancement: deposit rate on a 1-photon symmetric state is
        # sum_n gamma_up_n (1 + <n_n>) = sum(ups) + mean-weighted occupation
        assert gain == pytest.approx(dt * (sum(ups) + sum(u * 0.5 for u in ups)), rel=1e-3)


class TestEffectiveBackend:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_cross_validation_against_full(self, m):
        sp = HilbertSpace(2, m + 4)
        noise = reference_noise(2)
        rates = transformed_rates(2, noise, m)
        grid = np.linspace(0.5, 10.0, 12) * TAU_DM
        for populate in ("signal", "background"):
            full = propagate_cycle(sp, m, noise, G_DRIVE, TAU_DM, grid[-1], populate,
                                   ed=make_plan("binary", 2), record_times=grid)
            eff = effective_propagate_cycle(2, m, rates, G_DRIVE, TAU_DM, grid[-1],
                                            populate, record_times=grid)
            k = min(len(full.population), len(eff.population))
            rel = np.abs(full.population[1:k] - eff.population[1:k]) / np.abs(full.population[1:k])
            assert rel.max() < 0.02, (m, populate, rel.max())

    def test_lossless_scaling_n_m(self):
        for n, m in [(4, 0), (8, 2)]:
            rates = transformed_rates(n, NoiseModel.uniform(n, 0, 0, 0), m)
            res = effective_propagate_cycle(n, m, rates, G_DRIVE, TAU_DM, 5 * TAU_DM,
                                            "signal", dt=TAU_DM / 200)
            expected = mean_displacement(G_DRIVE, TAU_DM, res.times[-1]) ** 2 * n * (m + 1)
            assert res.population[-1] == pytest.approx(expected, rel=5e-3)

    def test_background_independent_of_n_without_dephasing(self):
        out = {}
        for n in (2, 8):
            rates = transformed_rates(n, NoiseModel.uniform(n, GAMMA_UP, GAMMA_DOWN, 0.0), 1)
            res = effective_propagate_cycle(n, 1, rates, 0.0, TAU_DM, 5 * TAU_DM,
                                            "background", dt=TAU_DM / 200)
            out[n] = res.population[-1]
        assert out[8] == pytest.approx(out[2], rel=1e-12)

    def test_background_dephasing_factor_dependence(self):
        # with dephasing the only N-dependence is the (1 - 1/N) swap factor
        vals = {}
        for n in (2, 8):
            rates = transformed_rates(n, NoiseModel.uniform(n, GAMMA_UP, GAMMA_DOWN, GAMMA_PHI), 1)
            res = effective_propagate_cycle(n, 1, rates, 0.0, TAU_DM, 5 * TAU_DM,
                                            "background", dt=TAU_DM / 200)
            vals[n] = res.population[-1]
        assert vals[8] == pytest.approx(vals[2], rel=5e-3)

    def test_dt_halving_convergence(self):
        rates = transformed_rates(2, reference_noise(2), 3)
        a = effective_propagate_cycle(2, 3, rates, G_DRIVE, TAU_DM, 10 * TAU_DM,
                                      "signal", dt=TAU_DM / 200)
        b = effective_propagate_cycle(2, 3, rates, G_DRIVE, TAU_DM, 10 * TAU_DM,
                                      "signal", dt=TAU_DM / 400)
        assert abs(b.population[-1] / a.population[-1] - 1) < 5e-3


def bisect_multiplier(f_bs, g_bs, gamma_up, gamma_down, gamma_phi):
    """The bracket-and-bisect search with one swap_fidelity evaluation per test.

    The reference for calibrate_bs_multiplier, which makes the same tests
    but answers most of them from what it has already evaluated.
    """
    def fid(mult):
        return swap_fidelity(mult, g_bs, gamma_up, gamma_down, gamma_phi)

    base = fid(1.0)
    if f_bs >= base:
        if f_bs - base < 1e-9:
            return 1.0
        raise FidelityUnreachable("above the base-rate limit")
    lo, hi = 1.0, 2.0
    while fid(hi) > f_bs:
        lo, hi = hi, hi * 2.0
        if hi > 1e9:
            raise FidelityUnreachable("could not bracket")
    while (hi - lo) / hi > lindblad.CALIBRATION_REL_TOL:
        mid = 0.5 * (lo + hi)
        if fid(mid) > f_bs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBeamsplitterInfidelity:
    def test_perfect_fidelity_is_unitary_conjugation(self):
        sp = HilbertSpace(2, 5)
        plan = linear_plan(2)
        rho = projector(number_state(sp, [2, 0]))
        lossy = lossy_ed_apply(rho, sp, plan, 1.0, G_BS, reference_noise(2))
        ideal = apply_plan_rho(rho, plan, sp)
        assert np.max(np.abs(lossy - ideal)) < 1e-9

    def test_calibrated_swap_probability(self):
        lam = calibrate_bs_multiplier(0.99, G_BS, GAMMA_UP, GAMMA_DOWN, GAMMA_PHI)
        assert lam > 1.0
        # self-consistency plus the exact channel of the window at cutoff 4
        fid = swap_fidelity(lam, G_BS, GAMMA_UP, GAMMA_DOWN, GAMMA_PHI)
        assert fid == pytest.approx(0.99, abs=1e-3)
        space = HilbertSpace(2, 4)
        spec = BeamsplitterSpec(0, 1, math.pi / 2, math.pi / 2)
        window = window_channel(space, reference_noise(2).elevated(lam, (0, 1)), spec,
                                spec.theta / G_BS)
        rho = projector(number_state(space, [1, 0]))
        out = (window @ rho.ravel()).reshape(rho.shape)
        idx = space.index_of([0, 1])
        assert out[idx, idx].real == pytest.approx(0.99, abs=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.9, 0.999), st.floats(0.3, 3.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
           st.floats(0.1, 10.0))
    def test_calibration_matches_plain_bisection(self, f_bs, g_scale, up, down, phi):
        args = (f_bs, G_BS * g_scale, GAMMA_UP * up, GAMMA_DOWN * down, GAMMA_PHI * phi)
        calibrate_bs_multiplier.cache_clear()
        try:
            want = bisect_multiplier(*args)
        except FidelityUnreachable:
            with pytest.raises(FidelityUnreachable):
                calibrate_bs_multiplier(*args)
            return
        assert calibrate_bs_multiplier(*args) == want

    def test_unreachable_fidelity(self):
        with pytest.raises(FidelityUnreachable):
            calibrate_bs_multiplier(0.9999999, G_BS, GAMMA_UP, 1e4, 1e3)

    @pytest.fixture
    def swap_calls(self, monkeypatch):
        """Count swap_fidelity evaluations, starting from an empty calibration cache."""
        calls = []
        real = lindblad.swap_fidelity

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lindblad, "swap_fidelity", counting)
        calibrate_bs_multiplier.cache_clear()
        yield calls
        calibrate_bs_multiplier.cache_clear()

    @pytest.mark.parametrize("f_bs", [0.9, 0.99, 0.999])
    def test_calibration_evaluation_count(self, swap_calls, f_bs):
        # the plain bracket-and-bisect search makes 28 evaluations at 0.99
        got = calibrate_bs_multiplier(f_bs, G_BS, GAMMA_UP, GAMMA_DOWN, GAMMA_PHI)
        assert len(swap_calls) <= 8
        assert got == bisect_multiplier(f_bs, G_BS, GAMMA_UP, GAMMA_DOWN, GAMMA_PHI)

    def test_repeated_calibration_is_cached(self, swap_calls):
        first = calibrate_bs_multiplier(0.99, G_BS, GAMMA_UP, GAMMA_DOWN, GAMMA_PHI)
        assert swap_calls
        swap_calls.clear()
        assert calibrate_bs_multiplier(0.99, G_BS, GAMMA_UP, GAMMA_DOWN, GAMMA_PHI) == first
        assert swap_calls == []

    def test_unreachable_fidelity_is_not_cached(self, swap_calls):
        for _ in range(2):
            swap_calls.clear()
            with pytest.raises(FidelityUnreachable):
                calibrate_bs_multiplier(0.9999999, G_BS, GAMMA_UP, 1e4, 1e3)
            assert swap_calls

    def test_mean_pair_rates_identical_for_any_uniform_count(self):
        means = {_mean_pair_rates(reference_noise(n)) for n in (1, 2, 4, 8)}
        assert means == {(GAMMA_UP, GAMMA_DOWN, GAMMA_PHI)}

    def test_lossy_gate_calibrates_for_its_mean_rates(self):
        sp = HilbertSpace(2, 3)
        rho = projector(number_state(sp, [1, 0]))
        noise = reference_noise(2)
        plan = linear_plan(2)
        own = calibrate_bs_multiplier(0.99, G_BS, *_mean_pair_rates(noise))
        auto = lossy_ed_apply(rho, sp, plan, 0.99, G_BS, noise)
        given_mult = lossy_ed_apply(rho, sp, plan, 0.99, G_BS, noise, multiplier=own)
        assert auto.tobytes() == given_mult.tobytes()

    def test_distributed_fock_state_fidelity_below_single_photon(self):
        # higher Fock states suffer more from the elevated window rates
        sp = HilbertSpace(2, 8)
        plan = linear_plan(2)
        f_bs = 0.99
        rho = projector(number_state(sp, [5, 0]))
        lossy = lossy_ed_apply(rho, sp, plan, f_bs, G_BS, reference_noise(2))
        ideal = apply_plan_rho(rho, plan, sp)
        fidelity = float(np.trace(ideal @ lossy).real)
        assert fidelity < f_bs


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = x + x.conj().T
    return x / np.linalg.norm(x)


@st.composite
def pullback_cases(draw):
    n = draw(st.sampled_from([1, 2, 4]))
    cutoff = draw(st.integers(2, 3) if n == 4 else st.integers(2, 4))
    scheme = draw(st.sampled_from(["linear", "binary"]))
    f_bs = draw(st.one_of(st.just(1.0), st.floats(0.9, 0.999)))
    inverse = draw(st.booleans())
    occ = [draw(st.integers(0, cutoff - 1)) for _ in range(n)]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return HilbertSpace(n, cutoff), scheme, f_bs, inverse, occ, seed


class TestHeisenbergReadout:
    @settings(max_examples=30, deadline=None)
    @given(pullback_cases())
    def test_pulled_back_projector_matches_forward_gate(self, case):
        space, scheme, f_bs, inverse, occ, seed = case
        rng = np.random.default_rng(seed)
        rho = random_hermitian(rng, space.dim)
        target = number_state(space, occ)
        plan = make_plan(scheme, space.n_modes)
        gate = dict(f_bs=f_bs, g_bs=G_BS, base_noise=reference_noise(space.n_modes),
                    inverse=inverse)
        forward = lossy_ed_apply(rho, space, plan, **gate)
        want = float(np.real(np.vdot(target, forward @ target)))
        obs = lossy_ed_apply(projector(target), space, plan, adjoint=True, **gate)
        got = float(np.real(np.vdot(obs, rho)))
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.floats(1.0, 500.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_effective_window_adjoint(self, cutoff, multiplier, heating_on, seed):
        rng = np.random.default_rng(seed)
        rho = random_hermitian(rng, cutoff)
        obs = random_hermitian(rng, cutoff)
        window = dict(rates=transformed_rates(8, reference_noise(8), 1), multiplier=multiplier,
                      duration=math.pi / 4 / G_BS, heating_on=heating_on)
        want = float(np.real(np.vdot(obs, effective_lossy_window(rho, **window))))
        got = float(np.real(np.vdot(effective_lossy_window(obs, adjoint=True, **window), rho)))
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def dense_gate(space, plan, noise, multiplier, inverse):
    """The lossy gate as one dim^2 x dim^2 matrix: a window_channel per splitter, in run order."""
    gate = np.eye(space.dim ** 2)
    for spec in (plan.sequence[::-1] if inverse else plan.sequence):
        run = replace(spec, theta=-spec.theta) if inverse else spec
        window = noise.elevated(multiplier, (spec.mode_a, spec.mode_b))
        gate = window_channel(space, window, run, spec.theta / G_BS) @ gate
    return gate


@st.composite
def window_cases(draw):
    n = draw(st.integers(1, 3))
    # the oracle is dim^2 x dim^2, so three cavities stop at cutoff 3; binary needs 1 or 2
    cutoff = draw(st.integers(2, 3) if n == 3 else st.integers(2, 4))
    scheme = draw(st.sampled_from(["linear"] if n == 3 else ["linear", "binary"]))
    f_bs = draw(st.floats(0.9, 0.999))
    heating_on = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return HilbertSpace(n, cutoff), scheme, f_bs, heating_on, seed


# The pair's Strang steps err by O(h^2); 64 substeps reach at most 1.6e-6 at
# f_bs = 0.9 on random states, so the bound leaves a factor of six.
STRANG_WINDOW_TOL = 1e-5


class TestWindowOracle:
    @settings(max_examples=20, deadline=None)
    @given(window_cases())
    def test_lossy_gate_matches_exact_windows(self, case):
        space, scheme, f_bs, _, seed = case
        rho = random_density(np.random.default_rng(seed), space.dim)
        noise = reference_noise(space.n_modes)
        plan = make_plan(scheme, space.n_modes)
        mult = calibrate_bs_multiplier(f_bs, G_BS, *_mean_pair_rates(noise))
        for inverse in (False, True):
            gate = dense_gate(space, plan, noise, mult, inverse)
            for adjoint, oracle in ((False, gate), (True, gate.conj().T)):
                want = (oracle @ rho.ravel()).reshape(rho.shape)
                got = lossy_ed_apply(rho, space, plan, f_bs, G_BS, noise, inverse=inverse,
                                     multiplier=mult, adjoint=adjoint)
                assert np.abs(got - want).max() <= STRANG_WINDOW_TOL * np.abs(want).max()

    @settings(max_examples=30, deadline=None)
    @given(window_cases())
    def test_effective_window_is_exact(self, case):
        space, _, f_bs, heating_on, seed = case
        one = HilbertSpace(1, space.cutoff)
        rho = random_density(np.random.default_rng(seed), one.dim)
        rates = transformed_rates(space.n_modes, reference_noise(space.n_modes), 1)
        mult = calibrate_bs_multiplier(f_bs, G_BS, GAMMA_UP, GAMMA_DOWN, GAMMA_PHI)
        noise = effective_noise_model(rates).elevated(mult, (0,))
        duration = math.pi / 4 / G_BS
        exact = window_channel(one, noise if heating_on else noise.heating_off(), None, duration)
        for adjoint, oracle in ((False, exact), (True, exact.conj().T)):
            want = (oracle @ rho.ravel()).reshape(rho.shape)
            got = effective_lossy_window(rho, rates, mult, duration, heating_on, adjoint)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@st.composite
def invariant_cases(draw, n_modes=st.integers(1, 2)):
    n = draw(n_modes)
    cutoff = draw(st.integers(2, 6))
    m = draw(st.integers(0, cutoff - 2))
    noise = NoiseModel(*(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e2, 1e6)),
                                       min_size=n, max_size=n)) for _ in range(3)))
    populate = draw(st.sampled_from(["signal", "background"]))
    g = draw(st.floats(1.0, 3e3))
    records = sorted(set(draw(st.lists(st.integers(1, 300), min_size=1, max_size=4))))
    return HilbertSpace(n, cutoff), m, noise, populate, g, records


@st.composite
def lossy_invariant_cases(draw):
    """An invariant case on two cavities, with a lossy gate: scheme and f_bs."""
    cycle = draw(invariant_cases(st.just(2)))
    scheme = draw(st.sampled_from(["linear", "binary"]))
    f_bs = draw(st.floats(0.9, 0.999))
    return cycle, scheme, f_bs


def records_of_run(case, rho0=None):
    """The states of an invariant case: the state at each record step k is the
    final state of a k-step run from rho0 (default the distributed |m>).  The
    signal run is driven, the background run drive-free."""
    space, m, noise, populate, g, records = case
    plan = make_plan("linear", space.n_modes)
    dt = lindblad.default_dt(TAU_DM, lindblad._total_rate(noise, space.cutoff))
    states = []
    for k in records:
        res = propagate_cycle(space, m, noise, g, TAU_DM, k * dt, populate, ed=plan,
                              dt=dt, rho0=rho0, leak_tol=math.inf,
                              record_times=np.arange(1, k) * dt)
        assert res.n_steps == k and res.trace_defect.max() <= 1e-12
        states.append(res.final_state)
    return states


class TestStateInvariants:
    @settings(max_examples=40, deadline=None)
    @given(invariant_cases())
    def test_trace_and_hermiticity_at_every_record(self, case):
        for rho in records_of_run(case):
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.abs(rho - rho.conj().T).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(invariant_cases())
    @example((HilbertSpace(1, 3), 0, NoiseModel((3200.0,), (9859.0,), (0.0,)), "signal",
              824.0, [300]))
    def test_positivity_at_every_record(self, case):
        for rho in records_of_run(case):
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    @settings(max_examples=30, deadline=None)
    @given(lossy_invariant_cases())
    def test_positivity_through_lossy_gates(self, case):
        # the forward gate's output, every record of a run from it, and the
        # inverse gate's output on the last record
        cycle, scheme, f_bs = case
        space, m = cycle[0], cycle[1]
        plan = make_plan(scheme, space.n_modes)
        gate = dict(f_bs=f_bs, g_bs=G_BS, base_noise=reference_noise(space.n_modes))
        psi0, _ = lindblad._primary_states(space, m)
        rho0 = lossy_ed_apply(projector(psi0), space, plan, **gate)
        states = records_of_run(cycle, rho0)
        back = lossy_ed_apply(states[-1], space, plan, inverse=True, **gate)
        for rho in [rho0, *states, back]:
            assert np.linalg.eigvalsh(rho).min() >= -1e-12
