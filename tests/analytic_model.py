"""Closed-form rate model of the detection cycle: the oracle the tests compare against.

The paper's scan-rate claim, rate ~ N^2 (m+1), rests on closed-form rates
for the primary cavity after conjugation by the ED gate: the signal
R_s ~ N (m+1) x (buildup) and the background (m+1) bar_gamma_up, both
depleted at (m+1) gamma.  fockscan never evaluates these; its engine
integrates the Lindblad dynamics instead, and the tests check the engine
against the formulas here.  Rates come in as a lindblad.TransformedRates.
"""
import math

import numpy as np

from fockscan.errors import InvalidArgument


def gamma_m_plus_1(rates) -> float:
    """Thermal deposition rate into |m+1>: (m+1) x averaged heating."""
    return (rates.fock_m + 1) * rates.bar_gamma_up_1


def gamma_m(rates) -> float:
    """Decay-driven depletion of |m>: m x averaged decay."""
    return rates.fock_m * rates.bar_gamma_down


def gamma_m_phi(rates) -> float:
    """Dephasing-driven photon swap out of |m>: m (1 - 1/N) x averaged dephasing."""
    return rates.fock_m * (1.0 - 1.0 / rates.n_cavities) * rates.bar_gamma_phi


def tau_analytic(tau_dm: float, rates) -> float:
    """Stationary point of the survival-times-buildup SNR, m = rates.fock_m.

    SNR(t) ~ e^{-(m+1) gamma t / 2} (1 - tau_dm / t) peaks at

        tau_analytic = (tau_dm / 2) (1 + sqrt(1 + 8 / ((m+1) gamma tau_dm))),

    which approaches tau_dm when (m+1) gamma tau_dm >> 1 and diverges as
    gamma -> 0.  protocol.optimal_tau_int maximises the same objective
    numerically; with zero cycle overhead the two coincide.
    """
    gamma = rates.gamma_down_eff
    if gamma <= 0:
        return math.inf
    x = (rates.fock_m + 1) * gamma * tau_dm
    return float(0.5 * tau_dm * (1.0 + math.sqrt(1.0 + 8.0 / x)))


def _exp_diff(exponent: np.ndarray, step: np.ndarray) -> np.ndarray:
    """(e^exponent - e^(exponent - step)) / step, stable for exponent <= 0.

    Equals e^exponent phi(-step) with phi(x) = (e^x - 1)/x; written as a
    difference of two never-overflowing exponentials so huge rates stay
    finite, with a series fallback for |step| -> 0.
    """
    small = np.abs(step) < 1e-8
    safe = np.where(small, 1.0, step)
    out = np.where(
        small,
        np.exp(exponent) * (1.0 - step / 2.0),
        (np.exp(exponent) - np.exp(exponent - safe)) / safe,
    )
    return out


def semiclassical_rates(
    g: float,
    tau_dm: float,
    n_cavities: int,
    m: int,
    rates,
    t,
    include_dm_backreaction: bool = False,
):
    """Closed-form signal and background rates R_s(t), R_b(t).

    With gamma = bar_down + (1 - 1/N) bar_phi and a = 1/tau_dm:

        R_s = 2 g^2 tau_dm N (m+1) e^{-(m+1) gamma t} [phi(gamma t) - phi((gamma - a) t)]
        R_b = (m+1) bar_up e^{-(m+1) gamma t} phi(gamma t),

    where phi(x) = (e^x - 1)/x.  The optional DM-backreaction switch also
    depletes the |m> level at (2m+1)/(m+1) x instantaneous signal rate and
    evaluates the signal integral by quadrature instead of the closed form.
    """
    tt = np.asarray(t, dtype=float)
    gamma = rates.gamma_down_eff
    a = 1.0 / tau_dm
    pref = 2.0 * g * g * tau_dm * n_cavities * (m + 1)
    if not include_dm_backreaction:
        # e^{-(m+1) g t} phi(g t)       = (e^{-m g t} - e^{-(m+1) g t}) / (g t)
        # e^{-(m+1) g t} phi((g - a) t) = (e^{-(m g + a) t} - e^{-(m+1) g t}) / ((g - a) t)
        term1 = _exp_diff(-m * gamma * tt, gamma * tt)
        term2 = _exp_diff(-(m * gamma + a) * tt, (gamma - a) * tt)
        r_s = pref * (term1 - term2)
        r_b = (m + 1) * rates.bar_gamma_up_1 * term1
        return (float(r_s), float(r_b)) if np.isscalar(t) else (r_s, r_b)

    t_max = float(np.max(tt))
    fine = np.linspace(0.0, max(t_max, tau_dm * 1e-3), 4001)
    r_inst = pref * (-np.expm1(-fine / tau_dm))
    # n_m depletion: decay/dephasing plus the DM up+down transitions
    cum_inst = np.concatenate([[0.0], np.cumsum((r_inst[1:] + r_inst[:-1]) / 2 * np.diff(fine))])
    n_m = np.exp(-m * gamma * fine - (2 * m + 1) / (m + 1) * cum_inst)
    kernel_rate = (m + 1) * gamma
    n_s = _convolve_decay(fine, r_inst * n_m, kernel_rate)
    n_bq = _convolve_decay(fine, (m + 1) * rates.bar_gamma_up_1 * n_m, kernel_rate)
    r_s = np.interp(tt, fine, n_s) / np.where(tt == 0, 1.0, tt)
    r_b = np.interp(tt, fine, n_bq) / np.where(tt == 0, 1.0, tt)
    return (float(r_s), float(r_b)) if np.isscalar(t) else (r_s, r_b)


def _convolve_decay(t: np.ndarray, source: np.ndarray, rate: float) -> np.ndarray:
    """n(t) = integral_0^t source(t') e^{-rate (t - t')} dt' by trapezoid."""
    weighted = source * np.exp(rate * t)
    integ = np.concatenate([[0.0], np.cumsum((weighted[1:] + weighted[:-1]) / 2 * np.diff(t))])
    return integ * np.exp(-rate * t)


def semiclassical_rates_approx(
    g: float,
    tau_dm: float,
    n_cavities: int,
    m: int,
    rates,
    t,
):
    """Diffusive-regime simplification, valid for tau_dm < t << 1/gamma:

        R_s ~ 2 g^2 tau_dm N (m+1) e^{-(m+1) gamma t} (1 - tau_dm / t),
        R_b ~ (m+1) bar_up e^{-(m+1) gamma t}.
    """
    tt = np.asarray(t, dtype=float)
    gamma = rates.gamma_down_eff
    decay = np.exp(-(m + 1) * gamma * tt)
    r_s = 2.0 * g * g * tau_dm * n_cavities * (m + 1) * decay * (1.0 - tau_dm / tt)
    r_b = (m + 1) * rates.bar_gamma_up_1 * decay
    return (float(r_s), float(r_b)) if np.isscalar(t) else (r_s, r_b)


def spam_background(p_e: float, e_ge: float, n_repeat: int, tau_cycle: float, r_b: float) -> float:
    """Residual readout background after n repeated conditional measurements.

    R_b' = (P_e^n + E_ge^n) / tau_cycle + R_b; with perfect readout it
    reduces to R_b, and repeating the measurement drives it back there.
    """
    if not (0 <= p_e < 1 and 0 <= e_ge < 1):
        raise InvalidArgument("P_e and E_ge must lie in [0, 1)")
    if n_repeat < 1 or tau_cycle <= 0 or r_b < 0:
        raise InvalidArgument("need n_repeat >= 1, tau_cycle > 0, r_b >= 0")
    return (p_e ** n_repeat + e_ge ** n_repeat) / tau_cycle + r_b
