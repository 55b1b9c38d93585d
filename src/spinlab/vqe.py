"""Hamiltonian-variational ansatz, shot-noise energy estimation, optimizers.

The ansatz alternates evolutions under the two non-commuting parts of the
transverse-field Ising Hamiltonian, starting from the all-plus state.  Energy
estimation emulates projective measurement of qubit-wise commuting groups;
every string in a group is read off the same shot record, and repeated
estimates on one state (``estimate_energy_pauli_batch``) share each group's
per-state tables, built once per call: the CDF of the rotated state and,
with at least 2^L shots, the group's weighted value on every basis index,
read against one multinomial count vector in place of the shots.  The
amplitude-ratio estimator draws only its two counts, by conditional
binomials.  Optimizers work on the exact state vector; shot noise enters
only through explicit injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.optimize

from . import _native
from .pauli import (MeasurementGroups, PauliSum, _sign_sum, _string_values,
                    group_qubitwise)
from .statevector import (
    StateVector,
    SpinConfiguration,
    TFIMModel,
    _check_hermitian,
    _hva_layer,
    _normalized_cdf,
    _zz_levels,
    apply_pauli_sum,
    expectation,
    init_plus,
    rotate_to_basis,
)


@dataclass(frozen=True)
class HVAnsatz:
    """Depth-d alternating-layer circuit with parameters (th1_1, th1_2, ...).

    Block i applies exp(i theta^i_1 H_1) then exp(i theta^i_2 H_2), so the
    even slots hold the bond angles and the odd slots the field angles.
    """

    model: TFIMModel
    depth: int
    params: tuple[float, ...]

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be positive")
        if len(self.params) != 2 * self.depth:
            raise ValueError(f"need {2 * self.depth} parameters, "
                             f"got {len(self.params)}")
        object.__setattr__(self, "params", tuple(float(t) for t in self.params))

    @property
    def n_params(self) -> int:
        return 2 * self.depth

    def with_params(self, params) -> "HVAnsatz":
        return HVAnsatz(self.model, self.depth, tuple(params))

    @classmethod
    def zeros(cls, model: TFIMModel, depth: int) -> "HVAnsatz":
        return cls(model, depth, (0.0,) * (2 * depth))


def _forward(a: HVAnsatz, psi: np.ndarray) -> None:
    """Write the trial state into the (2^L,) array psi, layer by layer."""
    psi[:] = init_plus(a.model.L).amplitudes
    for j, theta in enumerate(a.params):
        _hva_layer(psi, a.model, j % 2, theta)


def prepare(a: HVAnsatz) -> StateVector:
    """Trial state: d blocks of exp(i th_1 H_1), exp(i th_2 H_2) on |+...+>."""
    psi = np.empty(2 ** a.model.L, dtype=complex)
    _forward(a, psi)
    return StateVector(psi)


def _apply_generator(amps: np.ndarray, model: TFIMModel,
                     slot: int) -> np.ndarray:
    """H_1 |amps> for slot 0, H_2 |amps> for slot 1."""
    if slot == 1:
        return -model.Gamma * _native.x_sum(amps, model.L)
    vals, inv = _zz_levels(model.L, model.periodic)
    return (-model.J * vals)[inv] * amps


def energy_and_gradient(a: HVAnsatz, h: PauliSum) -> tuple[float, np.ndarray]:
    """Exact energy and gradient by reverse-mode state differentiation.

    With |psi> = U_N ... U_1 |+> and U_j = exp(i theta_j G_j), the derivative
    is dE/dtheta_j = -2 Im <b_j|G_j|a_j> where a_j is the state after layer j
    and b_j carries H|psi> pulled back through the later layers.  One forward
    sweep, then a backward one that un-applies each layer to both states at
    once as the rows of one (2, 2^L) array.
    """
    model = a.model
    # rows, not columns: np.vdot on a strided column rounds differently
    pair = np.empty((2, 2 ** model.L), dtype=complex)
    psi, hpsi = pair
    _forward(a, psi)
    hpsi[:] = apply_pauli_sum(StateVector(psi), h)
    energy = float(np.vdot(psi, hpsi).real)
    grad = np.zeros(a.n_params)
    for j in range(a.n_params - 1, -1, -1):
        g_a = _apply_generator(psi, model, j % 2)
        grad[j] = -2.0 * float(np.imag(np.vdot(hpsi, g_a)))
        _hva_layer(pair, model, j % 2, -a.params[j])
    return energy, grad


def exact_energy(a: HVAnsatz, h: PauliSum | None = None) -> float:
    if h is None:
        h = a.model.as_pauli_sum()
    return expectation(prepare(a), h)


# ---------------------------------------------------------------------------
# Shot-noise energy estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShotPlan:
    """Shots allotted to each measurement group, aligned with group order."""

    shots_per_group: tuple[int, ...]

    def __post_init__(self):
        if any(m < 1 for m in self.shots_per_group):
            raise ValueError("every group needs at least one shot")
        object.__setattr__(self, "shots_per_group",
                           tuple(int(m) for m in self.shots_per_group))

    @classmethod
    def uniform(cls, n_groups: int, m: int) -> "ShotPlan":
        return cls((m,) * n_groups)

    @property
    def total(self) -> int:
        return sum(self.shots_per_group)


@dataclass(frozen=True)
class EnergyEstimate:
    mean: float
    stderr: float
    shots_used: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def estimate_energy_pauli(s: StateVector, h: PauliSum,
                          groups: MeasurementGroups, plan: ShotPlan,
                          rng: np.random.Generator) -> EnergyEstimate:
    """Grouped-measurement estimate of <H> with its own-sample error bar.

    Each group is measured in its shared basis for M_j shots; every member
    string is evaluated on the same record as a parity of the relevant bits.
    The group's coefficient-weighted sum is averaged over shots, and group
    variances combine in quadrature (groups use independent shots).
    """
    return estimate_energy_pauli_batch(s, h, groups, plan, [rng])[0]


def _check_estimator(s: StateVector, h: PauliSum, groups: MeasurementGroups,
                     plan: ShotPlan) -> None:
    if h.n_qubits != s.n_qubits:
        raise ValueError("operator size does not match state")
    if len(plan.shots_per_group) != groups.n_groups:
        raise ValueError("plan does not match the number of groups")
    _check_hermitian(h)


def estimate_energy_pauli_batch(s: StateVector, h: PauliSum,
                                groups: MeasurementGroups, plan: ShotPlan,
                                rngs: Sequence[np.random.Generator]
                                ) -> list[EnergyEstimate]:
    """One ``estimate_energy_pauli`` per generator in rngs, bitwise equal.

    A group with M >= 2^L shots draws one multinomial count vector n over
    its 2^L outcomes, and takes the mean n.w / M and the ddof = 1 variance
    sum_x n_x (w_x - mean)^2 / (M - 1) from its value table w, the members'
    ``_sign_sum`` on every basis index.  Below 2^L shots it draws every shot
    by inverse CDF and gathers the member parities of the drawn indices,
    since numpy's multinomial walks all 2^L outcomes whatever M is.  Each
    group's tables are built once for all repetitions, with one rotated
    state alive at a time.  Repetition r then draws every group in order
    from rngs[r], the stream the single call consumes, so a generator
    listed n times serves n single calls in a row.
    """
    _check_estimator(s, h, groups, plan)
    tables = []
    for grp, basis, m in zip(groups.groups, groups.bases, plan.shots_per_group):
        cum = _normalized_cdf(rotate_to_basis(s, basis).probabilities())
        coeffs = np.array([h.terms[i][0].real for i in grp])
        masks = np.array([h.terms[i][1].mask() for i in grp], dtype=np.uint64)
        if m >= cum.size:  # outcome probabilities and w_g, for counts
            tables.append((m, np.diff(cum, prepend=0.0),
                           _sign_sum(zip(coeffs, masks), s.n_qubits),
                           coeffs, masks))
        else:
            tables.append((m, cum, None, coeffs, masks))
    out = []
    for rng in rngs:
        mean, var_of_mean = h.identity_coefficient().real, 0.0
        for m, dist, w, coeffs, masks in tables:
            if w is None:
                idx = np.searchsorted(dist, rng.random(m), side="right")
                weighted = coeffs @ _string_values(masks, idx)
                g_mean = float(weighted.mean())
                g_var = float(weighted.var(ddof=1)) if m > 1 else 0.0
            else:
                counts = rng.multinomial(m, dist)
                g_mean = float(counts @ w) / m
                g_var = float(counts @ (w - g_mean) ** 2) / (m - 1)
            mean += g_mean
            var_of_mean += g_var / m
        out.append(EnergyEstimate(mean=mean, stderr=float(np.sqrt(var_of_mean)),
                                  shots_used=plan.total))
    return out


def predicted_error(s: StateVector, h: PauliSum, plan: ShotPlan,
                    groups: MeasurementGroups | None = None) -> float:
    """Shot-noise error sqrt(sum_g Var_g(w_g) / M_g) of the grouped estimator.

    w_g(x) = sum_{i in g} c_i P_i(x) is the group's coefficient-weighted sum
    on one shot record, so Var_g includes the covariance between members of
    a group, c_i c_j (<P_i P_j> - <P_i><P_j>), which same-record sampling
    induces (McClean et al., NJP 18, 023023 (2016); Crawford et al.,
    Quantum 5, 385 (2021)).  The variance is taken exactly under the group's
    rotated probabilities; a one-term group gives |c|^2 (1 - <P>^2) / M.
    """
    if groups is None:
        groups = group_qubitwise(h)
    _check_estimator(s, h, groups, plan)
    var = 0.0
    for grp, basis, m in zip(groups.groups, groups.bases, plan.shots_per_group):
        probs = rotate_to_basis(s, basis).probabilities()
        weighted = _sign_sum([(h.terms[i][0].real, h.terms[i][1].mask())
                              for i in grp], h.n_qubits)
        var += float(probs @ (weighted - probs @ weighted) ** 2) / m
    return float(np.sqrt(var))


def shot_budget(n_groups: int, m_per_group: int, n_iter: int) -> int:
    """Total circuit repetitions of a full optimization run."""
    return n_groups * m_per_group * n_iter


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VQEResult:
    ansatz: HVAnsatz
    energy: float
    converged: bool
    iterations: int


METHOD_ALIASES = {
    "quasi-newton": "BFGS",
    "bfgs": "BFGS",
    "derivative-free": "COBYLA",
    "cobyla": "COBYLA",
}


def _minimize_once(a: HVAnsatz, h: PauliSum, x0: np.ndarray, method: str,
                   max_iter: int) -> tuple[np.ndarray, float, bool, int]:
    if method == "BFGS":
        def fun(x):
            return energy_and_gradient(a.with_params(x), h)

        res = scipy.optimize.minimize(fun, x0, jac=True, method="BFGS",
                                      options={"maxiter": max_iter,
                                               "gtol": 1e-10})
    else:
        def fun(x):
            return exact_energy(a.with_params(x), h)

        res = scipy.optimize.minimize(fun, x0, method="COBYLA",
                                      options={"maxiter": max_iter,
                                               "tol": 1e-12})
    nit = int(getattr(res, "nit", 0) or getattr(res, "nfev", 0))
    return np.asarray(res.x), float(res.fun), bool(res.success), nit


def optimize_noiseless(a: HVAnsatz, method: str = "quasi-newton",
                       restarts: int = 8,
                       rng: np.random.Generator | None = None,
                       max_iter: int = 50_000) -> VQEResult:
    """Multi-restart shot-free minimization of <H> over the ansatz angles.

    The incoming parameter point always competes with the random restarts,
    so the result never sits above the initial energy.  Restart angles are
    uniform in [-0.1, 0.1].
    """
    if rng is None:
        rng = np.random.default_rng(0)
    scipy_method = METHOD_ALIASES.get(method.lower())
    if scipy_method is None:
        raise ValueError(f"unknown method {method!r}")
    h = a.model.as_pauli_sum()
    starts = [np.asarray(a.params)]
    starts += [rng.uniform(-0.1, 0.1, a.n_params) for _ in range(restarts)]
    best_x, best_e, best_ok, best_nit = None, np.inf, False, 0
    for x0 in starts:
        x, e, ok, nit = _minimize_once(a, h, x0, scipy_method, max_iter)
        if e < best_e:
            best_x, best_e, best_ok, best_nit = x, e, ok, nit
    incoming = exact_energy(a, h)
    if incoming < best_e:
        best_x, best_e, best_ok = np.asarray(a.params), incoming, True
    return VQEResult(ansatz=a.with_params(best_x), energy=best_e,
                     converged=best_ok, iterations=best_nit)


def noisy_gradient_step(a: HVAnsatz, M: int, delta: float,
                        rng: np.random.Generator) -> HVAnsatz:
    """One Langevin-style descent step with injected shot noise.

    theta' = theta - delta grad<H> + eta, where eta is zero-mean Gaussian
    with per-component variance equal to the predicted estimator variance
    at M shots per group, split evenly over the parameters.  Noise therefore
    shrinks as 1/M and vanishes in the infinite-shot limit.
    """
    if delta <= 0:
        raise ValueError("step size must be positive")
    h = a.model.as_pauli_sum()
    _, grad = energy_and_gradient(a, h)
    groups = group_qubitwise(h)
    eps = predicted_error(prepare(a), h, ShotPlan.uniform(groups.n_groups, M),
                          groups)
    sigma = eps / np.sqrt(a.n_params)
    new = np.asarray(a.params) - delta * grad + rng.normal(0.0, sigma,
                                                           a.n_params)
    return a.with_params(new)


# ---------------------------------------------------------------------------
# Stochastic reconfiguration on the circuit ansatz
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SRMatrix:
    entries: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.entries, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("SR matrix must be square")
        if not np.allclose(s, s.T, atol=1e-10):
            raise ValueError("SR matrix must be symmetric")
        object.__setattr__(self, "entries", s)


def _derivative_states(a: HVAnsatz) -> tuple[StateVector, np.ndarray]:
    """|psi> and the matrix of derivative amplitudes d|psi>/dtheta_j.

    Row j is i G_j applied right after layer j; every later layer then acts
    on the rows already written, as one (j, 2^L) block.
    """
    model = a.model
    psi = init_plus(model.L).amplitudes.copy()
    derivs = np.zeros((a.n_params, psi.size), dtype=complex)
    for k, theta in enumerate(a.params):
        if k:
            _hva_layer(derivs[:k], model, k % 2, theta)
        _hva_layer(psi, model, k % 2, theta)
        derivs[k] = 1j * _apply_generator(psi, model, k % 2)
    return StateVector(psi), derivs


def sr_matrix(a: HVAnsatz, block_size: int | None = None) -> SRMatrix:
    """Quantum geometric tensor real part from exact derivative states.

    S_ij = Re[<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>].  With
    block_size set, entries outside consecutive diagonal blocks of that
    size are zeroed (block-diagonal approximation).
    """
    psi, derivs = _derivative_states(a)
    overlaps = derivs.conj() @ derivs.T
    with_psi = derivs.conj() @ psi.amplitudes
    s = np.real(overlaps - np.outer(with_psi, with_psi.conj()))
    s = (s + s.T) / 2
    if block_size is not None:
        keep = np.zeros_like(s, dtype=bool)
        for start in range(0, s.shape[0], block_size):
            end = min(start + block_size, s.shape[0])
            keep[start:end, start:end] = True
        s = np.where(keep, s, 0.0)
    return SRMatrix(s)


def _ridge_solve(s: np.ndarray, rhs: np.ndarray,
                 lam_reg: float | None) -> np.ndarray:
    """(S + lam I)^{-1} rhs; lam_reg None takes 1e-3 of S's largest diagonal."""
    if lam_reg is None:
        lam_reg = 1e-3 * max(float(np.max(np.diag(s))), 1e-12)
    return np.linalg.solve(s + lam_reg * np.eye(s.shape[0]), rhs)


def natural_gradient_step(a: HVAnsatz, delta: float,
                          lam_reg: float | None = None) -> HVAnsatz:
    """theta' = theta - delta (S + lam I)^{-1} grad<H> (descent direction)."""
    h = a.model.as_pauli_sum()
    _, grad = energy_and_gradient(a, h)
    s = sr_matrix(a).entries
    move = _ridge_solve(s, grad, lam_reg)
    return a.with_params(np.asarray(a.params) - delta * move)


# ---------------------------------------------------------------------------
# Amplitude-ratio estimation from shot records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioEstimate:
    ratio: float
    stderr: float
    defined: bool
    numerator_count: int
    denominator_count: int


def amplitude_ratio_estimate(s: StateVector, x: SpinConfiguration,
                             x_new: SpinConfiguration, M: int,
                             rng: np.random.Generator) -> RatioEstimate:
    """|<x'|psi>|^2 / |<x|psi>|^2 from empirical Z-basis frequencies.

    Of M shots only the counts n(x) and n(x') are read, so only they are
    drawn: n(x) ~ Bin(M, p_x), then n(x') ~ Bin(M - n(x), p_x' / (1 - p_x)),
    the joint law of two multinomial counts (Devroye, Non-Uniform Random
    Variate Generation, 1986, XI.1) in O(2^L) time and memory for any M.
    The error bar comes from multinomial delta-method propagation.  A zero
    denominator count marks the estimate undefined instead of raising.
    """
    if M < 1:
        raise ValueError("need at least one shot")
    for name, config in (("x", x), ("x_new", x_new)):
        if len(config.spins) != s.n_qubits:
            raise ValueError(f"{name} has {len(config.spins)} sites, the "
                             f"state {s.n_qubits} qubits")
    probs = np.diff(_normalized_cdf(s.probabilities()), prepend=0.0)
    ix, iy = x.to_index(), x_new.to_index()
    n_den = int(rng.binomial(M, probs[ix]))
    if ix == iy:
        return RatioEstimate(1.0, 0.0, n_den > 0, n_den, n_den)
    n_num = 0
    if n_den < M:  # so p_x < 1; the conditional p_x' may round above 1
        n_num = int(rng.binomial(M - n_den,
                                 min(1.0, probs[iy] / (1.0 - probs[ix]))))
    if n_den == 0:
        return RatioEstimate(np.nan, np.nan, False, n_num, 0)
    p = n_den / M
    q = n_num / M
    r = q / p
    var = (q * (1 - q) / p ** 2 + q ** 2 * (1 - p) / p ** 3
           + 2 * q ** 2 / p ** 2) / M
    return RatioEstimate(r, float(np.sqrt(var)), True, n_num, n_den)


def shots_for_ratio_precision(s: StateVector, x: SpinConfiguration,
                              x_new: SpinConfiguration, rel_target: float,
                              rng: np.random.Generator) -> int:
    """Smallest power-of-two shot count whose ratio stderr is on target.

    Doubles M from 64 to 2^26 until stderr/ratio <= rel_target with a
    defined, nonzero estimate and returns the first sufficient M; raises a
    ValueError when none of those counts is.
    """
    if not 0 < rel_target < np.inf:  # nan fails too
        raise ValueError(f"rel_target must be positive and finite, "
                         f"got {rel_target}")
    for m in (2 ** k for k in range(6, 27)):
        est = amplitude_ratio_estimate(s, x, x_new, m, rng)
        if est.defined and est.ratio > 0 and est.stderr / est.ratio <= rel_target:
            return m
    raise ValueError(f"no shot count up to {m} meets rel_target {rel_target}")
