"""Spectral-efficiency maximization over the precoder under per-antenna power
constraints.

The constrained problem is folded into an unconstrained one by composing the
objective with a row-wise differentiable projection onto the P/T power ball,
then running limited-memory quasi-Newton ascent on the real embedding of the
complex precoder. Gradients are complex ascent gradients (twice the derivative
with respect to the conjugated matrix) chained analytically through the
projection and, for the IRC objective, through the detector itself.

A softmax reparametrization of the precoder (feasible by construction) is
provided as an alternative route to the same problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lbfgs
from .baselines import BaselineConfig, arzf, rzf
from .errors import MimoError, NumericalFailureError
from .irc import irc_backward, irc_forward
from .model import ChannelSet, SystemParams
from .quality import PrecodingMatrix, as_array, se_conjugate

_LN2 = math.log(2.0)

OBJECTIVE_KINDS = ("cd", "irc")
START_KINDS = ("rzf", "arzf", "custom")


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to maximize: the conjugate-detection surrogate or the exact
    MMSE-IRC spectral efficiency, both composed with the power projection.

    "cd" evaluates the per-symbol surrogate on the projected precoder; "irc"
    rebuilds the MMSE-IRC detector from the projected precoder on every
    evaluation and differentiates through it.
    """

    kind: str
    channel: ChannelSet
    params: SystemParams

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}, expected {OBJECTIVE_KINDS}")


@dataclass(frozen=True)
class CustomObjective:
    """Escape hatch for driving the maximizer with an arbitrary smooth objective.

    value/wirtinger_grad act on the already-projected precoder; wirtinger_grad
    must return the complex ascent gradient.
    """

    value: Callable[[np.ndarray], float]
    wirtinger_grad: Callable[[np.ndarray], np.ndarray]
    shape: tuple[int, int]
    P: float
    kind: str = "custom"


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 200
    tol_grad: float = 1e-5      # infinity norm of the real-embedded gradient
    tol_change: float = 1e-9    # on both objective change and step norm
    memory: int = 10
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_line_search: int = 25
    initial_step: float = 1.0
    start: str = "arzf"
    start_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.start_matrix is not None and not np.all(np.isfinite(self.start_matrix)):
            raise ValueError("start_matrix has non-finite entries")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol_grad <= 0 or self.tol_change <= 0:
            raise ValueError("tolerances must be positive")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if self.start not in START_KINDS:
            raise ValueError(f"unknown start {self.start!r}, expected one of {START_KINDS}")
        if self.start == "custom" and self.start_matrix is None:
            raise ValueError("start='custom' requires start_matrix")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    grad_norm: float
    step: float
    se_irc_bits: float | None = None


@dataclass(frozen=True)
class OptimizationTrace:
    """Accepted iterates, why the run stopped and how many evaluations it
    used: n_value_evals line-search trials and n_grad_evals gradients."""

    records: tuple[IterationRecord, ...]
    termination: str
    n_value_evals: int
    n_grad_evals: int

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])


# ---------------------------------------------------------------------------
# Projection and its chain rule


def _row_power(W: np.ndarray) -> np.ndarray:
    Wf = np.ascontiguousarray(W).view(np.float64)  # real, imaginary interleaved
    return np.einsum("ml,ml->m", Wf, Wf)


def _ratio_over(num, power: np.ndarray, over: np.ndarray, fill: float) -> np.ndarray:
    """num / power on the rows marked over and fill elsewhere, so rows inside
    the ball (zero rows too) are never divided."""
    return np.divide(num, power, out=np.full(power.shape, fill), where=over)


def project(W, P: float) -> np.ndarray:
    """Row-wise projection onto the per-antenna power ball of radius sqrt(P/T).

    Rows already within budget pass through untouched; rows outside are
    rescaled onto the boundary. Rescaling repeats until every row power
    satisfies the budget in floating point, which makes the map exactly
    idempotent.
    """
    Wm = as_array(W)
    return _project(Wm, P, _row_power(Wm))


def _project(W: np.ndarray, P: float, power: np.ndarray) -> np.ndarray:
    """project(W, P) given the row power of W, which the chain rule reuses."""
    cap = P / W.shape[0]
    out = W.copy()
    for _ in range(4):
        over = power > cap
        if not over.any():
            break
        out *= np.sqrt(_ratio_over(cap, power, over, 1.0))[:, None]
        power = _row_power(out)
    return out


def _chain_projection(D: np.ndarray, W: np.ndarray, P: float,
                      power: np.ndarray) -> np.ndarray:
    """Pull the gradient D at proj(W) back through the projection at W, given
    the row power of W.

    Interior rows (including rows exactly on the boundary) use the identity
    branch. For a row outside the ball the projection w -> w sqrt(cap)/||w||
    contributes a tangential projection (the radial component of D carries no
    first-order change) scaled by sqrt(cap)/||w||.
    """
    cap = P / W.shape[0]
    over = power > cap
    if not over.any():
        return D
    radial = np.einsum("ml,ml->m", D, W.conj()).real
    tangent = D - _ratio_over(radial, power, over, 0.0)[:, None] * W
    return np.sqrt(_ratio_over(cap, power, over, 1.0))[:, None] * tangent


# ---------------------------------------------------------------------------
# Objective values and complex ascent gradients


def _spec_power(spec) -> float:
    if spec.kind == "custom":
        return spec.P
    return spec.params.P


def _spec_shape(spec) -> tuple[int, int]:
    if spec.kind == "custom":
        return spec.shape
    return (spec.channel.dims.T, spec.channel.dims.L)


def _forward(Wp: np.ndarray, spec):
    """Objective value at the already-projected precoder Wp, together with
    what _backward needs to differentiate it there."""
    if spec.kind == "cd":
        ch, pr = spec.channel, spec.params
        return se_conjugate(Wp, ch.V_tilde, ch.S_tilde, pr.sigma2, pr.P), Wp
    if spec.kind == "irc":
        return irc_forward(Wp, spec.channel, spec.params)
    return float(spec.value(Wp)), Wp


def _backward(cache, spec) -> np.ndarray:
    """Complex ascent gradient at the projected point of a _forward call."""
    if spec.kind == "cd":
        return _cd_gradient(cache, spec.channel, spec.params)
    if spec.kind == "irc":
        return irc_backward(cache)
    return np.asarray(spec.wirtinger_grad(cache), dtype=np.complex128)


def objective(W, spec) -> float:
    """Objective value at the projection of W."""
    return _forward(project(W, _spec_power(spec)), spec)[0]


def _cd_gradient(Wp: np.ndarray, channel: ChannelSet, params: SystemParams) -> np.ndarray:
    Vt = channel.V_tilde
    s = channel.S_tilde
    A = Vt @ Wp                                    # (L, L), entry (l, i) = v_l w_i
    power = np.abs(A) ** 2
    noise = params.sigma2 / (params.P * s**2)
    off_power = power.copy()
    np.fill_diagonal(off_power, 0.0)
    totals = power.sum(axis=1) + noise
    rest = off_power.sum(axis=1) + noise
    A_off = A.copy()
    np.fill_diagonal(A_off, 0.0)
    M = A / totals[:, None] - A_off / rest[:, None]
    return (2.0 / _LN2) * (Vt.conj().T @ M)


def _pull_back(D: np.ndarray, W: np.ndarray, P: float, power: np.ndarray) -> np.ndarray:
    out = _chain_projection(D, W, P, power)
    if not np.isfinite(out).all():
        raise NumericalFailureError("gradient has non-finite entries")
    return out


def gradient(W, spec) -> np.ndarray:
    """Complex ascent gradient of the projected objective at W."""
    Wm = as_array(W)
    P = _spec_power(spec)
    power = _row_power(Wm)
    _, cache = _forward(_project(Wm, P, power), spec)
    return _pull_back(_backward(cache, spec), Wm, P, power)


# ---------------------------------------------------------------------------
# Real embedding and the quasi-Newton drivers


def _starting_point(spec, cfg: OptimizerConfig) -> np.ndarray:
    P = _spec_power(spec)
    if cfg.start == "custom":
        return project(np.asarray(cfg.start_matrix, dtype=np.complex128), P)
    if spec.kind == "custom":
        raise ValueError("custom objectives need start='custom' with start_matrix")
    base_cfg = BaselineConfig(kind=cfg.start.upper(), params=spec.params)
    builder = rzf if cfg.start == "rzf" else arzf
    return builder(spec.channel, base_cfg).W.copy()


class _ProjectionParam:
    """The engine's vector is W itself viewed as float64 (real and imaginary
    parts interleaved), so decoding and chaining copy nothing; the objective
    projects W, and the returned precoder is the projected iterate."""

    def __init__(self, shape: tuple[int, int], P: float):
        self.shape = shape
        self.P = P

    def encode(self, W0: np.ndarray) -> np.ndarray:
        return np.array(W0, dtype=np.complex128, order="C").view(np.float64).ravel()

    def decode_full(self, x: np.ndarray):
        return x.view(np.complex128).reshape(self.shape), None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return project(self.decode_full(x)[0], self.P)

    def chain(self, D: np.ndarray, W: np.ndarray, aux) -> np.ndarray:
        return np.ascontiguousarray(D).view(np.float64).ravel()


class _Evaluator:
    """Objective value and gradient over the engine's vector x.

    The engine asks for value_and_grad only at the line-search candidate it
    has just accepted, so the forward pass of the last value call is kept and
    reused: an accepted step costs its trials' forward passes plus one
    backward pass. The row power of the unprojected W is kept with it, since
    the projection and its chain rule both start from it.
    """

    def __init__(self, spec, param):
        self.spec = spec
        self.param = param
        self.P = _spec_power(spec)
        self._x = None
        self._last = None

    def _forward(self, x: np.ndarray):
        if self._x is None or not np.array_equal(x, self._x):
            x = x.copy()  # W may be a view of x
            W, aux = self.param.decode_full(x)
            power = _row_power(W)
            f, cache = _forward(_project(W, self.P, power), self.spec)
            self._x, self._last = x, (f, W, power, aux, cache)
        return self._last

    def value(self, x: np.ndarray) -> float:
        """Objective at a line-search trial; numerical trouble there (a
        MimoError) reads as -inf, which the engine rejects and backtracks."""
        try:
            return self._forward(x)[0]
        except MimoError:
            return -np.inf

    def value_and_grad(self, x: np.ndarray):
        f, W, power, aux, cache = self._forward(x)
        D = _pull_back(_backward(cache, self.spec), W, self.P, power)
        return f, self.param.chain(D, W, aux)


def _maximize(spec, cfg: OptimizerConfig | None, score_fn, param_type):
    """Body shared by both drivers: starting point, parametrization, engine,
    precoder.

    param_type(shape, P) maps between the engine's real vector x and W:
    encode(W0) gives the first x, decode_full(x) gives W plus what chain(D, W,
    aux) needs to turn the ascent gradient D at W into the gradient over x,
    and param(x) is the precoder returned for the final x.
    """
    cfg = cfg or OptimizerConfig()
    param = param_type(_spec_shape(spec), _spec_power(spec))
    x0 = param.encode(_starting_point(spec, cfg))
    records: list[IterationRecord] = []

    def on_iteration(i, x, f, grad_norm, step):
        se = None
        if score_fn is not None:
            se = float(score_fn(param(x)))
        records.append(IterationRecord(i, float(f), float(grad_norm), float(step), se))

    evaluator = _Evaluator(spec, param)
    x, info = lbfgs.maximize(
        evaluator.value_and_grad,
        x0,
        max_iters=cfg.max_iters,
        tol_grad=cfg.tol_grad,
        tol_change=cfg.tol_change,
        memory=cfg.memory,
        c1=cfg.armijo_c1,
        backtrack=cfg.backtrack,
        max_line_search=cfg.max_line_search,
        initial_step=cfg.initial_step,
        value=evaluator.value,
        callback=on_iteration,
    )
    return PrecodingMatrix(param(x)), OptimizationTrace(
        tuple(records), info["termination"], info["n_value_evals"], info["n_grad_evals"])


def lbfgs_maximize(spec, cfg: OptimizerConfig | None = None, score_fn=None):
    """Quasi-Newton ascent in precoder space through the differentiable projection.

    Starts from the configured closed-form precoder (or a custom matrix),
    iterates on the real embedding of W and returns the projected result with
    its per-iteration trace. When score_fn is given it is evaluated on the
    projected precoder at every accepted iterate and stored in the trace.
    A failed line search returns the best iterate found so far rather than
    raising.
    """
    return _maximize(spec, cfg, score_fn, _ProjectionParam)


# ---------------------------------------------------------------------------
# Softmax reparametrization


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _logit(p):
    return np.log(p) - np.log1p(-p)


@dataclass(frozen=True)
class SoftmaxParams:
    """Free parametrization of a feasible precoder.

    Row i distributes the fraction sigmoid(alpha_i) of its power budget P/T
    over streams via softmax(theta_i); phases are 2*pi*sigmoid(eta). Decoded
    rows therefore always sit strictly inside the power ball.
    """

    theta: np.ndarray  # (T, L)
    eta: np.ndarray    # (T, L)
    alpha: np.ndarray  # (T,)

    def decode(self, P: float) -> np.ndarray:
        return self._decode_full(P)[0]

    def _decode_full(self, P: float):
        """The precoder plus the stream shares p and the sigmoids of alpha and
        eta, which the gradient chain reuses."""
        t = self.theta - self.theta.max(axis=1, keepdims=True)
        e = np.exp(t)
        p = e / e.sum(axis=1, keepdims=True)
        sa = _sigmoid(self.alpha)
        se = _sigmoid(self.eta)
        T = self.theta.shape[0]
        q = p * sa[:, None] * (P / T)
        W = np.sqrt(q) * np.exp(1j * 2.0 * np.pi * se)
        return W, (p, sa, se)

    @classmethod
    def from_precoder(cls, W0: np.ndarray, P: float) -> "SoftmaxParams":
        """Initialize so that decoding approximately reproduces W0."""
        W = np.asarray(W0, dtype=np.complex128)
        T = W.shape[0]
        power = np.abs(W) ** 2
        theta = np.log(power + 1e-12)
        frac = np.mod(np.angle(W), 2.0 * np.pi) / (2.0 * np.pi)
        eta = _logit(np.clip(frac, 1e-6, 1.0 - 1e-6))
        row_power = power.sum(axis=1)
        alpha = _logit(np.clip(T * row_power / P, 1e-6, 1.0 - 1e-6))
        return cls(theta=theta, eta=eta, alpha=alpha)


class _SoftmaxDecoder:
    """Maps the packed (theta, eta, alpha) vector to W and chains gradients back."""

    def __init__(self, shape: tuple[int, int], P: float):
        self.shape = shape
        self.P = P
        self.n = shape[0] * shape[1]

    def unpack(self, x: np.ndarray) -> SoftmaxParams:
        T, L = self.shape
        n = self.n
        return SoftmaxParams(
            theta=x[:n].reshape(T, L),
            eta=x[n:2 * n].reshape(T, L),
            alpha=x[2 * n:],
        )

    def encode(self, W0: np.ndarray) -> np.ndarray:
        sp = SoftmaxParams.from_precoder(W0, self.P)
        return np.concatenate([sp.theta.ravel(), sp.eta.ravel(), sp.alpha])

    def decode_full(self, x: np.ndarray):
        return self.unpack(x)._decode_full(self.P)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.decode_full(x)[0]

    def chain(self, D: np.ndarray, W: np.ndarray, aux) -> np.ndarray:
        """Real gradient for the packed parameters from the complex ascent
        gradient D at W = decode(x).

        With r = Re(conj(D) * W) elementwise, the magnitude chain reduces to
        d/d theta_ik = (r_ik - p_ik * sum_j r_ij) / 2 and
        d/d alpha_i = (1 - sigmoid(alpha_i)) * sum_j r_ij / 2, with no division
        by the (possibly tiny) amplitudes. Phases use the imaginary part.
        """
        p, sa, se = aux
        cross = np.conj(D) * W
        r = cross.real
        row = r.sum(axis=1)
        d_theta = 0.5 * (r - p * row[:, None])
        d_alpha = 0.5 * (1.0 - sa) * row
        d_eta = -cross.imag * (2.0 * np.pi) * se * (1.0 - se)
        return np.concatenate([d_theta.ravel(), d_eta.ravel(), d_alpha])


def softmax_maximize(spec, cfg: OptimizerConfig | None = None, score_fn=None):
    """Maximize the same objective over the softmax parameters.

    The decoded precoder is feasible by construction (strictly inside the power
    ball), so the projection inside the objective is the identity along the
    whole trajectory. Uses the same quasi-Newton engine and configuration as
    lbfgs_maximize; expect slower convergence since boundary solutions require
    saturating sigmoids.
    """
    return _maximize(spec, cfg, score_fn, _SoftmaxDecoder)
