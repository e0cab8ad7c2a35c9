"""Spectral-efficiency maximization over the precoder under per-antenna power
constraints.

The constrained problem is folded into an unconstrained one by composing the
objective with a row-wise differentiable projection onto the P/T power ball,
then running limited-memory quasi-Newton ascent on the real embedding of the
complex precoder. Gradients are complex ascent gradients (twice the derivative
with respect to the conjugated matrix) chained analytically through the
projection and, for the IRC objective, through the detector itself.

Every objective is a forward/backward pair behind one interface: its power
budget `P` and precoder `shape`, `forward(Wp) -> (value, cache)` at an
already-projected precoder and `backward(cache) -> complex ascent gradient`
at that same point. The drivers call nothing else, so a gradient reuses the
products of the forward pass it follows.

A softmax reparametrization of the precoder (feasible by construction) is
provided as an alternative route to the same problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from . import lbfgs
from .baselines import BaselineConfig, arzf, rzf
from .errors import DimensionError, MimoError, NumericalFailureError
from .irc import irc_backward, irc_forward
from .model import ChannelSet, SystemParams, is_count
from .quality import PrecodingMatrix, as_array, cd_backward, cd_forward, cd_noise

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

    @property
    def P(self) -> float:
        return self.params.P

    @property
    def shape(self) -> tuple[int, int]:
        return (self.channel.dims.T, self.channel.dims.L)

    @cached_property
    def _cd_noise(self) -> np.ndarray:
        """The CD surrogate's per-symbol noise, fixed for the spec."""
        return cd_noise(self.channel.S_tilde, self.params.sigma2, self.params.P)

    def forward(self, Wp: np.ndarray):
        """Objective value at the already-projected precoder Wp, together with
        what backward needs to differentiate it there."""
        if self.kind == "cd":
            return cd_forward(Wp, self.channel.V_tilde, self._cd_noise)
        return irc_forward(Wp, self.channel, self.params)

    def backward(self, cache) -> np.ndarray:
        """Complex ascent gradient at the projected point of a forward call."""
        return cd_backward(cache) if self.kind == "cd" else irc_backward(cache)


@dataclass(frozen=True)
class CustomObjective:
    """Escape hatch for driving the maximizer with an arbitrary smooth objective.

    value/wirtinger_grad act on the already-projected precoder; wirtinger_grad
    must return the complex ascent gradient. The forward cache is the
    projected precoder itself.
    """

    value: Callable[[np.ndarray], float]
    wirtinger_grad: Callable[[np.ndarray], np.ndarray]
    shape: tuple[int, int]
    P: float
    kind: ClassVar[str] = "custom"

    def forward(self, Wp: np.ndarray):
        return float(self.value(Wp)), Wp

    def backward(self, Wp: np.ndarray) -> np.ndarray:
        return np.asarray(self.wirtinger_grad(Wp), dtype=np.complex128)


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 200
    tol_grad: float = 1e-5      # infinity norm of the real-embedded gradient
    tol_change: float = 1e-9    # on both objective change and step norm
    memory: int = 10
    start: str = "arzf"
    start_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.start_matrix is not None and not np.all(np.isfinite(self.start_matrix)):
            raise ValueError("start_matrix has non-finite entries")
        if not (is_count(self.max_iters) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")
        if not (0 < self.tol_grad < math.inf and 0 < self.tol_change < math.inf):
            raise ValueError(f"tolerances must be positive and finite, got "
                             f"tol_grad={self.tol_grad!r}, tol_change={self.tol_change!r}")
        if not (is_count(self.memory) and self.memory >= 1):
            raise ValueError(f"memory must be an integer of at least 1, got {self.memory!r}")
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


def _ball(W: np.ndarray, P: float):
    """Where W stands against the per-antenna power ball, once per point:
    its row power, the mask of rows outside the ball and the factor
    sqrt(cap/power) that puts them on it (1.0 on the other rows). Mask and
    factor are None when every row is inside. The projection and its chain
    rule both start from it."""
    power = _row_power(W)
    cap = P / W.shape[0]
    over = power > cap
    if not over.any():
        return power, None, None
    return power, over, np.sqrt(_ratio_over(cap, power, over, 1.0))


def project(W, P: float) -> np.ndarray:
    """Row-wise projection onto the per-antenna power ball of radius sqrt(P/T).

    Rows already within budget pass through untouched; rows outside are
    rescaled onto the boundary. Rescaling repeats until every row power
    satisfies the budget in floating point, which makes the map exactly
    idempotent.
    """
    Wm = as_array(W)
    return _project(Wm, P, _ball(Wm, P))


def _project(W: np.ndarray, P: float, ball) -> np.ndarray:
    """project(W, P) given _ball(W, P), which the chain rule reuses."""
    _, over, scale = ball
    out = W.copy()
    for i in range(4):
        if i:
            _, over, scale = _ball(out, P)
        if over is None:
            break
        out *= scale[:, None]
    return out


def _chain_projection(D: np.ndarray, W: np.ndarray, ball) -> np.ndarray:
    """Pull the gradient D at proj(W) back through the projection at W, given
    _ball(W, P).

    Interior rows (including rows exactly on the boundary) use the identity
    branch. For a row outside the ball the projection w -> w sqrt(cap)/||w||
    contributes a tangential projection (the radial component of D carries no
    first-order change) scaled by sqrt(cap)/||w||.
    """
    power, over, scale = ball
    if over is None:
        return D
    radial = np.einsum("ml,ml->m", D, W.conj()).real
    tangent = D - _ratio_over(radial, power, over, 0.0)[:, None] * W
    return scale[:, None] * tangent


# ---------------------------------------------------------------------------
# Objective values and complex ascent gradients


def objective(W, spec) -> float:
    """Objective value at the projection of W."""
    return spec.forward(project(W, spec.P))[0]


def _pull_back(D: np.ndarray, W: np.ndarray, ball) -> np.ndarray:
    out = _chain_projection(D, W, ball)
    if not np.isfinite(out).all():
        raise NumericalFailureError("gradient has non-finite entries")
    return out


def gradient(W, spec) -> np.ndarray:
    """Complex ascent gradient of the projected objective at W."""
    Wm = as_array(W)
    ball = _ball(Wm, spec.P)
    _, cache = spec.forward(_project(Wm, spec.P, ball))
    return _pull_back(spec.backward(cache), Wm, ball)


# ---------------------------------------------------------------------------
# Real embedding and the quasi-Newton drivers


def _starting_point(spec, cfg: OptimizerConfig) -> np.ndarray:
    if cfg.start == "custom":
        W0 = np.asarray(cfg.start_matrix, dtype=np.complex128)
        if W0.shape != spec.shape:
            raise DimensionError(
                f"start_matrix must have shape (T, L) = {spec.shape}, got {W0.shape}")
        return project(W0, spec.P)
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
    has just accepted, passing the very array of the last value call, and
    never writes into an array it has handed out. So the forward pass of the
    last value call is kept, keyed on the identity of x, and reused: an
    accepted step costs its trials' forward passes plus one backward pass.
    The unprojected W's place against the power ball (_ball) is kept with
    it, since the projection and its chain rule both start from it.
    """

    def __init__(self, spec, param):
        self.spec = spec
        self.param = param
        self.P = spec.P
        self._x = None
        self._last = None

    def _forward(self, x: np.ndarray):
        if x is not self._x:
            W, aux = self.param.decode_full(x)  # W may be a view of x
            ball = _ball(W, self.P)
            f, cache = self.spec.forward(_project(W, self.P, ball))
            self._x, self._last = x, (f, W, ball, aux, cache)
        return self._last

    def value(self, x: np.ndarray) -> float:
        """Objective at a line-search trial; numerical trouble there (a
        MimoError) reads as -inf, which the engine rejects and backtracks."""
        try:
            return self._forward(x)[0]
        except MimoError:
            return -np.inf

    def value_and_grad(self, x: np.ndarray):
        f, W, ball, aux, cache = self._forward(x)
        D = _pull_back(self.spec.backward(cache), W, ball)
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
    param = param_type(spec.shape, spec.P)
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
