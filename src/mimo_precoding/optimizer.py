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
at that same point. `_evaluate(W, spec) -> (f, grad)` is the one path to
them, for `objective`, `gradient` and the engine, so a gradient reuses the
products of the forward pass it follows.

The engine's vector x maps to W through one parametrization class: W itself
(`_ProjectionParam`) or a softmax reparametrization, feasible in exact
arithmetic (`_Softmax`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from . import lbfgs
from .baselines import BaselineConfig, compute_baseline
from .errors import DimensionError, InfiniteSusinrError, NumericalFailureError
from .irc import irc_backward, irc_forward
from .model import ChannelSet, SystemParams, check_power, is_count
from .quality import (PrecodingMatrix, as_array, as_precoder, cd_backward, cd_forward, cd_noise,
                      row_power)

OBJECTIVE_KINDS = ("cd", "irc")
START_KINDS = ("rzf", "arzf", "custom")


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to maximize: the conjugate-detection surrogate or the exact
    MMSE-IRC spectral efficiency, both composed with the power projection.

    "cd" evaluates the per-symbol surrogate on the projected precoder; "irc"
    rebuilds the MMSE-IRC detector from the projected precoder on every
    evaluation and differentiates through it. Both need positive noise power:
    sigma2 = 0 raises InfiniteSusinrError.
    """

    kind: str
    channel: ChannelSet
    params: SystemParams

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}, expected {OBJECTIVE_KINDS}")
        if self.params.sigma2 == 0:
            raise InfiniteSusinrError(
                f"the {self.kind} objective needs positive noise power, got sigma2 = 0")

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
        """wirtinger_grad at Wp; a NaN or inf entry raises NumericalFailureError
        before the chain rule sees it."""
        D = np.asarray(self.wirtinger_grad(Wp), dtype=np.complex128)
        if not np.isfinite(D).all():
            raise NumericalFailureError("gradient has non-finite entries")
        return D


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 200
    tol_grad: float = 1e-5      # infinity norm of the real-embedded gradient
    tol_change: float = 1e-9    # on both objective change and step norm
    memory: int = 10
    start: str | None = None    # None: the caller picks; lbfgs_maximize takes ARZF
    start_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.start_matrix is not None:
            try:
                start = np.asarray(self.start_matrix)
            except ValueError:  # rows of different lengths
                start = np.array(None)
            if start.ndim != 2 or start.dtype.kind not in "iufc":
                raise ValueError("start_matrix must be numeric: a 2-D (T, L) matrix, "
                                 f"got {self.start_matrix!r}")
            if not np.all(np.isfinite(start)):
                raise ValueError("start_matrix has non-finite entries")
        if not (is_count(self.max_iters) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")
        for name in ("tol_grad", "tol_change"):
            tol = getattr(self, name)
            if isinstance(tol, (bool, np.bool_)) or not 0 < tol < math.inf:
                raise ValueError(f"{name} must be a positive finite number, got {tol!r}")
        if not (is_count(self.memory) and self.memory >= 1):
            raise ValueError(f"memory must be an integer of at least 1, got {self.memory!r}")
        if self.start is not None and self.start not in START_KINDS:
            raise ValueError(f"unknown start {self.start!r}, expected one of {START_KINDS}")
        if self.start == "custom" and self.start_matrix is None:
            raise ValueError("start='custom' requires start_matrix")


@dataclass(frozen=True)
class OptimizationTrace:
    """Accepted iterates, why the run stopped and how many evaluations it
    used: n_value_evals line-search trials and n_grad_evals gradients. records
    is the engine's history; scores is score_fn at each record, or None."""

    records: tuple[lbfgs.IterationRecord, ...]
    termination: str
    n_value_evals: int
    n_grad_evals: int
    scores: tuple[float, ...] | None = None

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])


# ---------------------------------------------------------------------------
# Projection and its chain rule


def _inside(L: int) -> float:
    """The fraction of the cap P/T that _ball puts an exterior row's power at.

    With u = 2**-53 and g_n = n u / (1 - n u), the computed power of a row of
    n = 2L reals is within a relative g_n of the exact one, whatever the
    summation order, with or without fused multiply-adds, over the float64
    view or the complex einsum of W and conj(W) (at most L + 1 roundings per
    term). A rescaled row's computed power is then at most
    cap * inside * (1 + u)**6 (1 + g_n) / (1 - g_n): g_n for the power before
    and after the rescale, and u each for cap * inside, the divide, the
    square root (squared) and the scaling of an entry (squared). That exceeds
    cap * inside by about (4L + 6) u; the margin is twice it, so one rescale
    lands at or below the cap. It holds while nothing overflows and P/T and
    the row powers stay within 1e+-150, where an underflowing entry costs far
    less than the slack.
    """
    return 1.0 - (8 * L + 12) * 2.0**-53


def _ratio_over(num, power: np.ndarray, where, fill: float) -> np.ndarray:
    """num / power on the rows marked in the mask where and fill elsewhere,
    so rows inside the ball (zero rows too) are never divided. where is None
    when every row is outside, and a plain divide gives the same bits."""
    if where is None:
        return num / power
    return np.divide(num, power, out=np.full(power.shape, fill), where=where)


def _ball(W: np.ndarray, P: float):
    """Where W stands against the per-antenna power ball, decided once per
    point: its row power, the mask of rows outside the ball, the factor
    sqrt(cap * _inside(L) / power) that puts them just inside it (exactly 1.0
    on the other rows) and _ratio_over's where: the mask, or None when every
    row is outside. All but the power are None when every row is inside.
    The projection and its chain rule both start from it."""
    power = row_power(W)
    cap = P / W.shape[0]
    over = power > cap
    n_over = np.count_nonzero(over)
    if not n_over:
        return power, None, None, None
    where = None if n_over == over.size else over
    return power, over, np.sqrt(_ratio_over(cap * _inside(W.shape[1]), power, where, 1.0)), where


def project(W, P: float) -> np.ndarray:
    """Row-wise projection onto the per-antenna power ball of radius sqrt(P/T).

    Rows already within budget pass through untouched; rows outside are
    rescaled radially to the fraction _inside(L) of the cap, a relative
    (8L + 12) 2**-53 inside it in power: twice the worst rounding of the
    rescaled row's computed power, so every row power satisfies the budget
    in floating point after one rescale and the map is exactly idempotent.
    """
    check_power(P)
    Wm = as_array(W)
    return _project(Wm, _ball(Wm, P))


def _project(W: np.ndarray, ball) -> np.ndarray:
    """project(W, P) given _ball(W, P), which the chain rule reuses: one
    rescale, which _inside's margin keeps within the ball."""
    _, over, scale, _ = ball
    if over is None:
        return W.copy()
    return W * scale[:, None]


def _chain_projection(D: np.ndarray, W: np.ndarray, ball) -> np.ndarray:
    """Pull the gradient D at proj(W) back through the projection at W, given
    _ball(W, P) and its decision on which rows are outside.

    Interior rows (including rows exactly on the boundary) use the identity
    branch. For a row outside the ball the projection
    w -> w sqrt(cap * _inside(L))/||w|| contributes a tangential projection
    (the radial component of D carries no first-order change) scaled by the
    same factor _ball gives, so the margin is in the derivative too.
    """
    power, over, scale, where = ball
    if over is None:
        return D
    radial = np.einsum("ml,ml->m", D, W.conj()).real
    tangent = D - _ratio_over(radial, power, where, 0.0)[:, None] * W
    return scale[:, None] * tangent


# ---------------------------------------------------------------------------
# Objective values and complex ascent gradients


def _evaluate(W: np.ndarray, spec):
    """The one evaluation path: the objective value at the projection of W,
    and grad(), the complex ascent gradient there from the same forward pass.
    W's place against the power ball (_ball) is found once for both; W may be
    a view of the engine's vector, which the engine never writes into. grad()
    does not test finiteness: the engine tests its gradient's norm."""
    ball = _ball(W, spec.P)
    f, cache = spec.forward(_project(W, ball))
    return f, lambda: _chain_projection(spec.backward(cache), W, ball)


def objective(W, spec) -> float:
    """Objective value at the projection of W."""
    return _evaluate(as_precoder(W, spec.shape), spec)[0]


def gradient(W, spec) -> np.ndarray:
    """Complex ascent gradient of the projected objective at W."""
    D = _evaluate(as_precoder(W, spec.shape), spec)[1]()
    if not np.isfinite(D).all():
        raise NumericalFailureError("gradient has non-finite entries")
    return D


# ---------------------------------------------------------------------------
# Real embedding and the quasi-Newton drivers


def _starting_point(spec, cfg: OptimizerConfig) -> np.ndarray:
    if cfg.start_matrix is not None and cfg.start != "custom":
        raise ValueError(f"start_matrix is used only with start='custom', got start={cfg.start!r}")
    if cfg.start == "custom":
        W0 = np.asarray(cfg.start_matrix, dtype=np.complex128)
        if W0.shape != spec.shape:
            raise DimensionError(
                f"start_matrix must have shape (T, L) = {spec.shape}, got {W0.shape}")
        return project(W0, spec.P)
    if spec.kind == "custom":
        raise ValueError("custom objectives need start='custom' with start_matrix")
    base_cfg = BaselineConfig(kind=(cfg.start or "arzf").upper(), params=spec.params)
    return compute_baseline(spec.channel, base_cfg).W.copy()


class _ProjectionParam:
    """The engine's vector is W itself viewed as float64 (real and imaginary
    parts interleaved), so decoding and chaining copy nothing; the objective
    projects W, and the returned precoder is the projected iterate. P is
    taken for the common param_type(shape, P) signature; W needs none."""

    def __init__(self, shape: tuple[int, int], P: float):
        self.shape = shape

    def encode(self, W0: np.ndarray) -> np.ndarray:
        return np.array(W0, dtype=np.complex128, order="C").view(np.float64).ravel()

    def decode_full(self, x: np.ndarray):
        return x.view(np.complex128).reshape(self.shape), None

    def chain(self, D: np.ndarray, W: np.ndarray, aux) -> np.ndarray:
        return np.ascontiguousarray(D).view(np.float64).ravel()


def _maximize(spec, cfg: OptimizerConfig | None, score_fn, param_type):
    """Body shared by both drivers: starting point, parametrization, engine,
    precoder.

    param_type(shape, P) maps between the engine's real vector x and W:
    encode(W0) gives the first x, decode_full(x) gives W plus what chain(D, W,
    aux) needs to turn the ascent gradient D at W into the gradient over x.
    The precoder of an x is the projection of its W, the point the objective
    is evaluated at; it is what score_fn sees and what is returned. The
    trace's records are the engine's history; the engine gets a callback only
    when score_fn is given, to fill the trace's scores, one per record.
    """
    cfg = cfg or OptimizerConfig()
    param = param_type(spec.shape, spec.P)
    x0 = param.encode(_starting_point(spec, cfg))
    scores: list[float] = []  # score_fn at each record, if given

    def precoder(x):
        return project(param.decode_full(x)[0], spec.P)

    def on_iteration(i, x, f, grad_norm, step):
        scores.append(float(score_fn(precoder(x))))

    def evaluate(x):
        W, aux = param.decode_full(x)  # W may be a view of x
        f, grad = _evaluate(W, spec)
        return f, lambda: param.chain(grad(), W, aux)

    x, info = lbfgs.maximize(
        evaluate,
        x0,
        max_iters=cfg.max_iters,
        tol_grad=cfg.tol_grad,
        tol_change=cfg.tol_change,
        memory=cfg.memory,
        callback=None if score_fn is None else on_iteration,
    )
    return PrecodingMatrix(precoder(x)), OptimizationTrace(
        tuple(info["history"]), info["termination"], info["n_value_evals"],
        info["n_grad_evals"], None if score_fn is None else tuple(scores))


def lbfgs_maximize(spec, cfg: OptimizerConfig | None = None, score_fn=None):
    """Quasi-Newton ascent in precoder space through the differentiable projection.

    Starts from the configured closed-form precoder (ARZF when start is
    None) or a custom matrix; a start_matrix without start='custom' raises
    ValueError. It iterates on the real embedding of W and returns
    the projected result with its OptimizationTrace, the engine's history as
    records. When score_fn is given its values at the projected precoder of
    every accepted iterate are the trace's scores. A failed line search
    returns the best iterate found so far rather than raising.
    """
    return _maximize(spec, cfg, score_fn, _ProjectionParam)


# ---------------------------------------------------------------------------
# Softmax reparametrization


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _logit(p):
    return np.log(p) - np.log1p(-p)


class _Softmax:
    """Free parametrization of a feasible precoder; x packs (theta, eta, alpha).

    Row i distributes the fraction sigmoid(alpha_i) of its power budget P/T
    over streams via softmax(theta_i); phases are 2*pi*sigmoid(eta). Decoded
    rows are inside the power ball in exact arithmetic only: at a saturated
    sigmoid a computed row power can round above the cap.
    """

    def __init__(self, shape: tuple[int, int], P: float):
        self.shape = shape
        self.P = P

    def encode(self, W0: np.ndarray) -> np.ndarray:
        """Parameters whose decoding approximately reproduces W0."""
        W = np.asarray(W0, dtype=np.complex128)
        T = W.shape[0]
        power = np.abs(W) ** 2
        theta = np.log(power + 1e-12)
        frac = np.mod(np.angle(W), 2.0 * np.pi) / (2.0 * np.pi)
        eta = _logit(np.clip(frac, 1e-6, 1.0 - 1e-6))
        alpha = _logit(np.clip(T * power.sum(axis=1) / self.P, 1e-6, 1.0 - 1e-6))
        return np.concatenate([theta.ravel(), eta.ravel(), alpha])

    def decode_full(self, x: np.ndarray):
        """The precoder plus the stream shares p and the sigmoids of alpha and
        eta, which chain reuses."""
        T, L = self.shape
        theta, eta = x[:2 * T * L].reshape(2, T, L)
        t = theta - theta.max(axis=1, keepdims=True)
        e = np.exp(t)
        p = e / e.sum(axis=1, keepdims=True)
        sa = _sigmoid(x[2 * T * L:])
        se = _sigmoid(eta)
        q = p * sa[:, None] * (self.P / T)
        W = np.sqrt(q) * np.exp(1j * 2.0 * np.pi * se)
        return W, (p, sa, se)

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

    The decoded precoder is inside the power ball in exact arithmetic, so the
    projection inside the objective moves only rows that rounding puts above
    the cap, and the returned precoder is projected as lbfgs_maximize's is, so
    it meets the budget exactly. Uses the same quasi-Newton engine and
    configuration as lbfgs_maximize; expect slower convergence since boundary
    solutions require saturating sigmoids.
    """
    return _maximize(spec, cfg, score_fn, _Softmax)
