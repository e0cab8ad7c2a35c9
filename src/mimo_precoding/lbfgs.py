"""Limited-memory quasi-Newton ascent on real vectors.

Two-loop recursion with curvature pairs stored in the descent convention for
the negated objective, so the recursion applied to the ascent gradient yields
an ascent direction directly. Step lengths come from backtracking with a
sufficient-increase condition, which makes accepted objective values
non-decreasing by construction. The objective is one function,
evaluate(x) -> (f, grad), whose grad() runs once per history record: at x0
and at each accepted step; a NaN or inf gradient ends the run as a
MimoError does. Each pair's scaling s.y / y.y (Nocedal & Wright, eq. 7.20)
is taken once, when the pair is stored.

The vector work is level-1 BLAS (ddot, dscal, daxpy, positional arguments):
on these short vectors a BLAS call costs about a third of a numpy call. ddot
is the routine numpy's 1-D `@` calls. Each two-loop update r - a*y is one
daxpy with the multiplier -a (a - b for r + (a - b)*s), written into r. daxpy
may fuse the product into the sum, so the direction can differ from numpy's
r - a*y in the last bits; the recursion stays within a componentwise
forward-error bound of the exact one (tests/test_lbfgs.py pins it against
exact rational arithmetic).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dscal

from .errors import MimoError, NumericalFailureError

# Pairs with curvature at or below this are dropped and the history reset.
CURVATURE_MIN = 1e-12

# Armijo backtracking: each search starts at INITIAL_STEP, contracts by
# BACKTRACK after each rejected trial and gives up after MAX_LINE_SEARCH
# trials; a trial is accepted when f rises by at least ARMIJO_C1 * step * g.d.
INITIAL_STEP = 1.0
BACKTRACK = 0.5
MAX_LINE_SEARCH = 25
ARMIJO_C1 = 1e-4

TERM_GRADIENT = "gradient-tolerance"
TERM_CHANGE = "change-tolerance"
TERM_MAX_ITERS = "max-iterations"
TERM_LINE_SEARCH = "line-search-failure"
TERM_GRADIENT_FAILURE = "gradient-failure"


@dataclass(frozen=True)
class IterationRecord:
    """One accepted iterate: an entry of the engine's history, a trace's record."""

    iteration: int
    objective: float
    grad_norm: float   # infinity norm of the ascent gradient
    step: float        # accepted step length (0 for the starting record)


def _inf_norm(g: np.ndarray) -> float:
    # max |g_i| without an abs temporary; abs() turns a -0.0 maximum into 0.0.
    return abs(float(max(np.maximum.reduce(g), -np.minimum.reduce(g)))) if g.size else 0.0


def _two_loop(g: np.ndarray, pairs: deque | list, gamma: float) -> np.ndarray:
    if not pairs:
        return g.copy()
    # The BLAS wrappers return the arrays they wrote; they copy a non-contiguous
    # argument silently, so the returned ones are used throughout.
    r = g.copy()
    n = g.size
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * ddot(s, r)
        r = daxpy(y, r, n, -a)
        alphas.append(a)
    r = dscal(gamma, r)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * ddot(y, r)
        r = daxpy(s, r, n, a - b)
    return r


def maximize(evaluate, x0: np.ndarray, *, max_iters: int, tol_grad: float,
             tol_change: float, memory: int = 10):
    """Maximize a smooth function of a real vector.

    evaluate(x) returns (f, grad), with grad() the ascent gradient at x from
    that call's own work; grad may close over views of x, which the engine
    never writes into. grad runs exactly once per history record: at x0 and
    at each accepted step, the last one included when its gradient fails.

    Termination occurs when the gradient infinity norm drops to tol_grad, when
    both the objective change and the step norm drop to tol_change, when
    max_iters accepted steps have been taken, when no backtracking step
    satisfies the sufficient-increase condition, or when grad() raises a
    library error (MimoError) or gives a NaN or inf at an accepted step, which
    is then the returned iterate, with a NaN gradient norm in its history
    entry. A MimoError from evaluate rejects a trial; any error at x0 (a NaN or
    inf gradient as NumericalFailureError), and any other, propagates.

    Returns (x, info); info carries the termination reason, the history (a
    list of one IterationRecord per accepted iterate; entry 0 is the starting
    point) and the evaluation counters n_value_evals and n_grad_evals.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, grad = evaluate(x)
    g = np.asarray(grad(), dtype=float)
    n_grad = 1
    n_value = 0

    g_inf = _inf_norm(g)  # NaN or inf exactly when some entry of g is
    if not math.isfinite(g_inf):
        raise NumericalFailureError("gradient has non-finite entries")
    history = [IterationRecord(0, float(f), g_inf, 0.0)]

    pairs, gamma = deque(maxlen=memory), 1.0  # (s, y, 1 / s.y) oldest first; gamma of the newest
    last_df = None
    last_s = None
    termination = TERM_MAX_ITERS

    for t in range(1, max_iters + 1):
        if g_inf <= tol_grad:
            termination = TERM_GRADIENT
            break
        if (last_df is not None and last_df <= tol_change
                and float(np.linalg.norm(last_s)) <= tol_change):
            termination = TERM_CHANGE
            break

        d = _two_loop(g, pairs, gamma)
        gd = ddot(g, d)
        if not np.isfinite(gd) or gd <= 0.0:
            pairs.clear()
            d = g.copy()
            gd = ddot(g, g)

        step = INITIAL_STEP
        x_new = None
        for _ in range(MAX_LINE_SEARCH):
            cand = x + d if step == 1.0 else x + step * d  # 1.0 * d is d exactly
            n_value += 1
            try:
                f_new, grad = evaluate(cand)
            except MimoError:  # numerical trouble at a trial rejects it
                f_new = -np.inf
            if np.isfinite(f_new) and f_new >= f + ARMIJO_C1 * step * gd:
                x_new = cand
                break
            step *= BACKTRACK
        if x_new is None:
            termination = TERM_LINE_SEARCH
            break

        n_grad += 1
        try:
            g_new = np.asarray(grad(), dtype=float)
            g_inf_new = _inf_norm(g_new)
        except MimoError:
            g_inf_new = np.nan
        if not math.isfinite(g_inf_new):
            x, f, g_inf = x_new, float(f_new), np.nan
            history.append(IterationRecord(t, f, g_inf, step))
            termination = TERM_GRADIENT_FAILURE
            break

        s = x_new - x
        y = g - g_new  # descent-convention difference for the negated objective
        sy = ddot(s, y)
        if sy > CURVATURE_MIN:
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / ddot(y, y)
        else:
            pairs.clear()

        last_df = abs(float(f_new) - float(f))
        last_s = s
        x, f, g, g_inf = x_new, float(f_new), g_new, g_inf_new
        history.append(IterationRecord(t, f, g_inf, step))

    return x, {
        "termination": termination,
        "history": history,
        "n_value_evals": n_value,
        "n_grad_evals": n_grad,
    }
