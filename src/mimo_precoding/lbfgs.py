"""Limited-memory quasi-Newton ascent on real vectors.

Two-loop recursion with curvature pairs stored in the descent convention for
the negated objective, so the recursion applied to the ascent gradient yields
an ascent direction directly. Step lengths come from backtracking with a
sufficient-increase condition, which makes accepted objective values
non-decreasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pairs with curvature at or below this are dropped and the history reset.
CURVATURE_MIN = 1e-12

TERM_GRADIENT = "gradient-tolerance"
TERM_CHANGE = "change-tolerance"
TERM_MAX_ITERS = "max-iterations"
TERM_LINE_SEARCH = "line-search-failure"


@dataclass(frozen=True)
class StepInfo:
    iteration: int
    value: float
    grad_norm: float   # infinity norm of the ascent gradient
    step: float        # accepted step length (0 for the starting record)


def _inf_norm(g: np.ndarray) -> float:
    return float(np.max(np.abs(g))) if g.size else 0.0


def _two_loop(g: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    if not pairs:
        return g.copy()
    r = g.copy()
    scratch = np.empty_like(g)  # every scaled history vector is formed here
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ r)
        r -= np.multiply(a, y, out=scratch)
        alphas.append(a)
    s_last, y_last, _ = pairs[-1]
    r *= float(s_last @ y_last) / float(y_last @ y_last)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ r)
        r += np.multiply(s, a - b, out=scratch)
    return r


def maximize(value_and_grad, x0: np.ndarray, *, max_iters: int, tol_grad: float,
             tol_change: float, memory: int = 10, c1: float = 1e-4,
             backtrack: float = 0.5, max_line_search: int = 25,
             initial_step: float = 1.0, value=None, callback=None):
    """Maximize a smooth function of a real vector.

    value_and_grad(x) returns (f, g) with g the ascent gradient; value(x), when
    given, is a cheaper path used inside the line search. Termination occurs
    when the gradient infinity norm drops to tol_grad, when both the objective
    change and the step norm drop to tol_change, when max_iters accepted steps
    have been taken, or when no backtracking step satisfies the
    sufficient-increase condition.

    Returns (x, info); info carries the termination reason, a StepInfo history
    (entry 0 is the starting point) and evaluation counters.
    """
    if value is None:
        value = lambda x: value_and_grad(x)[0]

    x = np.asarray(x0, dtype=float).copy()
    f, g = value_and_grad(x)
    n_grad = 1
    n_value = 0
    g = np.asarray(g, dtype=float)

    g_inf = _inf_norm(g)
    history = [StepInfo(0, float(f), g_inf, 0.0)]
    if callback is not None:
        callback(0, x, f, history[0].grad_norm, 0.0)

    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    last_df = None
    last_dx = None
    termination = TERM_MAX_ITERS

    for t in range(1, max_iters + 1):
        if g_inf <= tol_grad:
            termination = TERM_GRADIENT
            break
        if last_df is not None and last_df <= tol_change and last_dx <= tol_change:
            termination = TERM_CHANGE
            break

        d = _two_loop(g, pairs)
        gd = float(g @ d)
        if not np.isfinite(gd) or gd <= 0.0:
            pairs.clear()
            d = g.copy()
            gd = float(g @ g)

        step = initial_step
        x_new = None
        for _ in range(max_line_search):
            cand = x + step * d
            f_cand = value(cand)
            n_value += 1
            if np.isfinite(f_cand) and f_cand >= f + c1 * step * gd:
                x_new = cand
                break
            step *= backtrack
        if x_new is None:
            termination = TERM_LINE_SEARCH
            break

        f_new, g_new = value_and_grad(x_new)
        n_grad += 1
        g_new = np.asarray(g_new, dtype=float)

        s = x_new - x
        y = g - g_new  # descent-convention difference for the negated objective
        sy = float(s @ y)
        if sy > CURVATURE_MIN:
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > memory:
                pairs.pop(0)
        else:
            pairs.clear()

        last_df = abs(float(f_new) - float(f))
        last_dx = float(np.linalg.norm(s))
        x, f, g = x_new, float(f_new), g_new
        g_inf = _inf_norm(g)

        info = StepInfo(t, f, g_inf, step)
        history.append(info)
        if callback is not None:
            callback(t, x, f, info.grad_norm, step)

    return x, {
        "termination": termination,
        "history": history,
        "n_value_evals": n_value,
        "n_grad_evals": n_grad,
    }
