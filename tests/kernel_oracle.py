"""The V-tensor entropy kernel: an oracle for ``buzzers._entropy_densities``.

It builds every transcript density ``V[t, m, x]`` gated by both
``[x_m = 0]`` and ``[t >= t_m]``, and sums each player's classes for both
bit values, so it needs nothing of the layout's structure: no class is
dropped as a single input, and the external entropy is summed on its own.
"""

import numpy as np

_TINY = np.finfo(float).tiny


def buzz_densities(
    times: np.ndarray, zeros: np.ndarray, log_w: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """V[t, m, x] = w_x e^{-Phi_x(t)} [x_m = 0] [t >= t_m].

    ``times[m]`` is player m's start time, ``zeros[x, i]`` marks x_i == 0
    and ``log_w`` holds the log input masses (-inf for a zero mass), or one
    row of them per abscissa.  Within a stretch of constant active set the
    density of a buzz does not depend on which player ``m`` buzzes; ``m``
    only gates it.
    """
    active = np.maximum(t[:, None] - times[None, :], 0.0)
    v = np.exp(log_w - active @ zeros.T)
    started = t[:, None] >= times[None, :]
    return v[:, None, :] * (started[:, :, None] * zeros.T[None, :, :])


def player_classes(bits: np.ndarray) -> np.ndarray:
    """(n_x, 2k) indicator; column ``2 i + b`` marks the inputs with x_i == b."""
    return np.stack([bits == 0, bits == 1], axis=2).reshape(len(bits), -1).astype(float)


def _xlogx(v: np.ndarray) -> np.ndarray:
    return v * np.log(np.maximum(v, _TINY))


def conditional_entropies(V: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Densities [H(X|T), H(X|T, X_1), ..., H(X|T, X_k)] in nats per abscissa.

    ``V[t, m, x]`` is the joint density of input ``x`` and transcript
    ``(t, m)``; each entropy is ``sum xlogx(class sums) - sum xlogx(V)``,
    summed over ``m``.  The difference is taken class by class, so a class
    holding one input contributes exactly zero.  Subnormal densities count
    as zero, as in the package kernel.
    """
    V = np.where(V < _TINY, 0.0, V)
    own = _xlogx(V)
    ext = (_xlogx(V.sum(axis=2)) - own.sum(axis=2)).sum(axis=1)
    rows = (-1, V.shape[2])  # one matrix product over every (t, m)
    per_class = _xlogx(V.reshape(rows) @ classes) - own.reshape(rows) @ classes
    per = per_class.reshape(*V.shape[:2], -1, 2).sum(axis=(1, 3))
    return np.concatenate([ext[:, None], per], axis=1)


def entropy_densities(times, bits, log_w, ts) -> np.ndarray:
    """The oracle's [H(X|T), H(X|T, X_1), ..., H(X|T, X_k)] densities at
    ``ts`` for one protocol, inputs given as rows of ``bits``."""
    V = buzz_densities(np.asarray(times, dtype=float), (bits == 0).astype(float), log_w, ts)
    return conditional_entropies(V, player_classes(bits))


def zero_bounds(g):
    """``g`` for ``quadrature.integrate``: its columns, then a zero round-off
    bound for each, so that only the tolerances accept a panel."""
    def f(t):
        vals = np.asarray(g(t), dtype=float)
        return np.hstack([vals, np.zeros_like(vals)])

    return f
