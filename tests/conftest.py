import numpy as np

from mimo_precoding import SystemDims, SystemParams, generate_channels, noise_from_susinr


def complex_randn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_channel(seed, K=2, T=8, R=2, L=1, model="iid-gaussian", rho=0.0):
    return generate_channels(SystemDims.uniform(K=K, T=T, R=R, L=L), seed=seed,
                             model=model, rho=rho)


def stacked(channel):
    """(R, T) channel of all users, rows in user order."""
    return np.vstack([u.H for u in channel.users])


def calibrated_params(channel, susinr_db=12.0, P=1.0):
    sigma2 = noise_from_susinr(channel, P, susinr_db)
    return SystemParams(P=P, sigma2=sigma2, L=channel.dims.L)


def embed(W):
    return np.concatenate([W.real.ravel(), W.imag.ravel()])


def fd_gradient(f, W, h=1e-6):
    """Central finite differences of a real scalar f over the real embedding of W."""
    shape = W.shape
    n = W.size
    x = embed(W)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f((xp[:n] + 1j * xp[n:]).reshape(shape))
                - f((xm[:n] + 1j * xm[n:]).reshape(shape))) / (2.0 * h)
    return g


def mixed_rows_precoder(rng, T, L, exterior_fraction=0.5, margin=0.3):
    """Random precoder whose rows sit clearly inside or clearly outside the
    unit power ball, keeping a margin so finite differences never cross the
    kink."""
    cap = 1.0 / T
    W = complex_randn(rng, (T, L))
    norms = np.sqrt(np.einsum("ml,ml->m", W, W.conj()).real)
    W = W / norms[:, None]
    outside = rng.random(T) < exterior_fraction
    scale = np.where(outside, (1.0 + margin) * np.sqrt(cap), (1.0 - margin) * np.sqrt(cap))
    return W * scale[:, None]
