"""End-to-end acceptance checks. Each test prints one PASS/FAIL line; run with
`pytest tests/test_acceptance.py -v -s` to see them."""

import time

import numpy as np

from mimo_precoding import (
    BaselineConfig,
    CustomObjective,
    ObjectiveSpec,
    OptimizerConfig,
    ScenarioConfig,
    SystemDims,
    SystemParams,
    arzf,
    build_channel_set,
    compute_baseline,
    generate_channels,
    gradient,
    lbfgs_maximize,
    mmse_irc,
    noise_from_susinr,
    objective,
    project,
    read_channels,
    run_scenario,
    rzf,
    se_conjugate,
    softmax_maximize,
    spectral_efficiency_irc,
    symbol_sinr,
    write_channels,
    zf,
)
from mimo_precoding.harness import export_report

from conftest import calibrated_params, complex_randn, embed, fd_gradient, mixed_rows_precoder
from reference import conjugate, sinr_conjugate


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"\n[{status}] criterion {num}: {description}{tail}")
    return ok


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    shapes = [
        dict(K=2, T=8, R=2, L=1),
        dict(K=4, T=16, R=4, L=2),
    ]
    worst = 0.0
    pair = 0
    for shape in shapes:
        for i in range(10):
            pair += 1
            dims = SystemDims.uniform(**shape)
            channel = generate_channels(dims, seed=pair)
            params = calibrated_params(channel, susinr_db=10.0)
            rng = np.random.default_rng(1000 + pair)
            W = mixed_rows_precoder(rng, dims.T, dims.L, params.P)
            for kind in ("cd", "irc"):
                spec = ObjectiveSpec(kind=kind, channel=channel, params=params)
                g = embed(gradient(W, spec))
                fd = fd_gradient(lambda M: objective(M, spec), W)
                worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(fd))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    assert _report(1, "analytic gradients match central finite differences", ok,
                   f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 60.0


def test_criterion_2_monotonic_improvement():
    t0 = time.time()
    cfg = ScenarioConfig(
        seeds=tuple(range(40)),
        susinr_grid_db=(0.0, 12.0, 24.0),
        algorithms=("ARZF", "QN-IRC-ARZF"),
        optimizer=OptimizerConfig(max_iters=200),
    )
    report = run_scenario(cfg)
    assert not report.failures
    by_key = {(r.seed, r.susinr_db, r.algorithm): r.se_irc_bits for r in report.rows}
    cells = [(seed, susinr) for seed in cfg.seeds for susinr in cfg.susinr_grid_db]
    better_or_equal = sum(
        by_key[(s, q, "QN-IRC-ARZF")] >= by_key[(s, q, "ARZF")] for s, q in cells)
    strictly_better = sum(
        by_key[(s, q, "QN-IRC-ARZF")] > by_key[(s, q, "ARZF")] for s, q in cells)
    elapsed = time.time() - t0
    ok = better_or_equal == len(cells) and strictly_better >= 0.90 * len(cells) \
        and elapsed < 1800.0
    assert _report(
        2, "quasi-Newton IRC improves on its ARZF start across the grid", ok,
        f"{better_or_equal}/{len(cells)} >=, {strictly_better}/{len(cells)} strict, "
        f"{elapsed:.0f}s")
    assert better_or_equal == len(cells)
    assert strictly_better >= 0.90 * len(cells)
    assert elapsed < 1800.0


def _urban_like_channel(dims, seed, mean_gain_db=-25.0, gain_spread_db=8.0, rho=0.7):
    """Synthetic stand-in for an urban multi-user scenario: per-user log-normal
    link gains over antenna-correlated fading. The gain spread recreates the
    regime where adaptive regularization has room to work, and the mean gain
    places the noise calibration so the regularizers sweep the whole Gram
    spectrum across the quality grid."""
    base = generate_channels(dims, seed, model="exp-correlated", rho=rho)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 10**6]))
    gains_db = mean_gain_db + gain_spread_db * rng.standard_normal(dims.K)
    mats = [10.0 ** (gains_db[k] / 20.0) * base.users[k].H for k in range(dims.K)]
    return build_channel_set(mats, dims.L_k)


def test_criterion_3_qualitative_ordering():
    dims = SystemDims.uniform(K=8, T=64, R=4, L=2)
    grid = tuple(float(s) for s in range(-4, 41, 4))
    algos = ("MRT", "ZF", "RZF", "ARZF")
    sums = {(a, s): 0.0 for a in algos for s in grid}
    n_seeds = 40
    for seed in range(n_seeds):
        channel = _urban_like_channel(dims, seed)
        for s in grid:
            sigma2 = noise_from_susinr(channel, 1.0, s)
            params = SystemParams(P=1.0, sigma2=sigma2, L=dims.L)
            for a in algos:
                W = compute_baseline(channel, BaselineConfig(kind=a, params=params))
                sums[(a, s)] += spectral_efficiency_irc(W, channel, params).se_bits
    mean = {k: v / n_seeds for k, v in sums.items()}

    # Allow roundoff-level slack where methods coincide (the regularizers
    # vanish against the Gram spectrum at the top of the grid).
    arzf_ge_rzf = all(mean[("ARZF", s)] >= mean[("RZF", s)] - 1e-9 for s in grid)
    rzf_ge_zf = all(mean[("RZF", s)] >= mean[("ZF", s)] - 1e-9 for s in grid)
    zf_ge_mrt = all(mean[("ZF", s)] >= mean[("MRT", s)] for s in grid if s >= 8.0)
    ok = arzf_ge_rzf and rzf_ge_zf and zf_ge_mrt
    at8 = {a: round(mean[(a, 8.0)], 2) for a in algos}
    assert _report(3, "mean SE ordering ARZF >= RZF >= ZF, and ZF >= MRT from 8 dB", ok,
                   f"means at 8 dB: {at8}")
    assert arzf_ge_rzf
    assert rzf_ge_zf
    assert zf_ge_mrt


def test_criterion_4_detection_equivalences():
    shapes = [(2, 8, 2, 1), (2, 8, 3, 2), (4, 16, 4, 2), (3, 12, 4, 3), (1, 8, 4, 2)]
    worst_irc = 0.0
    worst_conj = 0.0
    worst_sinr = 0.0
    instances = 0
    for idx in range(100):
        K, T, R, L = shapes[idx % len(shapes)]
        channel = generate_channels(SystemDims.uniform(K=K, T=T, R=R, L=L), seed=idx)
        params = calibrated_params(channel, susinr_db=8.0)
        rng = np.random.default_rng(idx)
        W = complex_randn(rng, (T, K * L))
        lam = params.noise_to_signal
        for k, user in enumerate(channel.users):
            cols = channel.dims.layer_slice(k)
            # Simplified form vs explicit covariance form.
            G = mmse_irc(user.H, W, k, channel.dims, lam)
            W_k = W[:, cols]
            A = user.H @ W_k
            R_uu = user.H @ (W @ W.conj().T - W_k @ W_k.conj().T) @ user.H.conj().T
            G_cov = A.conj().T @ np.linalg.inv(A @ A.conj().T + R_uu + lam * np.eye(user.R_k))
            worst_irc = max(worst_irc, np.linalg.norm(G - G_cov) / np.linalg.norm(G_cov))
            # Conjugate identity and the per-symbol SINR equivalence.
            Gc = conjugate(user)
            worst_conj = max(worst_conj,
                             np.linalg.norm(Gc @ user.H - user.V_tilde)
                             / np.linalg.norm(user.V_tilde))
            for j in range(channel.dims.L_k[k]):
                l = cols.start + j
                a = symbol_sinr(W, user.H, Gc[j], params.sigma2, params.P, l)
                b = sinr_conjugate(W, channel.V_tilde[l], channel.S_tilde[l],
                                   params.sigma2, params.P, l)
                worst_sinr = max(worst_sinr, abs(a - b) / max(abs(b), 1e-300))
        instances += 1
    ok = instances == 100 and worst_irc <= 1e-10 and worst_conj <= 1e-10 \
        and worst_sinr <= 1e-10
    assert _report(4, "detection identities hold on 100 random instances", ok,
                   f"irc {worst_irc:.1e}, conj {worst_conj:.1e}, sinr {worst_sinr:.1e}")
    assert worst_irc <= 1e-10
    assert worst_conj <= 1e-10
    assert worst_sinr <= 1e-10


def test_criterion_5_degeneracy_chain():
    channel = generate_channels(SystemDims.uniform(K=2, T=8, R=2, L=2), seed=3)
    params0 = SystemParams(P=1.0, sigma2=0.0, L=channel.dims.L)
    w_zf = zf(channel, BaselineConfig(kind="ZF", params=params0)).W
    w_rzf = rzf(channel, BaselineConfig(kind="RZF", params=params0)).W
    w_arzf = arzf(channel, BaselineConfig(kind="ARZF", params=params0)).W
    err_zero_noise = max(np.linalg.norm(w_rzf - w_zf), np.linalg.norm(w_arzf - w_zf)) \
        / np.linalg.norm(w_zf)

    unit = build_channel_set([u.U.conj().T @ u.V for u in channel.users],
                             channel.dims.L_k)
    params = SystemParams(P=1.0, sigma2=0.4, L=unit.dims.L)
    a = arzf(unit, BaselineConfig(kind="ARZF", params=params)).W
    b = rzf(unit, BaselineConfig(kind="RZF", params=params)).W
    err_unit = np.linalg.norm(a - b) / np.linalg.norm(b)

    ok = err_zero_noise <= 1e-10 and err_unit <= 1e-10
    assert _report(5, "regularized precoders collapse to ZF at zero noise and "
                      "ARZF to RZF at flat singular values", ok,
                   f"zero-noise {err_zero_noise:.1e}, flat-spectrum {err_unit:.1e}")
    assert err_zero_noise <= 1e-10
    assert err_unit <= 1e-10


def test_criterion_6_optimizer_contracts():
    rng = np.random.default_rng(0)
    # Projection idempotency, bitwise.
    idempotent = True
    for _ in range(25):
        W = 3.0 * complex_randn(rng, (8, 3))
        once = project(W, 1.0)
        idempotent &= np.array_equal(once, project(once, 1.0))

    # Feasibility of returned precoders and monotone traces.
    feasible = True
    monotone = True
    for seed in range(5):
        channel = generate_channels(SystemDims.uniform(K=2, T=8, R=2, L=1), seed=seed)
        params = calibrated_params(channel)
        for kind in ("cd", "irc"):
            spec = ObjectiveSpec(kind=kind, channel=channel, params=params)
            W, trace = lbfgs_maximize(spec, OptimizerConfig(max_iters=80))
            feasible &= W.feasible(params.P, tol=1e-12)
            values = [r.objective for r in trace.records]
            monotone &= all(b >= a for a, b in zip(values, values[1:]))

    # Toy concave objective with a known interior optimum.
    target = 0.05 * complex_randn(rng, (4, 2))
    toy = CustomObjective(
        value=lambda M: -float(np.linalg.norm(M - target) ** 2),
        wirtinger_grad=lambda M: -2.0 * (M - target),
        shape=(4, 2), P=1.0)
    W_toy, trace_toy = lbfgs_maximize(
        toy, OptimizerConfig(max_iters=50, start="custom",
                             start_matrix=np.zeros((4, 2), dtype=complex)))
    toy_err = np.linalg.norm(W_toy.W - target)
    toy_ok = toy_err <= 1e-6 and trace_toy.iterations <= 50

    # Scalar boundary case against a dense 1-D scan.
    channel = generate_channels(SystemDims.uniform(K=1, T=1, R=1, L=1), seed=9)
    params = calibrated_params(channel, susinr_db=6.0)
    spec = ObjectiveSpec(kind="cd", channel=channel, params=params)
    W_s, _ = lbfgs_maximize(spec, OptimizerConfig(
        max_iters=100, start="custom", start_matrix=np.array([[0.1 + 0j]])))
    boundary_err = abs(abs(W_s.W[0, 0]) ** 2 - params.P)
    radii = np.linspace(0.0, np.sqrt(params.P), 20001)
    grid_best = max(se_conjugate(np.array([[r + 0j]]), channel.V_tilde,
                                 channel.S_tilde, params.sigma2, params.P)
                    for r in radii)
    scalar_ok = boundary_err <= 1e-8 and objective(W_s.W, spec) >= grid_best - 1e-9

    ok = idempotent and feasible and monotone and toy_ok and scalar_ok
    assert _report(6, "projection, feasibility, monotonicity and known optima", ok,
                   f"toy err {toy_err:.1e}, boundary err {boundary_err:.1e}")
    assert idempotent
    assert feasible
    assert monotone
    assert toy_ok
    assert scalar_ok


def test_criterion_7_softmax_parity():
    gaps = []
    iter_ratios = []
    for seed in range(20):
        channel = generate_channels(SystemDims.uniform(K=4, T=16, R=2, L=1), seed=seed)
        params = calibrated_params(channel, susinr_db=12.0)
        spec = ObjectiveSpec(kind="cd", channel=channel, params=params)
        W_p, t_p = lbfgs_maximize(spec, OptimizerConfig(max_iters=500))
        W_s, t_s = softmax_maximize(spec, OptimizerConfig(max_iters=3000))
        f_p = objective(W_p.W, spec)
        f_s = objective(W_s.W, spec)
        gaps.append((f_p - f_s) / f_p)
        iter_ratios.append(t_s.iterations / max(t_p.iterations, 1))
    worst_gap = max(gaps)
    ok = worst_gap <= 0.01
    # Iteration counts are reported, not asserted: the projection route is
    # expected to converge in far fewer steps.
    assert _report(7, "softmax parametrization reaches the projection method's value", ok,
                   f"worst gap {worst_gap:.3%}, median iteration ratio "
                   f"{np.median(iter_ratios):.1f}x")
    assert worst_gap <= 0.01


def test_criterion_8_harness_determinism(tmp_path):
    cfg = ScenarioConfig(
        dims=SystemDims.uniform(K=2, T=8, R=2, L=1),
        seeds=(0, 1),
        susinr_grid_db=(0.0, 12.0),
        algorithms=("RZF", "ARZF", "QN-CD-ARZF"),
        optimizer=OptimizerConfig(max_iters=15),
    )

    def csv_without_wall_ms(path):
        lines = []
        for line in path.read_text().splitlines():
            cells = line.split(",")
            del cells[4]
            lines.append(",".join(cells))
        return "\n".join(lines)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_report(run_scenario(cfg), "csv", a)
    export_report(run_scenario(cfg), "csv", b)
    deterministic = csv_without_wall_ms(a) == csv_without_wall_ms(b)

    dims = SystemDims.uniform(K=8, T=64, R=4, L=2)
    channel = generate_channels(dims, seed=0)
    f1, f2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    write_channels(channel, f1)
    write_channels(read_channels(f1), f2)
    round_trip = f1.read_bytes() == f2.read_bytes()
    size = f1.stat().st_size
    size_ok = size == 32848

    ok = deterministic and round_trip and size_ok
    assert _report(8, "byte-identical reports and bit-exact channel files", ok,
                   f"file size {size}")
    assert deterministic
    assert round_trip
    assert size_ok
