"""Acceptance suite: one test per contract criterion, each printing a
PASS line with its measured quantities (run with -s to see them)."""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from morlkit.ccs import aols
from morlkit.cli import main
from morlkit.core import ValueVector
from morlkit.envs import (
    SingleObjectiveView,
    ToyLocomotion,
    TreasureGrid,
    boxed_treasure,
    random_tabular_momdp,
    value_iteration,
)
from morlkit.explain import (
    MAXIMIZE,
    MINIMIZE,
    ExplainSweep,
    QaObjective,
    QaSpec,
    generate_alternatives,
    render_contrastive,
    render_policy_statement,
)
from morlkit.nets import (
    GaussianPolicyParams,
    gaussian_log_prob_backward,
    gaussian_log_prob_with_cache,
    mlp_backward,
    mlp_forward,
    mlp_from_param_list,
    mlp_init,
    mlp_param_list,
    mlp_to_arrays,
    policy_from_param_list,
    policy_param_list,
    policy_to_arrays,
)
from morlkit.training import (
    TrainerConfig,
    clipped_surrogate,
    evaluate_policy,
    gae,
    train,
)
from reference_ccs import exact_ccs
from reference_trainer import train_single_objective

GOLDEN = Path(__file__).parent / "golden"


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def benchmark_momdp(seed: int):
    rng = np.random.default_rng(seed)
    num_states = int(rng.integers(4, 9))
    num_actions = int(rng.integers(2, 4))
    return random_tabular_momdp(rng, num_states, num_actions, 2, discount=0.85)


def test_criterion_1_aols_exactness():
    """AOLS equals the exact coverage set, from all deterministic policies,
    on 25 seeded tabular instances."""
    started = time.monotonic()
    for seed in range(25):
        m = benchmark_momdp(seed)
        result = aols(lambda w: value_iteration(m, w)[1], 2, 1e-6)
        reference = exact_ccs(m)
        got = sorted(v.values for v in result.ccs.vectors)
        want = sorted(v.values for v in reference)
        assert len(got) == len(want), f"seed {seed}: {len(got)} vs {len(want)} vectors"
        for a, b in zip(got, want):
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-6, f"seed {seed}"
        assert result.delta_max <= 1e-6, f"seed {seed}: delta_max {result.delta_max}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report("1 aols-exactness", f"25/25 instances matched in {elapsed:.1f}s")


def test_criterion_2_delta_r_convergence():
    """Remaining-improvement curve shrinks to zero on exact oracles and the
    learned runs converge under 0.05 within 40 updates."""
    started = time.monotonic()
    # Exact-oracle shape: non-increasing after set-extending pops, ends at 0.
    for seed in range(10):
        m = benchmark_momdp(seed)
        result = aols(lambda w: value_iteration(m, w)[1], 2, 1e-6)
        finite = [
            it.remaining_delta_r
            for it in result.history
            if not math.isinf(it.remaining_delta_r)
        ]
        for before, after in zip(finite, finite[1:]):
            assert after <= before + 1e-12, f"seed {seed}: {before} -> {after}"
        assert result.history[-1].remaining_delta_r == 0.0
    # Learned setting: two-objective treasure hunt, 5 seeds, 40 updates.
    grid = TreasureGrid(
        width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10
    )
    converged = 0
    finals = []
    for seed in range(5):
        cfg = TrainerConfig(
            objective_count=2, updates_per_objective=20, steps_per_update=512,
            env_copies=1, epochs_per_update=10, minibatch_size=64,
            discount=0.95, seed=seed,
        )
        artifacts = train(lambda: boxed_treasure(grid), cfg)
        assert len(artifacts.metrics) == 40
        final = artifacts.metrics[-1].delta_r
        finals.append(final)
        converged += final < 0.05
    elapsed = time.monotonic() - started
    assert converged >= 4, f"only {converged}/5 seeds converged: {finals}"
    assert elapsed < 1200.0, f"runtime {elapsed:.1f}s exceeds 20min"
    report(
        "2 delta-r-convergence",
        f"exact curve monotone to 0; {converged}/5 learned seeds < 0.05 in {elapsed:.0f}s",
    )


def test_criterion_3_gae_identity():
    """Backward recursion equals the explicit double sum on 1000 sequences."""
    started = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        deltas = rng.standard_normal(n)
        dones = rng.random(n) < 0.2
        gamma = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        explicit = np.zeros(n)
        for t in range(n):
            acc = 0.0
            factor = 1.0
            for l in range(t, n):
                acc += factor * deltas[l]
                if dones[l]:
                    break
                factor *= gamma * lam
            explicit[t] = acc
        worst = max(worst, float(np.max(np.abs(gae(deltas, dones, gamma, lam) - explicit))))
    elapsed = time.monotonic() - started
    assert worst < 1e-12, f"max abs diff {worst}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    report("3 gae-identity", f"1000 sequences, max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_gradient_fidelity():
    """Analytic MLP and policy gradients match central finite differences."""
    started = time.monotonic()
    rng = np.random.default_rng(42)
    h = 1e-5
    worst = 0.0
    for trial in range(50):
        policy_case = trial % 2 == 1
        sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(2, 5)))]
        if policy_case:
            net = mlp_init(sizes, rng, output_gain=0.5)
            pol = GaussianPolicyParams(net, rng.uniform(-0.5, 0.5, sizes[-1]))
            states = rng.standard_normal((3, sizes[0]))
            actions = rng.standard_normal((3, sizes[-1]))
            coeff = rng.standard_normal(3)
            params = policy_param_list(pol)

            def scalar(plist):
                p = policy_from_param_list(pol, plist)
                logp, _ = gaussian_log_prob_with_cache(p, states, actions)
                return float(coeff @ logp)

            _, cache = gaussian_log_prob_with_cache(pol, states, actions)
            analytic = gaussian_log_prob_backward(pol, cache, coeff)
        else:
            net = mlp_init(sizes, rng)
            x = rng.standard_normal((1, sizes[0]))
            probe = rng.standard_normal((1, sizes[-1]))
            params = mlp_param_list(net)

            def scalar(plist):
                out, _ = mlp_forward(mlp_from_param_list(net, plist), x)
                return float(out[0] @ probe[0])

            _, cache = mlp_forward(net, x)
            analytic = mlp_backward(net, cache, probe)
        numeric_max = 0.0
        diff_max = 0.0
        for k, p in enumerate(params):
            for idx in range(p.size):
                bump = np.zeros(p.shape)
                bump.flat[idx] = h
                plus = [q.copy() for q in params]
                minus = [q.copy() for q in params]
                plus[k] = p + bump
                minus[k] = p - bump
                numeric = (scalar(plus) - scalar(minus)) / (2 * h)
                numeric_max = max(numeric_max, abs(numeric))
                diff_max = max(diff_max, abs(numeric - analytic[k].flat[idx]))
        rel = diff_max / max(numeric_max, 1e-8)
        worst = max(worst, rel)
        assert rel < 1e-4, f"trial {trial}: relative error {rel}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report("4 gradient-fidelity", f"50 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_ppo_clip_contract():
    """Surrogate identity at the behavior policy, zero gradient in the
    clipped region, and exact reduction to single-objective training."""
    rng = np.random.default_rng(3)
    logp = rng.standard_normal(256)
    adv = rng.standard_normal(256)
    value, grad, mask = clipped_surrogate(logp, logp.copy(), adv, 0.2)
    assert value == float(adv.mean())
    assert not mask.any()
    # Constructed saturated ratios: gradient contributions exactly zero.
    logp_old = np.zeros(4)
    logp_new = np.log(np.array([1.5, 2.0, 0.5, 0.2]))
    adv_s = np.array([1.0, 2.0, -1.0, -2.0])
    _, grad_s, mask_s = clipped_surrogate(logp_new, logp_old, adv_s, 0.2)
    assert mask_s.all()
    assert np.array_equal(grad_s, np.zeros(4))
    # Bit-identical reduction at objective_count=1 under a shared seed.
    grid = TreasureGrid(
        width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10
    )
    factory = lambda: SingleObjectiveView(boxed_treasure(grid), 0)
    cfg = TrainerConfig(
        objective_count=1, updates_per_objective=6, steps_per_update=256,
        env_copies=2, epochs_per_update=4, minibatch_size=64, discount=0.95, seed=11,
    )
    engine = train(factory, cfg)
    reference = train_single_objective(factory, cfg)
    assert engine.metrics == reference.metrics
    pa, pb = policy_to_arrays(engine.actor), policy_to_arrays(reference.actor)
    assert set(pa) == set(pb) and all(np.array_equal(pa[k], pb[k]) for k in pa)
    ca = mlp_to_arrays(engine.critics.nets[0], "c")
    cb = mlp_to_arrays(reference.critics.nets[0], "c")
    assert all(np.array_equal(ca[k], cb[k]) for k in ca)
    report("5 ppo-clip-contract", "surrogate identity, clip zero-grad, bit-equal reduction")


def test_criterion_6_iorm_well_formedness():
    """Every trained relationship-matrix row lies on the simplex; the
    one-objective case is exactly [1]."""
    grid = TreasureGrid(
        width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10
    )
    cfg = TrainerConfig(
        objective_count=2, updates_per_objective=3, steps_per_update=128,
        env_copies=2, epochs_per_update=2, minibatch_size=32, discount=0.95, seed=0,
    )
    artifacts = train(lambda: boxed_treasure(grid), cfg)
    for row in artifacts.iorm.rows:
        assert abs(sum(row.weights) - 1.0) <= 1e-9
        assert min(row.weights) >= 0.0
    loco = train(
        lambda: ToyLocomotion(horizon=40),
        TrainerConfig(
            objective_count=4, updates_per_objective=1, steps_per_update=64,
            env_copies=2, epochs_per_update=2, minibatch_size=32, seed=1,
        ),
    )
    for row in loco.iorm.rows:
        assert abs(sum(row.weights) - 1.0) <= 1e-9
        assert min(row.weights) >= 0.0
    single = train(
        lambda: SingleObjectiveView(boxed_treasure(grid), 0),
        replace(cfg, objective_count=1, seed=2),
    )
    assert single.iorm.matrix.tolist() == [[1.0]]
    report("6 iorm-well-formedness", "rows on simplex after 2-, 4-, and 1-objective runs")


def test_criterion_7_alternative_generation_fidelity():
    """Hand-traced pool reproduced exactly; anchor and attribute-removal
    rules hold over 200 random pools."""
    qa = QaSpec(
        (
            QaObjective("A", MAXIMIZE, "the first score"),
            QaObjective("B", MAXIMIZE, "the second score"),
        )
    )
    cfg = (ExplainSweep(1.0, 4.0, 2),) * 2
    current = ValueVector((1.0, 1.0))
    pool = [current, ValueVector((2.0, 0.5)), ValueVector((1.2, 3.0))]
    alts = generate_alternatives(pool, current, qa, cfg)
    assert [(a.anchor_index, a.achieved.values) for a in alts] == [
        (0, (2.0, 0.5)),
        (1, (1.2, 3.0)),
    ]
    assert alts[0].gains == {0: pytest.approx(1.0)}
    assert alts[0].losses == {1: pytest.approx(-0.5)}
    assert alts[1].losses == {}
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 4))
        directions = [MAXIMIZE if rng.random() < 0.5 else MINIMIZE for _ in range(dim)]
        spec = QaSpec(
            tuple(QaObjective(f"q{k}", directions[k], f"o{k}") for k in range(dim))
        )
        orient = spec.orientation()
        increments = tuple(float(x) for x in rng.uniform(0.2, 1.5, dim))
        caps = tuple(float(x) for x in rng.uniform(2.0, 6.0, dim))
        budgets = tuple(int(b) for b in rng.integers(1, 4, dim))
        ecfg = tuple(map(ExplainSweep, increments, caps, budgets))
        cur = ValueVector(tuple(rng.uniform(-2, 2, dim)))
        lib = [cur] + [
            ValueVector(tuple(rng.uniform(-3, 3, dim)))
            for _ in range(int(rng.integers(1, 7)))
        ]
        found = generate_alternatives(lib, cur, spec, ecfg)
        assert len(found) <= sum(budgets)
        cur_u = orient * cur.array
        for alt in found:
            got_u = orient * alt.achieved.array
            assert got_u[alt.anchor_index] >= alt.target - 1e-9
            assert (
                got_u[alt.anchor_index]
                >= cur_u[alt.anchor_index] + increments[alt.anchor_index] - 1e-9
            )
            assert float(np.max(np.abs(alt.achieved.array - cur.array))) > 1e-9
            checked += 1
        # Attribute-removal rule: objective indices improved by a full
        # increment in an earlier-anchored alternative never anchor later.
        removed = set()
        for alt in found:
            assert alt.anchor_index not in removed
            deltas = (orient * alt.achieved.array) - cur_u
            for j in range(dim):
                if j != alt.anchor_index and deltas[j] >= increments[j]:
                    if j > alt.anchor_index:
                        removed.add(j)
    report("7 alternative-generation", f"hand trace exact; {checked} alternatives validated")


def test_criterion_8_explanation_rendering():
    """Reported value clauses match the reference wording verbatim and the
    committed golden files byte for byte."""
    qa = QaSpec(
        (
            QaObjective("Rctrl", MINIMIZE, "the reward control"),
            QaObjective("Rcont", MINIMIZE, "the reward contact"),
            QaObjective("Rsurv", MAXIMIZE, "the reward survive"),
            QaObjective("Rfor", MAXIMIZE, "the reward forward"),
        )
    )
    current = ValueVector((-5.025, -4.0, 92.546, 0.818))
    statement = render_policy_statement(qa, current)
    assert (
        "The Rctrl is -5.025, Rcont is -4, Rsurv is 92.546, and Rfor is 0.818."
        in statement
    )
    assert statement + "\n" == (GOLDEN / "policy_statement_locomotion.txt").read_text()
    from morlkit.explain import Alternative

    alt = Alternative(
        anchor_index=0,
        target=8.0,
        achieved=ValueVector((-8.236, -5.953, 47.501, 0.401)),
        gains={0: 8.236 - 5.025},
        losses={1: -1.953, 2: -45.045, 3: -(0.818 - 0.401)},
    )
    contrastive = render_contrastive(qa, alt, current)
    assert contrastive + "\n" == (GOLDEN / "contrastive_locomotion.txt").read_text()
    report("8 explanation-rendering", "value clauses and golden files byte-exact")


def _min_max_mean(a: ValueVector, b: ValueVector) -> tuple[float, float]:
    a_norm, b_norm = [], []
    for k in range(a.dim):
        lo, hi = min(a[k], b[k]), max(a[k], b[k])
        if hi - lo <= 1e-12:
            a_norm.append(0.5)
            b_norm.append(0.5)
        else:
            a_norm.append((a[k] - lo) / (hi - lo))
            b_norm.append((b[k] - lo) / (hi - lo))
    return float(np.mean(a_norm)), float(np.mean(b_norm))


def test_criterion_9_comparative_claim(tmp_path):
    """Multi-objective training beats the forward-only baseline on the
    normalized per-objective mean for most seeds, with tables emitted."""
    started = time.monotonic()
    wins = 0
    scores = []
    for seed in range(5):
        factory = lambda: ToyLocomotion()
        cfg = TrainerConfig(
            objective_count=4, updates_per_objective=8, steps_per_update=1024,
            env_copies=2, epochs_per_update=10, minibatch_size=64,
            discount=0.99, seed=seed,
        )
        multi = train(factory, cfg)
        single_cfg = replace(cfg, objective_count=1, updates_per_objective=32)
        single = train(lambda: SingleObjectiveView(ToyLocomotion(), 3), single_cfg)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        multi_mean, multi_std, _ = evaluate_policy(
            ToyLocomotion(), multi.actor, 10, cfg.discount, rng
        )
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        single_mean, single_std, _ = evaluate_policy(
            ToyLocomotion(), single.actor, 10, cfg.discount, rng
        )
        multi_score, single_score = _min_max_mean(multi_mean, single_mean)
        wins += multi_score > single_score
        scores.append((multi_score, single_score))
        names = ("Rctrl", "Rcont", "Rsurv", "Rfor")
        lines = [f"{'Objective':<10}  {'Single-objective':>22}  {'Multi-objective':>22}"]
        for k, name in enumerate(names):
            s_cell = f"{single_mean[k]:.3f} +- {single_std[k]:.3f}"
            m_cell = f"{multi_mean[k]:.3f} +- {multi_std[k]:.3f}"
            lines.append(f"{name:<10}  {s_cell:>22}  {m_cell:>22}")
        (tmp_path / f"table_seed{seed}.txt").write_text("\n".join(lines) + "\n")
    elapsed = time.monotonic() - started
    assert wins >= 3, f"multi-objective won only {wins}/5 seeds: {scores}"
    assert elapsed < 1800.0, f"runtime {elapsed:.0f}s exceeds 30min"
    report(
        "9 comparative-claim",
        f"{wins}/5 seeds favored multi-objective training in {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    """Fixed seed with one environment copy reproduces metrics and
    checkpoints byte for byte."""
    cfg_text = (
        "seed=12\n"
        "trainer.objective_count=2\n"
        "trainer.updates_per_objective=3\n"
        "trainer.steps_per_update=128\n"
        "trainer.env_copies=1\n"
        "trainer.epochs_per_update=3\n"
        "trainer.minibatch_size=32\n"
        "trainer.discount=0.95\n"
        "env.kind=treasure\n"
        "env.width=3\n"
        "env.height=3\n"
        "env.treasures=0,2,3.0;2,2,12.0\n"
        "env.horizon=10\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    compared = []
    for name in (
        "metrics.csv", "delta_r.csv", "iorm.txt", "ccs.txt",
        "actor.ckpt", "critic_0.ckpt", "critic_1.ckpt", "config.txt",
    ):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        compared.append(name)
    report("10 determinism", f"{len(compared)} artifacts byte-identical across reruns")
