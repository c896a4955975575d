from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlkit.core import ValueVector
from morlkit.explain import (
    MAXIMIZE,
    MINIMIZE,
    Alternative,
    ExplainConfig,
    QaObjective,
    QaSpec,
    constrained_best,
    format_value,
    generate_alternatives,
    render_contrastive,
    render_policy_statement,
)
from reference_explain import full_sweep_alternatives

GOLDEN = Path(__file__).parent / "golden"


def vv(*xs):
    return ValueVector(tuple(float(x) for x in xs))


def qa_max2(names=("A", "B"), phrases=("the first score", "the second score")):
    return QaSpec(
        tuple(
            QaObjective(n, MAXIMIZE, p)
            for n, p in zip(names, phrases)
        )
    )


def qa_locomotion():
    return QaSpec(
        (
            QaObjective("Rctrl", MINIMIZE, "the reward control"),
            QaObjective("Rcont", MINIMIZE, "the reward contact"),
            QaObjective("Rsurv", MAXIMIZE, "the reward survive"),
            QaObjective("Rfor", MAXIMIZE, "the reward forward"),
        )
    )


class TestQaSpec:
    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            QaSpec(
                (
                    QaObjective("X", MAXIMIZE, "x"),
                    QaObjective("X", MINIMIZE, "y"),
                )
            )

    def test_empty_forbidden(self):
        with pytest.raises(ValueError):
            QaSpec(())

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            QaObjective("X", "sideways", "x")


class TestExplainConfig:
    def test_budget_at_least_one(self):
        with pytest.raises(ValueError):
            ExplainConfig((1.0,), (5.0,), (0,))

    def test_positive_increments(self):
        with pytest.raises(ValueError):
            ExplainConfig((0.0,), (5.0,), (1,))


class TestAlternative:
    def test_gain_loss_signs_validated(self):
        with pytest.raises(ValueError):
            Alternative(0, 1.0, vv(1, 1), gains={0: -0.5}, losses={})
        with pytest.raises(ValueError):
            Alternative(0, 1.0, vv(1, 1), gains={0: 0.5}, losses={1: 0.5})

    def test_anchor_must_gain(self):
        with pytest.raises(ValueError):
            Alternative(0, 1.0, vv(1, 1), gains={1: 0.5}, losses={})


class TestConstrainedBest:
    def test_singleton_meets_target(self):
        qa = qa_max2()
        assert constrained_best([vv(3, 1)], 0, 2.0, qa).values == (3.0, 1.0)

    def test_none_when_nothing_qualifies(self):
        qa = qa_max2()
        assert constrained_best([vv(1, 1)], 0, 2.0, qa) is None

    def test_exhaustive_scan_oracle(self):
        # Oracle: among {(5,1), (3,4)} meeting target 2 at index 0, the best
        # remaining sum is (3,4).
        qa = qa_max2()
        pool = [vv(5, 1), vv(3, 4), vv(1, 6)]
        best = constrained_best(pool, 0, 2.0, qa)
        assert best.values == (3.0, 4.0)

    def test_minimize_direction_orientation(self):
        # For a minimize attribute the target is on the negated scale.
        qa = QaSpec(
            (
                QaObjective("cost", MINIMIZE, "the cost"),
                QaObjective("gain", MAXIMIZE, "the gain"),
            )
        )
        pool = [vv(-3.0, 1.0), vv(-1.0, 5.0)]
        # target utility 2 means cost <= -2: only (-3, 1) qualifies.
        best = constrained_best(pool, 0, 2.0, qa)
        assert best.values == (-3.0, 1.0)


class TestGenerateAlternatives:
    def trace_setup(self):
        qa = qa_max2()
        cfg = ExplainConfig((1.0, 1.0), (4.0, 4.0), (2, 2))
        current = vv(1.0, 1.0)
        pool = [current, vv(2.0, 0.5), vv(1.2, 3.0)]
        return qa, cfg, current, pool

    def test_hand_traced_pool(self):
        # Hand trace: anchor 0 finds (2.0, 0.5) at target 2; anchor 1 finds
        # (1.2, 3.0) at target 2 with no losses; duplicates are suppressed.
        qa, cfg, current, pool = self.trace_setup()
        alts = generate_alternatives(pool, current, qa, cfg)
        assert len(alts) == 2
        assert alts[0].anchor_index == 0
        assert alts[0].achieved.values == (2.0, 0.5)
        assert alts[0].target == pytest.approx(2.0)
        assert alts[0].gains == {0: pytest.approx(1.0)}
        assert alts[0].losses == {1: pytest.approx(-0.5)}
        assert alts[1].anchor_index == 1
        assert alts[1].achieved.values == (1.2, 3.0)
        assert alts[1].losses == {}

    def test_pool_of_current_only(self):
        qa, cfg, current, _ = self.trace_setup()
        assert generate_alternatives([current], current, qa, cfg) == []

    def test_attribute_removal_rule(self):
        # A single member improving both attributes by a full increment stops
        # the second attribute from being explored separately.
        qa = qa_max2()
        cfg = ExplainConfig((1.0, 1.0), (5.0, 5.0), (3, 3))
        current = vv(0.0, 0.0)
        pool = [current, vv(2.0, 2.0)]
        alts = generate_alternatives(pool, current, qa, cfg)
        assert len(alts) == 1
        assert alts[0].anchor_index == 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_random_pool_properties(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 4))
        directions = [MAXIMIZE if rng.random() < 0.5 else MINIMIZE for _ in range(dim)]
        qa = QaSpec(
            tuple(
                QaObjective(f"q{k}", directions[k], f"objective {k}")
                for k in range(dim)
            )
        )
        orient = qa.orientation()
        increments = tuple(float(x) for x in rng.uniform(0.2, 1.5, dim))
        caps = tuple(float(x) for x in rng.uniform(2.0, 6.0, dim))
        budgets = tuple(int(b) for b in rng.integers(1, 4, dim))
        cfg = ExplainConfig(increments, caps, budgets)
        current = vv(*rng.uniform(-2, 2, dim))
        pool = [current] + [vv(*rng.uniform(-3, 3, dim)) for _ in range(int(rng.integers(1, 7)))]
        alts = generate_alternatives(pool, current, qa, cfg)
        assert len(alts) <= sum(budgets)
        current_u = orient * current.array
        for alt in alts:
            achieved_u = orient * alt.achieved.array
            # Anchor constraint: at least one increment better than current.
            i = alt.anchor_index
            assert achieved_u[i] >= alt.target - 1e-9
            assert achieved_u[i] >= current_u[i] + increments[i] - 1e-9
            # Never the current vector itself.
            assert float(np.max(np.abs(alt.achieved.array - current.array))) > 1e-9
            # Gains and losses partition the changed coordinates correctly.
            for j, delta in alt.gains.items():
                assert achieved_u[j] - current_u[j] == pytest.approx(delta)
                assert delta > 0
            for j, delta in alt.losses.items():
                assert achieved_u[j] - current_u[j] == pytest.approx(delta)
                assert delta < 0

    def test_matches_full_target_sweep(self):
        # Stopping an attribute's sweep at its first infeasible target must
        # give what the sweep to the cap gives: random vocabularies, configs
        # and pools, half of them on a coarse grid with ties and repeats.
        for seed in range(400):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(1, 5))
            qa = QaSpec(
                tuple(
                    QaObjective(
                        f"q{k}", MAXIMIZE if rng.random() < 0.5 else MINIMIZE, f"o{k}"
                    )
                    for k in range(dim)
                )
            )
            cfg = ExplainConfig(
                tuple(float(x) for x in rng.uniform(0.1, 2.0, dim)),
                tuple(float(x) for x in rng.uniform(-1.0, 8.0, dim)),
                tuple(int(b) for b in rng.integers(1, 5, dim)),
            )
            rows = rng.uniform(-4, 4, (int(rng.integers(1, 12)), dim))
            if seed % 2:
                rows = np.round(rows)
            pool = [vv(*row) for row in rows]
            current = pool[int(rng.integers(len(pool)))] if rng.random() < 0.5 else vv(
                *rng.uniform(-3, 3, dim)
            )
            got = generate_alternatives(pool, current, qa, cfg)
            assert got == full_sweep_alternatives(pool, current, qa, cfg), f"seed {seed}"


class TestFormatValue:
    def test_trims_trailing_zeros(self):
        assert format_value(-4.0, 3) == "-4"
        assert format_value(92.546, 3) == "92.546"
        assert format_value(0.5, 3) == "0.5"

    def test_precision_zero_integers(self):
        assert format_value(150.0, 0) == "150"
        assert format_value(-3.7, 0) == "-4"

    def test_negative_zero_collapses(self):
        assert format_value(-0.0001, 3) == "0"


class TestRenderPolicyStatement:
    def test_matches_locomotion_golden(self):
        text = render_policy_statement(qa_locomotion(), vv(-5.025, -4.0, 92.546, 0.818))
        assert text + "\n" == (GOLDEN / "policy_statement_locomotion.txt").read_text()

    def test_contains_reported_value_clauses(self):
        text = render_policy_statement(qa_locomotion(), vv(-5.025, -4.0, 92.546, 0.818))
        assert "The Rctrl is -5.025, Rcont is -4, Rsurv is 92.546, and Rfor is 0.818." in text

    def test_single_objective_no_conjunction(self):
        qa = QaSpec((QaObjective("score", MAXIMIZE, "the score"),))
        text = render_policy_statement(qa, vv(2.5))
        assert text == "I aim to maximize the score. The score is 2.5."

    def test_precision_zero(self):
        qa = QaSpec((QaObjective("bonus", MAXIMIZE, "the bonus", precision=0),))
        assert render_policy_statement(qa, vv(150.0)).endswith("The bonus is 150.")

    def test_pure_renderer(self):
        qa = qa_locomotion()
        v = vv(-5.025, -4.0, 92.546, 0.818)
        assert render_policy_statement(qa, v) == render_policy_statement(qa, v)


class TestRenderContrastive:
    def fig3_style_alternative(self):
        current = vv(-5.025, -4.0, 92.546, 0.818)
        achieved = vv(-8.236, -5.953, 47.501, 0.401)
        return (
            Alternative(
                anchor_index=0,
                target=8.0,
                achieved=achieved,
                gains={0: 8.236 - 5.025},
                losses={1: -1.953, 2: -45.045, 3: -(0.818 - 0.401)},
            ),
            current,
        )

    def test_matches_golden(self):
        alt, current = self.fig3_style_alternative()
        text = render_contrastive(qa_locomotion(), alt, current)
        assert text + "\n" == (GOLDEN / "contrastive_locomotion.txt").read_text()

    def test_single_gain_single_loss(self):
        qa = qa_max2()
        alt = Alternative(0, 2.0, vv(2.0, 0.5), gains={0: 1.0}, losses={1: -0.5})
        text = render_contrastive(qa, alt, vv(1.0, 1.0))
        assert text == (
            "I could increase the A to 2, by carrying out an alternative policy instead. "
            "However, this would decrease the B by 0.5. "
            "I decided not to do that because the increase in the A "
            "is not worth the decrease of the B."
        )

    def test_empty_gains_rejected(self):
        qa = qa_max2()
        with pytest.raises(ValueError):
            Alternative(0, 2.0, vv(2.0, 0.5), gains={}, losses={1: -0.5})

    def test_byte_identical_runs(self):
        alt, current = self.fig3_style_alternative()
        a = render_contrastive(qa_locomotion(), alt, current)
        b = render_contrastive(qa_locomotion(), alt, current)
        assert a == b


class TestExplainBlocksGolden:
    def test_statement_plus_alternatives(self):
        qa = qa_max2()
        cfg = ExplainConfig((1.0, 1.0), (4.0, 4.0), (2, 2))
        current = vv(1.0, 1.0)
        pool = [current, vv(2.0, 0.5), vv(1.2, 3.0)]
        blocks = [render_policy_statement(qa, current)]
        for alt in generate_alternatives(pool, current, qa, cfg):
            blocks.append(render_contrastive(qa, alt, current))
        text = "\n\n".join(blocks) + "\n"
        assert text == (GOLDEN / "explain_blocks.txt").read_text()
