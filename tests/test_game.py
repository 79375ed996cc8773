import numpy as np
import pytest

from neseek.errors import NeseekError, ScenarioError
from neseek.game import (
    LocalCost,
    NetworkGame,
    assemble_pseudo_gradient,
    check_assumption_1,
    cost_from_targets,
    solve_ne,
)
from neseek.graph import CommGraph

from conftest import evaluate_cost, partial_gradient


def two_agent_game(r=(1.0, 3.0)):
    """Scalar agents with J_i = (y_i - r_i)^2 + (y_i - y_j)^2."""
    g = CommGraph(2, directed=False, edges=[(1, 2), (2, 1)])
    costs = []
    for i, j in ((0, 1), (1, 0)):
        costs.append(
            LocalCost(
                R_ii=np.array([[2.0]]),
                Q_ii=np.array([-2.0 * r[i]]),
                q_i=r[i] ** 2,
                R_ij={j + 1: np.array([[-2.0]])},
                Q_ij={j + 1: np.array([[1.0]])},
            )
        )
    return NetworkGame(graph=g, costs=tuple(costs))


def isolated_game(r):
    g = CommGraph(1, directed=True, edges=[])
    r = np.atleast_1d(np.asarray(r, dtype=float))
    cost = LocalCost(
        R_ii=np.eye(len(r)),
        Q_ii=-2.0 * r,
        q_i=float(r @ r),
        R_ij={},
        Q_ij={},
    )
    return NetworkGame(graph=g, costs=(cost,))


def random_game(rng, n_agents=4):
    edges = []
    for a in range(1, n_agents + 1):
        for b in range(1, n_agents + 1):
            if a != b and rng.random() < 0.5:
                edges.append((a, b))
    g = CommGraph(n_agents, directed=True, edges=edges)
    targets = [rng.standard_normal(2) for _ in range(n_agents)]
    return cost_from_targets(targets, g)


def test_pseudo_gradient_two_agents():
    pg = assemble_pseudo_gradient(two_agent_game())
    assert np.allclose(pg.Rbar, [[4.0, -2.0], [-2.0, 4.0]], atol=1e-14)
    assert np.allclose(pg.Qbar, [-2.0, -6.0], atol=1e-14)


def test_pseudo_gradient_isolated():
    pg = assemble_pseudo_gradient(isolated_game([2.5]))
    assert np.allclose(pg.Rbar, [[2.0]], atol=1e-14)
    assert np.allclose(pg.Qbar, [-5.0], atol=1e-14)


def test_pseudo_gradient_block_diagonal_without_edges():
    g = CommGraph(3, directed=True, edges=[])
    game = cost_from_targets([np.ones(2)] * 3, g)
    pg = assemble_pseudo_gradient(game)
    off = pg.Rbar.copy()
    for k in range(3):
        off[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 0.0
    assert np.array_equal(off, np.zeros((6, 6)))


def test_block_sparsity_matches_neighbor_sets():
    rng = np.random.default_rng(31)
    for _ in range(10):
        game = random_game(rng)
        pg = assemble_pseudo_gradient(game)
        offs = game.offsets
        for i in range(1, game.graph.agent_count + 1):
            nbrs = {j for j, k in game.graph.edges if k == i}
            for j in range(1, game.graph.agent_count + 1):
                if i == j or j in nbrs:
                    continue
                block = pg.Rbar[offs[i - 1]:offs[i], offs[j - 1]:offs[j]]
                assert np.array_equal(block, np.zeros_like(block))


def test_assumption_1_two_agent():
    pg = assemble_pseudo_gradient(two_agent_game())
    ok, lam, _ = check_assumption_1(pg)
    assert ok
    assert lam == pytest.approx(2.0, abs=1e-12)


def test_assumption_1_identity():
    from neseek.game import PseudoGradientData

    pg = PseudoGradientData(Rbar=np.eye(3), Qbar=np.zeros(3))
    ok, lam, _ = check_assumption_1(pg)
    assert ok
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_assumption_1_indefinite():
    from neseek.game import PseudoGradientData

    pg = PseudoGradientData(Rbar=np.array([[1.0, 3.0], [-3.0, -1.0]]),
                            Qbar=np.zeros(2))
    ok, lam, _ = check_assumption_1(pg)
    assert not ok
    assert lam <= 0.0


def test_solve_ne_isolated_returns_target():
    game = isolated_game([0.7])
    pg = assemble_pseudo_gradient(game)
    assert np.allclose(solve_ne(pg), [0.7], atol=1e-12)


def test_solve_ne_two_agent():
    pg = assemble_pseudo_gradient(two_agent_game())
    y = solve_ne(pg)
    assert np.allclose(y, [5.0 / 3.0, 7.0 / 3.0], atol=1e-12)


def test_solve_ne_residual_bound():
    rng = np.random.default_rng(37)
    for _ in range(20):
        game = random_game(rng)
        pg = assemble_pseudo_gradient(game)
        y = solve_ne(pg)
        res = np.linalg.norm(pg.Rbar @ y + pg.Qbar)
        bound = 1e-10 * (np.linalg.norm(pg.Rbar) * np.linalg.norm(y)
                         + np.linalg.norm(pg.Qbar))
        assert res <= bound


def test_solve_ne_rejects_nan_residual():
    from neseek.game import PseudoGradientData

    pg = PseudoGradientData(Rbar=np.eye(2), Qbar=np.array([np.nan, 1.0]))
    with pytest.raises(NeseekError, match="exceeds 1e-10 scaled bound"):
        solve_ne(pg)


def test_solve_ne_rejects_an_infinite_scale():
    # y* = -1 solves exactly, but ||Qbar|| overflows: no finite bound certifies it
    from neseek.game import PseudoGradientData

    pg = PseudoGradientData(Rbar=1e308 * np.eye(2), Qbar=np.full(2, 1e308))
    with pytest.raises(NeseekError, match="the scale .* of its bound overflows"):
        solve_ne(pg)


def test_partial_gradient_isolated():
    game = isolated_game([-1.0])
    e = partial_gradient(game, 1, np.zeros(1))
    assert np.allclose(e, [2.0], atol=1e-14)


def test_partial_gradient_two_agent_at_origin():
    game = two_agent_game()
    assert np.allclose(partial_gradient(game, 1, np.zeros(2)), [-2.0])
    assert np.allclose(partial_gradient(game, 2, np.zeros(2)), [-6.0])


def test_partial_gradient_vanishes_at_ne():
    rng = np.random.default_rng(41)
    for _ in range(10):
        game = random_game(rng)
        pg = assemble_pseudo_gradient(game)
        y = solve_ne(pg)
        for i in range(1, game.graph.agent_count + 1):
            assert np.linalg.norm(partial_gradient(game, i, y)) <= 1e-9


def test_partial_gradient_index_range():
    game = two_agent_game()
    with pytest.raises(ValueError, match=r"^agent index 3 out of range 1\.\.2$"):
        partial_gradient(game, 3, np.zeros(2))


def test_evaluate_cost_zero_at_own_target_isolated():
    game = isolated_game([1.5, -0.5])
    y = np.array([1.5, -0.5])
    assert evaluate_cost(game, 1, y) == pytest.approx(0.0, abs=1e-14)


def test_evaluate_cost_two_agent():
    game = two_agent_game()
    assert evaluate_cost(game, 1, np.array([1.0, 3.0])) == pytest.approx(4.0)


def test_unilateral_deviation_never_improves():
    rng = np.random.default_rng(43)
    game = random_game(rng)
    pg = assemble_pseudo_gradient(game)
    y_star = solve_ne(pg)
    offs = game.offsets
    for i in range(1, game.graph.agent_count + 1):
        base = evaluate_cost(game, i, y_star)
        for _ in range(100):
            y = y_star.copy()
            y[offs[i - 1]:offs[i]] += rng.standard_normal(
                offs[i] - offs[i - 1])
            assert evaluate_cost(game, i, y) >= base - 1e-9


def test_strong_monotonicity_inequality():
    rng = np.random.default_rng(47)
    for _ in range(10):
        game = random_game(rng)
        pg = assemble_pseudo_gradient(game)
        ok, m, _ = check_assumption_1(pg)
        assert ok
        dim = pg.Rbar.shape[0]
        for _ in range(20):
            y1 = rng.standard_normal(dim)
            y2 = rng.standard_normal(dim)
            lhs = (pg.Rbar @ (y1 - y2)) @ (y1 - y2)
            assert lhs >= m * np.linalg.norm(y1 - y2) ** 2 - 1e-9


def test_ne_invariant_under_affine_only_terms():
    # Q_ij and q_i never enter Rbar or Qbar, so the NE is unchanged
    # bit for bit when they move.
    game = two_agent_game()
    y_ref = solve_ne(assemble_pseudo_gradient(game))
    bumped = []
    for cost in game.costs:
        bumped.append(
            LocalCost(
                R_ii=cost.R_ii,
                Q_ii=cost.Q_ii,
                q_i=cost.q_i + 17.0,
                R_ij=cost.R_ij,
                Q_ij={j: M + 5.0 for j, M in cost.Q_ij.items()},
            )
        )
    game2 = NetworkGame(graph=game.graph, costs=tuple(bumped))
    y_new = solve_ne(assemble_pseudo_gradient(game2))
    assert np.array_equal(y_ref, y_new)


def test_cost_from_targets_single_agent():
    g = CommGraph(1, directed=True, edges=[])
    game = cost_from_targets([np.array([-1.0, 0.0])], g)
    cost = game.costs[0]
    assert np.array_equal(cost.R_ii, np.eye(2))
    assert np.allclose(cost.Q_ii, [2.0, 0.0])
    assert cost.q_i == pytest.approx(1.0)
    assert cost.R_ij == {}
    assert cost.Q_ij == {}


def test_cost_from_targets_two_neighbors():
    g = CommGraph(3, directed=True, edges=[(2, 1), (3, 1)])
    game = cost_from_targets([np.zeros(2)] * 3, g)
    cost = game.costs[0]
    assert np.array_equal(cost.R_ii, 3.0 * np.eye(2))
    for j in (2, 3):
        assert np.array_equal(cost.R_ij[j], -2.0 * np.eye(2))
        assert np.array_equal(cost.Q_ij[j], np.eye(2))


def test_cost_from_targets_matches_quadratic_expansion():
    # J_i = ||y_i - r_i||^2 + sum_j ||y_i - y_j||^2 evaluated directly
    # must agree with the block form.
    rng = np.random.default_rng(53)
    g = CommGraph(3, directed=True, edges=[(2, 1), (3, 1), (1, 2)])
    targets = [rng.standard_normal(2) for _ in range(3)]
    game = cost_from_targets(targets, g)
    for _ in range(20):
        y = rng.standard_normal(6)
        blocks = [y[0:2], y[2:4], y[4:6]]
        for i in range(1, 4):
            nbrs = {j for j, k in g.edges if k == i}
            direct = float(
                np.sum((blocks[i - 1] - targets[i - 1]) ** 2)
                + sum(np.sum((blocks[i - 1] - blocks[j - 1]) ** 2)
                      for j in nbrs)
            )
            assert evaluate_cost(game, i, y) == pytest.approx(direct)


NAN_GATES = [
    ("R_ii with NaN symmetric part",
     lambda: LocalCost(R_ii=np.array([[np.nan]]), Q_ii=np.array([0.0]))),
]


@pytest.mark.parametrize("case, build", NAN_GATES, ids=[c for c, _ in NAN_GATES])
def test_nan_fails_validation_gates(case, build):
    with pytest.raises(ScenarioError, match="positive-definite symmetric part"):
        build()
