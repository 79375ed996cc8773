"""Distributed Nash-equilibrium seeking for networks of uncertain
linear agents under persistent disturbances.

The pipeline: describe a quadratic network game over a communication
graph, check the standing assumptions, synthesize per-agent
output-feedback controllers (error-feedback form for acyclic digraphs,
observer form for connected graphs), certify stability and regulation
on the stacked closed loop, and simulate.
"""

from .errors import (
    AssumptionError,
    DimensionError,
    DivergenceError,
    DomainError,
    FirewallViolation,
    NeseekError,
    NonUniqueSolutionError,
    ScenarioError,
    SingularMatrixError,
    StaleControllerError,
    SynthesisError,
)
from .game import (
    LocalCost,
    NetworkGame,
    PseudoGradientData,
    assemble_pseudo_gradient,
    check_assumption_1,
    cost_from_targets,
    evaluate_cost,
    partial_gradient,
    solve_ne,
)
from .graph import CommGraph, check_acyclic, check_connected, neighbors
from .internal_model import InternalModel, build_p_copy, companion_pair, verify_internal_model
from .plant import (
    AgentPlant,
    Exosystem,
    ExtendedExosystem,
    check_assumption_2,
    check_assumption_3,
    check_assumption_4,
    check_scaled_rank,
    extend_exosystem,
    sample_perturbation,
)
from .scenario import (
    Scenario,
    load_controllers,
    load_scenario,
    parse_scenario,
    save_controllers,
    save_scenario,
    scenario_hash,
    scenario_to_dict,
)
from .sim import (
    NeighborView,
    SimConfig,
    Trajectory,
    rk4_dt_limit,
    rk4_radius,
    simulate,
    simulate_distributed,
)
from .synthesis import (
    STRATEGIES,
    ClosedLoopSystem,
    Controller,
    RegulatorSolution,
    SynthesisWeights,
    assemble_closed_loop,
    augmented_stabilizer,
    build_controller,
    certify_stability,
    largest_stable_scale,
    observer_gain,
    solve_regulator,
    steady_state,
    worst_agent,
)

__version__ = "0.1.0"
