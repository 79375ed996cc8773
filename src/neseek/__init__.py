"""Distributed Nash-equilibrium seeking for networks of uncertain
linear agents under persistent disturbances.

The pipeline: describe a quadratic network game over a communication
graph, check the standing assumptions, synthesize per-agent
output-feedback controllers (error-feedback form for acyclic digraphs,
observer form for connected graphs), certify stability and regulation
on the stacked closed loop, and simulate.
"""

__version__ = "0.1.0"
