"""Coherent-dynamics simulator for an electronic spin dyad.

A spin-1 with a crystal field coupled to a spin-1/2 paramagnet, driven
by ideal pulse sequences and dephased by stochastic fluctuator noise.
The package covers level diagrams and the anti-crossing, magnetically
protected zero-quantum coherences, gradiometry versus the local-noise
fraction, and electrometry / thermometry sensing built on the protected
states, all via deterministic seeded Monte-Carlo trajectory averaging.
"""

from .analysis import (
    FitError,
    FitResult,
    FlatTraceError,
    TimeTrace,
    coherence_time,
    enhancement_ratio,
    fit_envelope_decay,
    fit_stretched_exponential,
    slope_frequency,
    temperature_shift,
)
from .engine import (
    Experiment,
    SimConfig,
    SimulationError,
    initial_state,
    propagate,
    run,
    sweep,
    trace_to_csv,
    zq_state,
)
from .linalg import SpinKind, expm_hermitian, reduced_operators, spin_operators
from .model import (
    DyadParams,
    LevelDiagram,
    anticrossing_field,
    coupling_from_distance,
    distance_from_coupling,
    full_hamiltonian,
    level_diagram,
    reduced_hamiltonian,
    sim_frame_hamiltonian,
)
from .noise import (
    FluctuatorConfig,
    NoiseTrajectory,
    empirical_xi,
    partition,
    sample_electric_trajectory,
    sample_magnetic_trajectory,
)
from .protocol import (
    Axis,
    Delay,
    PulseProgram,
    Repump,
    Rotation,
    Target,
    coc_closed_form,
    deer,
    hahn_echo,
    polarization_transfer,
    program_from_text,
    program_to_text,
    rotation_unitary,
    zq_block,
    zq_chain,
    zq_readout,
)

__version__ = "0.1.0"
