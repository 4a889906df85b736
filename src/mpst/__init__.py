"""Workbench for open multiparty sessions.

Processes, sessions, and global types are regular trees hash-consed in a
NodeStore; parsing, projection, typing, execution, and gateway composition
all operate on those shared nodes.
"""

from .core import (
    GEnd,
    GComm,
    GlobalType,
    GraphBuilder,
    NodeStore,
    PEnd,
    PIn,
    POut,
    Process,
    Session,
    TermError,
    UnboundVariable,
    UnguardedRecursion,
    bisimilar,
    normalize_session,
    participants,
    sessions_bisimilar,
)
from .parser import (
    DiagKind,
    ParseDiagnostic,
    ParseError,
    parse_global,
    parse_process,
    parse_session,
    print_global,
    print_process,
    print_session,
)
from .typecheck import (
    DepthValue,
    IllFormedGlobalType,
    Mode,
    ProjectionError,
    ProjectionErrorKind,
    TypingReport,
    WellFormedReport,
    depth,
    leq,
    leq_plus,
    project,
    typecheck,
    well_formed,
)
from .semantics import (
    CommAction,
    FidelityVerdict,
    InvalidStateBound,
    LockReport,
    SimulationResult,
    StateGraph,
    StateSpaceBoundExceeded,
    explore,
    fidelity_harness,
    global_enabled,
    global_step,
    lock_free,
    session_enabled,
    session_step,
    simulate,
    standard_witness,
)
from .compose import (
    ConnectionReport,
    IncompatibleSessions,
    NoClauseApplies,
    ParticipantCollision,
    compatible,
    compatible_globals,
    compatible_sessions,
    connect_globals,
    connect_sessions,
    gateway,
    verify_connection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
