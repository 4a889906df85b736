"""Labelled transition systems, simulation, exploration, and lock-freedom.

Sessions step by rule comm: an output p!Λ meets an input q?Λ' when every
label the sender may choose is acceptable (lbl(Λ) ⊆ lbl(Λ')), and one step
fires per sender label.  Global types step at the root (ecomm) and, for
communications independent of the root choice, inside every branch at once
(icomm).

State spaces are finite because a stepped process is always a node of the
original process graph, so exploration is exact rather than bounded, with a
configurable safety valve on the node-count product.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass

from .core import (
    GEnd,
    GComm,
    PEnd,
    PIn,
    POut,
    Session,
    node_branch,
    node_labels,
    normalize_session,
)
from .parser import print_global, print_session
from .typecheck import Mode, typecheck

DEFAULT_STATE_BOUND = 10 ** 6


@dataclass(frozen=True, order=True)
class CommAction:
    sender: str
    label: str
    receiver: str

    def __str__(self):
        return f"{self.sender} -{self.label}-> {self.receiver}"

    def involves(self, p):
        return p == self.sender or p == self.receiver

    def to_json(self):
        return {"sender": self.sender, "label": self.label, "receiver": self.receiver,
                "text": str(self)}


class InvalidStateBound(ValueError):
    """MPST_STATE_BOUND is set to something other than a positive integer."""


def _env_state_bound():
    text = os.environ.get("MPST_STATE_BOUND")
    if text is None:
        return DEFAULT_STATE_BOUND
    try:
        bound = int(text)
    except ValueError:
        bound = 0
    if bound <= 0:
        raise InvalidStateBound(f"MPST_STATE_BOUND must be a positive integer, got {text!r}")
    return bound


class StateSpaceBoundExceeded(Exception):
    def __init__(self, product, bound):
        super().__init__(
            f"state space may hold up to {product} states, over the bound {bound}; "
            f"raise MPST_STATE_BOUND to explore anyway")
        self.product = product
        self.bound = bound


# ---------------------------------------------------------------------------
# Session transitions.

def session_enabled(M):
    """Enabled communications with their successors, rule comm."""
    out = []
    for p, P in M.items():
        if not isinstance(P, POut):
            continue
        q = P.peer
        Q = M.get(q)
        if not (isinstance(Q, PIn) and Q.peer == p):
            continue
        if not set(node_labels(P)) <= set(node_labels(Q)):
            continue
        for l, cont in P.branches:
            action = CommAction(p, l, q)
            out.append((action, M.rebind({p: cont, q: node_branch(Q, l)})))
    out.sort(key=lambda e: e[0])
    return out


def session_step(M, action):
    for a, succ in session_enabled(M):
        if a == action:
            return succ
    return None


# ---------------------------------------------------------------------------
# Global-type transitions.  An action is derivable at a node if it fires the
# root communication, or if it is independent of the root and derivable in
# every branch.  Derivations are finite, so a premise that loops back to a
# judgment already under consideration fails.

def _can_step(G, action, memo, busy):
    if isinstance(G, GEnd):
        return False
    key = (G.nid, action)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if G.sender == action.sender and G.receiver == action.receiver:
        res = action.label in node_labels(G)
        memo[key] = res
        return res
    if action.involves(G.sender) or action.involves(G.receiver):
        memo[key] = False
        return False
    if key in busy:
        return False
    busy.add(key)
    res = all(_can_step(c, action, memo, busy) for _, c in G.branches)
    busy.discard(key)
    memo[key] = res
    return res


def _do_step(G, action, memo):
    key = (G.nid, action)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if G.sender == action.sender and G.receiver == action.receiver:
        res = node_branch(G, action.label)
    else:
        res = G.store.comm(G.sender, G.receiver,
                           [(l, _do_step(c, action, memo)) for l, c in G.branches])
    memo[key] = res
    return res


def global_enabled(G):
    """Enabled global communications with successors, rules ecomm and icomm."""
    if isinstance(G, GEnd):
        return []
    enabled = G.store.memo("global_enabled")
    hit = enabled.get(G.nid)
    if hit is not None:
        return list(hit)
    # Any derivable action fires some reachable root, so those are the
    # candidates; each is then decided against the whole type.
    candidates = set()
    seen = set()
    stack = [G]
    while stack:
        n = stack.pop()
        if n.nid in seen or isinstance(n, GEnd):
            continue
        seen.add(n.nid)
        for l, c in n.branches:
            candidates.add(CommAction(n.sender, l, n.receiver))
            stack.append(c)
    can_memo = G.store.memo("global_can")
    step_memo = G.store.memo("global_step")
    out = []
    for action in sorted(candidates):
        if _can_step(G, action, can_memo, set()):
            out.append((action, _do_step(G, action, step_memo)))
    enabled[G.nid] = tuple(out)
    return out


def global_step(G, action):
    for a, succ in global_enabled(G):
        if a == action:
            return succ
    return None


# ---------------------------------------------------------------------------
# Simulation.

@dataclass
class SimulationResult:
    trace: list
    final: Session
    status: str  # "final", "stuck", or "bound"

    def to_json(self):
        return {"trace": [a.to_json() for a in self.trace],
                "final": print_session(self.final) or "0",
                "status": self.status}


def simulate(M, steps, seed=0):
    """Run a reproducible random walk of at most `steps` communications."""
    rng = random.Random(seed)
    trace = []
    cur = M
    for _ in range(steps):
        en = session_enabled(cur)
        if not en:
            break
        action, cur = rng.choice(en)
        trace.append(action)
    if cur.is_final():
        status = "final"
    elif not session_enabled(cur):
        status = "stuck"
    else:
        status = "bound"
    return SimulationResult(trace, cur, status)


# ---------------------------------------------------------------------------
# Exhaustive exploration.

def _count_nodes(P):
    seen = set()
    stack = [P]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if not isinstance(n, PEnd):
            stack.extend(c for _, c in n.branches)
    return len(seen)


def _state_key(M):
    return tuple((p, P.nid) for p, P in M.items())


@dataclass
class StateGraph:
    states: list  # canonical (normalized) sessions, index 0 = initial
    edges: list   # (source index, CommAction, target index)
    initial: int = 0

    def successors(self, i):
        return [(a, j) for s, a, j in self.edges if s == i]

    def to_json(self):
        return {
            "initial": self.initial,
            "states": [print_session(s) or "0" for s in self.states],
            "edges": [{"src": s, "action": a.to_json(), "dst": t}
                      for s, a, t in self.edges],
        }

    def to_dot(self):
        def esc(text):
            return text.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph session {", "  rankdir=LR;"]
        for i, s in enumerate(self.states):
            shape = ', peripheries=2' if i == self.initial else ""
            lines.append(f'  n{i} [label="{esc(print_session(s) or "0")}"{shape}];')
        for s, a, t in self.edges:
            lines.append(f'  n{s} -> n{t} [label="{a.sender}:{a.label}->{a.receiver}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def explore(M, bound=None):
    """Reachability closure of rule comm over canonical states."""
    if bound is None:
        bound = _env_state_bound()
    init = normalize_session(M)
    product = 1
    for _, P in init.items():
        product *= _count_nodes(P)
    if product > bound:
        raise StateSpaceBoundExceeded(product, bound)
    states = [init]
    index = {_state_key(init): 0}
    edges = []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for action, succ in session_enabled(states[i]):
            succ = normalize_session(succ)
            key = _state_key(succ)
            j = index.get(key)
            if j is None:
                j = len(states)
                index[key] = j
                states.append(succ)
                queue.append(j)
            edges.append((i, action, j))
    return StateGraph(states, edges)


# ---------------------------------------------------------------------------
# Lock-freedom.

@dataclass
class LockReport:
    ok: bool
    deadlock_witness: list | None = None      # actions to a stuck non-final state
    starvation_witness: tuple | None = None   # (actions to the state, participant)

    def to_json(self):
        return {
            "ok": self.ok,
            "deadlock_witness": None if self.deadlock_witness is None
            else [a.to_json() for a in self.deadlock_witness],
            "starvation_witness": None if self.starvation_witness is None
            else {"path": [a.to_json() for a in self.starvation_witness[0]],
                  "participant": self.starvation_witness[1]},
        }


def _paths_from_initial(graph):
    """Shortest action path to each state, by BFS parent tracking."""
    parent = {graph.initial: None}
    order = deque([graph.initial])
    fwd = {}
    for s, a, t in graph.edges:
        fwd.setdefault(s, []).append((a, t))
    while order:
        i = order.popleft()
        for a, j in fwd.get(i, ()):
            if j not in parent:
                parent[j] = (i, a)
                order.append(j)

    def path(i):
        acc = []
        while parent[i] is not None:
            i, a = parent[i]
            acc.append(a)
        acc.reverse()
        return acc

    return path


def lock_free(M, bound=None):
    """Exact check of the two lock-freedom conditions on the state graph.

    (a) every reachable state is all-terminated or can step; (b) whenever a
    participant still has work, some reachable transition involves it.
    """
    graph = explore(M, bound)
    path = _paths_from_initial(graph)
    has_edge = set()
    for s, _, _ in graph.edges:
        has_edge.add(s)
    for i, state in enumerate(graph.states):
        if i not in has_edge and len(state) > 0:
            return LockReport(False, deadlock_witness=path(i))
    participants = sorted({p for state in graph.states for p in state.participants})
    back = {}
    for s, a, t in graph.edges:
        back.setdefault(t, []).append(s)
    for p in participants:
        involved = {s for s, a, _ in graph.edges if a.involves(p)}
        reach = set(involved)
        work = deque(involved)
        while work:
            t = work.popleft()
            for s in back.get(t, ()):
                if s not in reach:
                    reach.add(s)
                    work.append(s)
        for i, state in enumerate(graph.states):
            if p in state and i not in reach:
                return LockReport(False, starvation_witness=(path(i), p))
    return LockReport(True)


# ---------------------------------------------------------------------------
# Fidelity harness: the session and its type must stay in lockstep.

@dataclass
class FidelityVerdict:
    ok: bool
    divergence: dict | None = None
    visited: int = 0

    def to_json(self):
        return {"ok": self.ok, "divergence": self.divergence, "visited": self.visited}


def fidelity_harness(M, G, mode=Mode.Standard):
    """Co-explore a typed session and its global type.

    At every reachable pair the enabled session actions and global actions
    must coincide, and each matched pair of successors must typecheck again.
    Reports the first divergence.
    """
    if not typecheck(M, G, mode).ok:
        raise ValueError("fidelity harness requires a session typed by the given global type")

    def spot(state, g):
        return {"session": print_session(state) or "0", "global": print_global(g)}

    visited = set()
    queue = deque([(normalize_session(M), G)])
    visited.add((_state_key(queue[0][0]), G.nid))
    while queue:
        state, g = queue.popleft()
        sa = dict(session_enabled(state))
        ga = dict(global_enabled(g))
        for action in sorted(set(sa) | set(ga)):
            if action not in sa:
                return FidelityVerdict(False, dict(
                    kind="global action unmatched by the session",
                    action=str(action), **spot(state, g)), len(visited))
            if action not in ga:
                return FidelityVerdict(False, dict(
                    kind="session action unmatched by the global type",
                    action=str(action), **spot(state, g)), len(visited))
            succ, gsucc = normalize_session(sa[action]), ga[action]
            if not typecheck(succ, gsucc, mode, require_wf=False).ok:
                return FidelityVerdict(False, dict(
                    kind="successors no longer typecheck",
                    action=str(action), **spot(succ, gsucc)), len(visited))
            key = (_state_key(succ), gsucc.nid)
            if key not in visited:
                visited.add(key)
                queue.append((succ, gsucc))
    return FidelityVerdict(True, None, len(visited))


def standard_witness(M, G):
    """Global type typing M under the plain preorder, built from a Plus typing.

    Follows the session and the type together, narrowing every root choice to
    the labels the sending process actually offers.
    """
    rep = typecheck(M, G, Mode.Plus)
    if not rep.ok:
        raise ValueError("standard_witness requires a session typed in Plus mode")
    store = G.store
    b = store.builder()
    cells = {}

    def go(state, g):
        if isinstance(g, GEnd):
            return store.end_global
        key = (_state_key(state), g.nid)
        if key in cells:
            return cells[key]
        d = b.reserve()
        cells[key] = d
        sender = state[g.sender]
        branches = []
        for l, cont in sender.branches:
            succ = state.rebind({g.sender: cont,
                                 g.receiver: node_branch(state[g.receiver], l)})
            branches.append((l, go(normalize_session(succ), node_branch(g, l))))
        b.fill_comm(d, g.sender, g.receiver, branches)
        return d

    root = go(normalize_session(M), G)
    if not isinstance(root, int):
        return root
    return b.intern([root])[0]
