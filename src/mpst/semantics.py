"""Labelled transition systems, simulation, exploration, and lock-freedom.

Sessions step by rule comm: an output p!Λ meets an input q?Λ' when every
label the sender may choose is acceptable (lbl(Λ) ⊆ lbl(Λ')), and one step
fires per sender label.  Global types step at the root (ecomm) and, for
communications independent of the root choice, inside every branch at once
(icomm).

State spaces are finite because a stepped process is always a node of the
original process graph, so exploration is exact rather than bounded, with a
configurable safety valve on the number of states discovered.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (
    GEnd,
    PEnd,
    PIn,
    POut,
    Session,
    _sccs,
    _split,
    node_branch,
    node_labels,
    normalize_session,
    participants,
)
from .parser import print_global, print_session
from .typecheck import Mode, _typing_faults, typecheck

DEFAULT_STATE_BOUND = 10 ** 6


class CommAction(NamedTuple):
    """One rule-comm step, printed `sender -label-> receiver`.  A named
    tuple: actions hash, compare and sort in C as the plain tuple
    (sender, label, receiver), which they also equal."""

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
    """Exploration discovered more states than the bound allows."""

    def __init__(self, states, bound):
        super().__init__(
            f"exploration found more than {bound} states; "
            f"raise MPST_STATE_BOUND to explore anyway")
        self.states = states
        self.bound = bound


# ---------------------------------------------------------------------------
# Session transitions.

def _pair_moves(p, P, Q):
    """Rule comm for sender p running P while its peer runs Q, which is an
    end node or None once the peer has ended or when it is unbound: one
    (action, sender's continuation, receiver's continuation) per label of P,
    in label order, or none unless Q inputs every one of them from p."""
    q = P.shape[1]
    if not (isinstance(Q, PIn) and Q.shape[1] == p):
        return ()
    accept = dict(Q.branches)
    if not accept.keys() >= set(P.shape[-1]):
        return ()
    return tuple([(CommAction(p, l, q), cont, accept[l]) for l, cont in P.branches])


def session_enabled(M):
    """Enabled communications with their successors, rule comm.

    Bindings are sorted by participant, branches by label, and a sender
    talks to one peer, so the actions come out in CommAction order.
    """
    out = []
    for p, P in M.items():
        if not isinstance(P, POut):
            continue
        for action, P2, Q2 in _pair_moves(p, P, M.get(P.shape[1])):
            succ = dict(M.items())
            succ[p] = P2
            succ[action.receiver] = Q2
            out.append((action, Session._trusted(succ)))
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

def _fires(g, action):
    """Rule ecomm: does `action` fire g's root communication?"""
    return (not isinstance(g, GEnd) and g.sender == action.sender
            and g.receiver == action.receiver and action.label in node_labels(g))


def _can_step(G, action, memo):
    """Is `action` derivable at G?  Decided for each node a derivation would
    pass through, one strongly connected component at a time, children
    first: such a node on a cycle has no finite derivation.  A root that
    involves the action's participants is decided by rule ecomm alone.
    `memo` maps (nid, action) to the verdicts decided so far; the caller
    owns it."""
    def passes(g):
        return not (isinstance(g, GEnd) or action.involves(g.sender)
                    or action.involves(g.receiver))

    if not passes(G):
        res = memo[(G.nid, action)] = _fires(G, action)
        return res

    def succ(g):
        return [c for _, c in g.branches] if (g.nid, action) not in memo and passes(g) else ()

    for scc in _sccs([G], succ):
        g = scc[0]
        if (g.nid, action) in memo:
            continue
        if passes(g):
            res = len(scc) == 1 and all(c is not g and memo[(c.nid, action)]
                                        for _, c in g.branches)
        else:
            res = _fires(g, action)
        for g in scc:
            memo[(g.nid, action)] = res
    return memo[(G.nid, action)]


def _do_step(G, action):
    """G after `action` fires wherever `_can_step` derived it: the chosen
    branch when it fires at G itself, else a type rebuilt below G."""
    def expand(g):
        if g.sender == action.sender and g.receiver == action.receiver:
            return node_branch(g, action.label)
        return _split(g)

    if G.sender == action.sender and G.receiver == action.receiver:
        return expand(G)
    return G.store.map([G], expand)[0]


def global_enabled(G):
    """Enabled global communications with successors, rules ecomm and icomm."""
    if isinstance(G, GEnd):
        return []
    # A derivable action fires at nodes reached from G through nodes that
    # involve neither of its participants, so its candidates come from the
    # nodes reached with neither participant met on the way (`met`, as bits).
    # One visit per node, along the first path found, is enough: of the
    # nodes where a derivable action fires, the first one found is reached
    # through nodes that do not involve it.  Nothing is expanded once every
    # participant of G has been met.  Each candidate is then decided against
    # the whole type.
    bit = {p: 1 << i for i, p in enumerate(participants(G))}
    everyone = (1 << len(bit)) - 1
    candidates = set()
    met = {G: 0}
    stack = [G]
    while stack:
        n = stack.pop()
        m = met[n]
        here = bit[n.sender] | bit[n.receiver]
        if not m & here:
            for l, _ in n.branches:
                candidates.add((n.sender, l, n.receiver))
        m |= here
        if m == everyone:
            continue
        for _, c in n.branches:
            if c not in met and not isinstance(c, GEnd):
                met[c] = m
                stack.append(c)
    can = {}
    out = []
    for action in sorted(candidates):
        action = CommAction(*action)
        if _can_step(G, action, can):
            out.append((action, _do_step(G, action)))
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

@dataclass
class StateGraph:
    """The reachable states of a session and the rule-comm edges between them.

    `explore` keys the states by an integer code while it finds them and
    keeps only their breadth-first numbering.  Besides the states and
    edges, it records per state the lists that `lock_free` reads: its
    successors' indices in edge order, the mask of the participants its
    edges involve, and the mask of the participants it binds, where bit k
    stands for the k-th participant of the initial state.  These lists are
    derived from the states and edges and take no part in equality or in
    the printed forms.
    """

    states: list  # canonical (normalized) sessions, index 0 = initial
    edges: list   # (source index, CommAction, target index)
    initial: int = 0
    successors: list = field(default=None, compare=False, repr=False)
    involved: list = field(default=None, compare=False, repr=False)
    binds: list = field(default=None, compare=False, repr=False)

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


def explore(M):
    """Reachability closure of rule comm over canonical states.

    The participants of the normalized initial session fix one order, and a
    state is keyed by one integer code whose k-th digit, w bits wide, is the
    nid of the node at position k (an ended participant holds its end
    node); w is the bit length of the largest node count among the stores
    of the initial processes.  A participant's nodes all come from the
    store of its initial process, so this numbers states exactly as keying
    them by their (participant, nid) pairs would.  The moves of each
    (position, process, peer's process) are derived once, each with the
    change it makes to the code, so a successor's code is one addition and
    one lookup away.  States are numbered breadth first, and each distinct
    state's node vector and `Session` are built once.  Raises
    StateSpaceBoundExceeded as soon as more than MPST_STATE_BOUND states
    are found.
    """
    bound = _env_state_bound()
    init = normalize_session(M)
    names = init.participants
    at = {p: k for k, p in enumerate(names)}
    start = list(init._bindings.values())
    width = max([P.store._count for P in start], default=0).bit_length()
    code = sum([P.nid << k * width for k, P in enumerate(start)])
    states = [init]
    vecs = [start]
    codes = [code]
    index = {code: 0}
    edges = []
    successors = []
    involved = []
    binds = [(1 << len(names)) - 1]
    # memo[k]: output node P at position k -> (peer's position or None,
    # mask of both positions, {peer's node Q: the moves of P against Q,
    # each with the change it makes to the code})
    memo = [{} for _ in names]
    for i, vec in enumerate(vecs):
        code = codes[i]
        bindings = states[i]._bindings
        targets = []
        acts = 0
        for k, P in enumerate(vec):
            if not isinstance(P, POut):
                continue
            hit = memo[k].get(P)
            if hit is None:
                j = at.get(P.shape[1])
                hit = memo[k][P] = (j, 0 if j is None else 1 << k | 1 << j, {})
            j, pair, by_peer = hit
            if j is None:
                continue
            Q = vec[j]
            moves = by_peer.get(Q)
            if moves is None:
                moves = by_peer[Q] = [
                    (action, P2, Q2,
                     (P2.nid - P.nid << k * width) + (Q2.nid - Q.nid << j * width))
                    for action, P2, Q2 in _pair_moves(names[k], P, Q)]
            if moves:
                acts |= pair
            for action, P2, Q2, delta in moves:
                c = code + delta
                t = index.get(c)
                if t is None:
                    t = len(vecs)
                    if t == bound:
                        raise StateSpaceBoundExceeded(t + 1, bound)
                    index[c] = t
                    codes.append(c)
                    succ = vec.copy()
                    succ[k] = P2
                    succ[j] = Q2
                    vecs.append(succ)
                    succ_bindings = dict(bindings)
                    succ_bindings[action.sender] = P2
                    succ_bindings[action.receiver] = Q2
                    live = binds[i]
                    if isinstance(P2, PEnd) or isinstance(Q2, PEnd):
                        succ_bindings = {r: R for r, R in succ_bindings.items()
                                         if not isinstance(R, PEnd)}
                        live &= ~(isinstance(P2, PEnd) << k | isinstance(Q2, PEnd) << j)
                    states.append(Session._trusted(succ_bindings))
                    binds.append(live)
                edges.append((i, action, t))
                targets.append(t)
        successors.append(targets)
        involved.append(acts)
    return StateGraph(states, edges, successors=successors, involved=involved, binds=binds)


# ---------------------------------------------------------------------------
# Lock-freedom.

@dataclass
class LockReport:
    ok: bool
    deadlock_witness: list | None = None      # actions to a stuck non-final state
    starvation_witness: tuple | None = None   # (actions to the state, participant)
    states: int = 0                           # size of the explored state graph
    edges: int = 0

    def to_json(self):
        return {
            "ok": self.ok,
            "deadlock_witness": None if self.deadlock_witness is None
            else [a.to_json() for a in self.deadlock_witness],
            "starvation_witness": None if self.starvation_witness is None
            else {"path": [a.to_json() for a in self.starvation_witness[0]],
                  "participant": self.starvation_witness[1]},
            "stats": {"states": self.states, "edges": self.edges},
        }


def lock_free(M):
    """Exact check of the two lock-freedom conditions on the state graph.

    (a) every reachable state is all-terminated or can step; (b) whenever a
    participant still has work, some reachable transition involves it.

    Participants are bits of a mask, in the initial state's order; every
    state binds a subset of the initial state's.  The check reads the
    per-state lists that `explore` records: each state's successors, the
    mask of its own edges and the mask of its bound participants.  One
    fold over the strongly connected components, sinks first, gives each
    state the mask of every edge reachable from it, and one pass ORs each
    state's bound participants that no such edge involves into one
    `starving` mask.  Only the least participant in that mask is looked
    for, state by state, so the witness is the least starving participant
    at the first state where it starves.  A witness path
    follows the edge that first reaches each state: `explore` numbers the
    states breadth first and lists the edges in that order, so that edge
    is the BFS parent and witness paths are shortest.
    """
    graph = explore(M)
    succ, own, binds = graph.successors, graph.involved, graph.binds
    n = len(succ)
    size = {"states": n, "edges": len(graph.edges)}

    def path(i):
        parent = [None] * n   # state 0, the initial one, has none
        for s, a, t in graph.edges:
            if parent[t] is None and t:
                parent[t] = (s, a)
        acc = []
        while i:
            i, a = parent[i]
            acc.append(a)
        acc.reverse()
        return acc

    for i in range(n):
        if not succ[i] and binds[i]:
            return LockReport(False, deadlock_witness=path(i), **size)
    reach = [0] * n
    for scc in _sccs(range(n), succ.__getitem__):
        m = 0
        for x in scc:   # the masks of this component are still 0
            m |= own[x]
            for y in succ[x]:
                m |= reach[y]
        for x in scc:
            reach[x] = m
    starving = 0
    for i in range(n):
        starving |= binds[i] & ~reach[i]
    if starving:
        bit = starving & -starving
        p = graph.states[0].participants[bit.bit_length() - 1]
        for i in range(n):
            if binds[i] & bit and not reach[i] & bit:
                return LockReport(False, starvation_witness=(path(i), p), **size)
    return LockReport(True, **size)


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
    must coincide, and each matched pair of successors must pass the
    relaxed check of `typecheck(..., require_wf=False)`, `_typing_faults`,
    which stops at its first fault.  Reports the first divergence.  A state
    is its normalized bindings, a dict sorted by participant: its moves come
    from `_pair_moves`, memoised per (sender, process, peer's process), and
    a successor drops the participants that end, as in `explore`.  A pair
    is keyed by the state's (participant, node) pairs and the type node, by
    identity; a `Session` is made only to print a divergence.  Like
    `explore`, raises StateSpaceBoundExceeded once more pairs are found
    than MPST_STATE_BOUND allows.
    """
    bound = _env_state_bound()
    if not typecheck(M, G, mode).ok:
        raise ValueError("fidelity harness requires a session typed by the given global type")

    moves = {}   # (sender, process, peer's process or None) -> its moves
    visited = set()
    queue = deque()

    def diverge(kind, action, bindings, g):
        return FidelityVerdict(False, {
            "kind": kind, "action": str(action),
            "session": print_session(Session._trusted(bindings)) or "0",
            "global": print_global(g)}, len(visited))

    def visit(bindings, g):
        key = (tuple(bindings.items()), g)
        if key not in visited:
            if len(visited) == bound:
                raise StateSpaceBoundExceeded(bound + 1, bound)
            visited.add(key)
            queue.append((bindings, g))

    visit(normalize_session(M)._bindings, G)
    while queue:
        bindings, g = queue.popleft()
        sa = {}
        for p, P in bindings.items():
            if isinstance(P, POut):
                key = (p, P, bindings.get(P.shape[1]))
                hit = moves.get(key)
                if hit is None:
                    hit = moves[key] = _pair_moves(*key)
                for action, P2, Q2 in hit:
                    sa[action] = P2, Q2
        ga = dict(global_enabled(g))
        for action in sorted(sa.keys() | ga.keys()):
            if action not in sa:
                return diverge("global action unmatched by the session", action, bindings, g)
            if action not in ga:
                return diverge("session action unmatched by the global type",
                               action, bindings, g)
            P2, Q2 = sa[action]
            succ = dict(bindings)
            succ[action.sender] = P2
            succ[action.receiver] = Q2
            if isinstance(P2, PEnd) or isinstance(Q2, PEnd):
                succ = {r: R for r, R in succ.items() if not isinstance(R, PEnd)}
            gsucc = ga[action]
            if next(_typing_faults(succ, gsucc, mode), None):
                return diverge("successors no longer typecheck", action, succ, gsucc)
            visit(succ, gsucc)
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

    def expand(key):
        # (the normalized state as (participant, process) pairs, node of G)
        state, g = key
        if isinstance(g, GEnd):
            return store.end_global
        procs = dict(state)
        sender, receiver = procs[g.sender], procs[g.receiver]
        kids = []
        for l, cont in sender.branches:
            procs[g.sender], procs[g.receiver] = cont, node_branch(receiver, l)
            kids.append((tuple((p, P) for p, P in procs.items()
                               if not isinstance(P, PEnd)), node_branch(g, l)))
        return ("gcomm", g.sender, g.receiver, node_labels(sender)), kids

    return store.map([(normalize_session(M).items(), G)], expand)[0]
