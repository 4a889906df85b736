"""Labelled transition systems, simulation, exploration, and lock-freedom.

Sessions step by rule comm: an output p!Λ meets an input q?Λ' when every
label the sender may choose is acceptable (lbl(Λ) ⊆ lbl(Λ')), and one step
fires per sender label.  Global types step at the root (ecomm) and, for
communications independent of the root choice, inside every branch at once
(icomm).

State spaces are finite because a stepped process is always a node of the
original process graph, so exploration is exact rather than bounded, with a
configurable safety valve on the number of states of the whole session.
Participants that never name each other, directly or through a third,
step independently: a session of such parts is explored part by part, and
its states are the product of the parts' states.
"""

from __future__ import annotations

import math
import os
import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .core import (
    GEnd,
    PEnd,
    PIn,
    POut,
    Session,
    _sccs,
    _split,
    branch_pairs,
    label_index,
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
    """Rule comm for sender p running P while its peer runs Q, or None when
    the peer is unbound: one (action, P's child, Q's child) per label of P,
    in label order, or none unless Q inputs every one of them from p."""
    _, q, labels = P.shape
    if not isinstance(Q, PIn) or Q.shape[1] != p:
        return ()
    pairs = branch_pairs(P, Q, labels)
    if pairs is None:
        return ()
    return tuple([(CommAction(p, l, q), P2, Q2) for l, (P2, Q2) in zip(labels, pairs)])


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
# root communication (rule ecomm), or if it is independent of the root and
# derivable in every branch (rule icomm).  Derivations are finite, so a
# premise that loops back to a judgment already under consideration fails,
# and one walk from the node decides the action.

def _can_step(G, action):
    """Is `action` derivable at G?  One depth-first walk from G through the
    nodes that involve neither of its participants, entering each once.  It
    fails at an end node, at a node that involves a participant without
    firing `action`, and at a node met again while still on the walk's
    path, which closes a cycle and so has no finite derivation; otherwise
    `action` holds."""
    sender, label, receiver = action
    on_path = {}  # node entered -> whether it is still on the walk's path
    stack = [(G, False)]
    while stack:
        g, leaving = stack.pop()
        if leaving:
            on_path[g] = False
            continue
        entered = on_path.get(g)
        if entered is False:
            continue
        if entered or isinstance(g, GEnd):
            return False
        _, s, r, labels = g.shape
        if s == sender or s == receiver or r == sender or r == receiver:
            if s == sender and r == receiver and label_index(labels, label) is not None:
                continue
            return False
        on_path[g] = True
        stack.append((g, True))
        for c in g.kids:
            stack.append((c, False))
    return True


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
    """Enabled global communications with successors, sorted by action.

    The root's own actions fire by rule ecomm, each to its branch, with no
    walk.  Any other derivable action is independent of the root, so it
    fires by rule icomm at nodes reached from G through nodes that involve
    neither of its participants: its candidates come from the nodes below
    the root reached with neither participant met on the way (`met`, as
    bits), the root's two counted as met.  One visit per node, along the
    first path found, is enough: of the nodes where a derivable action
    fires, the first one found is reached through nodes that do not
    involve it.  Nothing is expanded once every participant of G has been
    met, so a type of two participants has no candidates.  Each candidate
    is then decided against the whole type (`_can_step`, `_do_step`).
    """
    if isinstance(G, GEnd):
        return []
    _, sender, receiver, labels = G.shape
    out = [(CommAction(sender, l, receiver), c) for l, c in zip(labels, G.kids)]
    bit = {p: 1 << i for i, p in enumerate(participants(G))}
    everyone = (1 << len(bit)) - 1
    root = bit[sender] | bit[receiver]
    if root == everyone:
        return out
    candidates = set()
    met = {G: root}
    stack = [G]
    while stack:
        n = stack.pop()
        m = met[n]
        here = bit[n.sender] | bit[n.receiver]
        if not m & here:
            for l in n.shape[-1]:
                candidates.add((n.sender, l, n.receiver))
        m |= here
        if m == everyone:
            continue
        for c in n.kids:
            if c not in met and not isinstance(c, GEnd):
                met[c] = m
                stack.append(c)
    if not candidates:
        return out
    for action in sorted(candidates):
        action = CommAction(*action)
        if _can_step(G, action):
            out.append((action, _do_step(G, action)))
    out.sort(key=itemgetter(0))
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

class _Space(NamedTuple):
    """What one breadth-first exploration records, per state in BFS order:
    the node vector (position k holds the node of `names[k]`, an end node
    once it has ended), the successors' indices and the actions of those
    edges in edge order, and the masks of the participants its edges
    involve and of those it binds, bit k for `names[k]`."""

    names: tuple
    vecs: list
    successors: list
    actions: list
    involved: list
    binds: list


class _States(Sequence):
    """The states of a `StateGraph` as a read-only sequence, in BFS order.

    Its length is known at once.  Item i is state i's normalized `Session`,
    the participants of the initial order whose node is not an end node,
    built on its first read and kept; item 0 is the initial session itself,
    and any other item needs the whole exploration (`space()`).  Filling an
    item is idempotent, so concurrent readers get equal sessions.  The view
    equals another view or a list of the same sessions.
    """

    __slots__ = ("_init", "_size", "_space", "_sessions")

    def __init__(self, init, size, space):
        self._init = init
        self._size = size
        self._space = space
        self._sessions = None

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(self._size)[i]]
        i = range(self._size)[i]
        if i == 0:
            return self._init
        if self._sessions is None:
            self._sessions = [None] * self._size
        M = self._sessions[i]
        if M is None:
            space = self._space()
            M = self._sessions[i] = Session._trusted({
                p: P for p, P in zip(space.names, space.vecs[i])
                if not isinstance(P, PEnd)})
        return M

    def __eq__(self, other):
        if not isinstance(other, (_States, list)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self):
        return repr(list(self))


class StateGraph:
    """The reachable states of a session and the rule-comm edges between them.

    `parts` holds one exploration per independent part of the session (see
    `explore`), each a record of per-state lists in breadth-first order.
    The whole session's lists, bit k for the k-th participant of the
    initial state, are `successors` (the successors' indices in edge
    order), `actions` (the actions of those edges in the same order),
    `involved` (the mask of the participants its edges involve) and
    `binds` (the mask of the participants it binds).  With exactly one
    part they are that part's; otherwise the first read of any of them
    runs the whole session's exploration, once, which numbers the states
    as a session of one part would be numbered.

    The counts need no such run: `len(states)` is the product of the
    parts' state counts and `edge_count` is Σᵢ eᵢ·Π_{j≠i} sⱼ, since every
    state of the session is one state of each part and steps by one part's
    edge.  `states` is a read-only view whose item i is built on its first
    read (see `_States`).  `edges` is the list of (source index,
    CommAction, target index) triples in BFS order, built from the
    per-state lists on its first read and kept.  Both views are filled
    idempotently, so concurrent readers get equal values.  Equality
    compares `states`, `edges` and `initial` only.
    """

    initial = 0

    def __init__(self, init, parts, space):
        size = math.prod(len(part.vecs) for part in parts)
        self.states = _States(init, size, space)
        self.parts = parts
        self.edge_count = sum(sum(map(len, part.successors)) * (size // len(part.vecs))
                              for part in parts)
        self._space = space
        self._edges = None

    successors = property(lambda self: self._space().successors)
    actions = property(lambda self: self._space().actions)
    involved = property(lambda self: self._space().involved)
    binds = property(lambda self: self._space().binds)

    @property
    def edges(self):
        if self._edges is None:
            self._edges = [(i, a, t) for i, (acts, targets)
                           in enumerate(zip(self.actions, self.successors))
                           for a, t in zip(acts, targets)]
        return self._edges

    def __eq__(self, other):
        if not isinstance(other, StateGraph):
            return NotImplemented
        return (self.initial == other.initial and self.states == other.states
                and self.edges == other.edges)

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


def _parts(init):
    """The participants of `init` split into the connected components of the
    names graph, in which p is linked to every participant that p's process
    names, bound or not.  Each part lists its participants in the initial
    order, and the parts come in the order of their first participants.
    No rule-comm step involves two parts, so each part steps on its own."""
    part = {}   # name -> the list of the names found linked to it so far
    for p, P in init.items():
        mine = part.get(p)
        if mine is None:
            mine = part[p] = [p]
        for q in participants(P):
            theirs = part.get(q)
            if theirs is None:
                mine.append(q)
                part[q] = mine
            elif theirs is not mine:   # merge the shorter list into the longer
                if len(theirs) > len(mine):
                    mine, theirs = theirs, mine
                mine += theirs
                for x in theirs:
                    part[x] = mine
    if part and len(mine) == len(part):   # the last list holds every name
        return [init.participants]
    groups = {}
    for p in init:
        groups.setdefault(id(part[p]), []).append(p)
    return [tuple(names) for names in groups.values()]


def _explore(names, start, limit):
    """Reachability closure of rule comm from the node vector `start`, whose
    position k runs participant names[k]; no `Session` is built.

    A state is keyed by one integer code whose k-th digit, w bits wide, is
    the nid of the node at position k (an ended participant holds its end
    node); w is the bit length of the largest node count among the stores
    of the start nodes.  A participant's nodes all come from the store of
    its start node, so this numbers states exactly as keying them by their
    (participant, nid) pairs would.  Each state derives its senders' moves
    with `_pair_moves` where it reads them, and a successor's code from the
    nids of the two nodes that move; a memo of moves would hit often only
    where a product of independent parts is explored whole.
    States are numbered breadth first, and each distinct state's node
    vector is built once, when it is first found.  Returns the `_Space`, or
    None as soon as more than `limit` states are found.
    """
    at = {p: k for k, p in enumerate(names)}
    width = max([P.store._count for P in start], default=0).bit_length()
    code = sum([P.nid << k * width for k, P in enumerate(start)])
    vecs = [start]
    codes = [code]
    index = {code: 0}
    successors = []
    actions = []
    involved = []
    binds = [(1 << len(names)) - 1]
    for i, vec in enumerate(vecs):
        code = codes[i]
        targets = []
        labels = []
        acts = 0
        for k, P in enumerate(vec):
            if not isinstance(P, POut):
                continue
            j = at.get(P.shape[1])
            if j is None:
                continue
            Q = vec[j]
            moves = _pair_moves(names[k], P, Q)
            if moves:
                acts |= 1 << k | 1 << j
            for action, P2, Q2 in moves:
                c = code + (P2.nid - P.nid << k * width) + (Q2.nid - Q.nid << j * width)
                t = index.get(c)
                if t is None:
                    t = len(vecs)
                    if t == limit:
                        return None
                    index[c] = t
                    codes.append(c)
                    succ = vec.copy()
                    succ[k] = P2
                    succ[j] = Q2
                    vecs.append(succ)
                    live = binds[i]
                    if isinstance(P2, PEnd) or isinstance(Q2, PEnd):
                        live &= ~(isinstance(P2, PEnd) << k | isinstance(Q2, PEnd) << j)
                    binds.append(live)
                targets.append(t)
                labels.append(action)
        successors.append(targets)
        actions.append(labels)
        involved.append(acts)
    return _Space(names, vecs, successors, actions, involved, binds)


def explore(M):
    """Reachability closure of rule comm over canonical states.

    The participants of the normalized initial session fix one order.  They
    split into independent parts (`_parts`), and each part is explored on
    its own (`_explore`), so the reachable states are the product of the
    parts' states; a session of k independent ping-pong pairs costs 2k
    node vectors, not 2^k.  With one part the graph holds that part's
    lists.  With several it holds the parts and knows its state and edge
    counts, and the whole session is explored only when its lists, its
    edges or a state past the initial one are first read (see
    `StateGraph`).  Only the normalized initial session is built as a
    `Session`.

    Raises StateSpaceBoundExceeded(bound + 1, bound) when the session has
    more than MPST_STATE_BOUND states, counted on the product: a part is
    explored only until it has more states than the bound divided by the
    product of the parts before it.
    """
    bound = _env_state_bound()
    init = normalize_session(M)
    bindings = init._bindings
    parts = []
    size = 1
    for names in _parts(init):
        part = _explore(names, [bindings[p] for p in names], bound // size)
        if part is None:
            raise StateSpaceBoundExceeded(bound + 1, bound)
        parts.append(part)
        size *= len(part.vecs)
    # the whole session's lists: its one part's, or explored on first need
    whole = parts if len(parts) == 1 else []

    def space():
        if not whole:
            whole.append(_explore(init.participants, list(bindings.values()), size))
        return whole[0]

    return StateGraph(init, parts, space)


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

    The check makes one `explore` call and folds each part of the graph
    on its own (`_lock_fold`).  A session is lock-free exactly when every
    part is: a state of the session is stuck only when each part's state
    is, and a participant starves in it exactly when it starves in its
    own part.  So when every part passes, the report is positive with the
    graph's counts and no state of the session is built; otherwise the
    fold runs once more on the whole session's lists, so the witness is
    the one a session of one part would give.  Only the normalized
    initial state is ever built as a `Session`.
    """
    graph = explore(M)
    size = {"states": len(graph.states), "edges": graph.edge_count}
    parts = graph.parts
    if len(parts) > 1 and all(_lock_fold(part, size).ok for part in parts):
        return LockReport(True, **size)
    return _lock_fold(graph._space(), size)


def _lock_fold(space, size):
    """The lock-freedom verdict on one explored `_Space`, reported with the
    counts in `size`.

    Participants are bits of a mask, in the space's order; every state
    binds a subset of the first state's.  The fold reads each state's
    successors, the mask of its own edges and the mask of its bound
    participants, and the actions of its edges only for a witness.  One
    fold over the strongly connected components, sinks first, gives each
    state the mask of every edge reachable from it, and one pass ORs each
    state's bound participants that no such edge involves into one
    `starving` mask.  Only the least participant in that mask is looked
    for, state by state, so the witness is the least starving participant
    at the first state where it starves.  A witness path follows the edge
    that first reaches each state: the states are numbered breadth first
    and each state's edges are listed in order, so that edge is the BFS
    parent and witness paths are shortest.
    """
    succ, own, binds = space.successors, space.involved, space.binds
    n = len(succ)

    def path(i):
        parent = [None] * n   # state 0, the initial one, has none
        for s, (acts, targets) in enumerate(zip(space.actions, succ)):
            for a, t in zip(acts, targets):
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
        p = space.names[bit.bit_length() - 1]
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
    """Co-explore a typed session and its global type; report the first
    divergence.

    The normalized session is explored once (`_explore`), and pairs of
    (state index, type node), both compared by identity, are walked breadth
    first.  At each pair the state's actions must be the type's enabled
    actions, and each matched pair of successors must pass the relaxed
    typing check `_typing_faults` on the target state's live bindings.
    Raises StateSpaceBoundExceeded when the session has more states, or the
    walk more pairs, than MPST_STATE_BOUND allows.
    """
    bound = _env_state_bound()
    if not typecheck(M, G, mode).ok:
        raise ValueError("fidelity harness requires a session typed by the given global type")
    init = normalize_session(M)
    space = _explore(init.participants, list(init._bindings.values()), bound)
    if space is None:
        raise StateSpaceBoundExceeded(bound + 1, bound)

    def live(t):
        return {p: P for p, P in zip(space.names, space.vecs[t]) if not isinstance(P, PEnd)}

    def diverge(kind, action, t, g):
        return FidelityVerdict(False, {
            "kind": kind, "action": str(action),
            "session": print_session(Session._trusted(live(t))) or "0",
            "global": print_global(g)}, len(visited))

    visited = {(0, G)}
    queue = deque([(0, G)])
    while queue:
        i, g = queue.popleft()
        sa = dict(zip(space.actions[i], space.successors[i]))
        ga = dict(global_enabled(g))
        for action in sorted(sa.keys() | ga.keys()):
            if action not in sa:
                return diverge("global action unmatched by the session", action, i, g)
            if action not in ga:
                return diverge("session action unmatched by the global type", action, i, g)
            t, gsucc = sa[action], ga[action]
            if next(_typing_faults(live(t), gsucc, mode), None):
                return diverge("successors no longer typecheck", action, t, gsucc)
            if (t, gsucc) not in visited:
                if len(visited) == bound:
                    raise StateSpaceBoundExceeded(bound + 1, bound)
                visited.add((t, gsucc))
                queue.append((t, gsucc))
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
        for l, cont in zip(sender.shape[-1], sender.kids):
            procs[g.sender], procs[g.receiver] = cont, node_branch(receiver, l)
            kids.append((tuple((p, P) for p, P in procs.items()
                               if not isinstance(P, PEnd)), node_branch(g, l)))
        return ("gcomm", g.sender, g.receiver, node_labels(sender)), kids

    return store.map([(normalize_session(M).items(), G)], expand)[0]
