"""Projection, depth, well-formedness, the structural preorders, and typing.

Projection onto a participant follows four clauses, tried in order: absent
participants project to 0, the sender of the root communication to an output,
the receiver to an input, and any other root is projected branchwise and the
results merged.  The merge accepts either branches that all project to the
same process, or branches that all project to inputs from one common sender
with pairwise-disjoint label sets (combined into a single input).

Every global type is projected by one function, `_project`, in three
steps.  An explicit-stack walk lists, children first, the nodes below G
whose projection is neither cached nor 0.  Each gets an entry index on its
first visit, so that a back edge can name it, and each output or input
clause its entry (shape, refs) once listed, each ref an index or a cached
process.  The members of a merge are the distinct child nodes of its node
other than the node itself, each read as its ref: two children are two
members even when the memo already holds one process for both, so a
verdict never depends on what the store projected before.  A merge of one
member is an alias of it, decided as it is listed: it takes that member's
ref as its own and gets no entry, and a back edge that named its index
before reads the ref through the aliases.  Only the merges of two or more
members, the real choices, are then decided by one rule, `_merge`, in the
order that sweeping the undecided ones in list order until none moves
would decide them, but without the repeated sweeps: a merge the first
sweep leaves is decided right after the last merge it waits on, in that
merge's sweep or the next, so a chain of merges that each wait on a later
one costs no sweep per merge.  Merges that wait on one another in a cycle
fall back to their first member whose projection is known.  Inputs are
disjoint when their label sets' union is as large as their sizes' sum, so
a wide choice merges in linear time.  Only then are the nodes made, so a
rejected type makes none, and the equalities a merge assumed between two
projections are verified, where equal means identical.

A merge decided to be one of its members is an alias of that member,
which is never an alias itself, and takes its node.  The other entries are
made in list order, one hash-cons lookup each, as children come first,
until one names an entry not made yet: that entry closes a cycle, and from
it on the entries go to one interning batch, each ref through the aliases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import total_ordering
from heapq import heappop, heappush

from .core import (
    GComm,
    GEnd,
    PEnd,
    PIn,
    POut,
    Session,
    _sccs,
    _split,
    branch_pairs,
    check_ident,
    coinductive_closure,
    participants,
)
from .parser import print_process


# ---------------------------------------------------------------------------
# Depth: how many communications can precede a participant's first one.

@total_ordering
@dataclass(frozen=True)
class DepthValue:
    """A path-prefix length; value None means the prefix is unbounded."""

    value: int | None

    @classmethod
    def finite(cls, n):
        return cls(n)

    @classmethod
    def infinite(cls):
        return cls(None)

    @property
    def is_finite(self):
        return self.value is not None

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def __lt__(self, other):
        if not isinstance(other, DepthValue):
            return NotImplemented
        if self.value is None:
            return False
        return other.value is None or self.value < other.value

    def to_json(self):
        return "inf" if self.value is None else self.value


def depth(G, p):
    """Longest run of communications before p's first one, over all paths.

    Paths on which p never communicates contribute nothing; a cycle from
    which p stays reachable pumps the prefix without bound.
    """
    memo = G.store.memo("depth")
    key = (G.nid, p)
    if key not in memo:
        memo[key] = _depth_raw(G, p)
    return memo[key]


def _depth_raw(G, p):
    """One pass over the strongly connected components of the communications
    reached from G before p is met, children first.  A component that can
    still meet p pumps the prefix if it is cyclic; otherwise its one node
    takes the longest prefix over its branches."""
    if isinstance(G, GEnd) or p not in participants(G) or p in (G.sender, G.receiver):
        return DepthValue.finite(0)

    def meets(c):
        return isinstance(c, GComm) and p in (c.sender, c.receiver)

    def before(n):
        return [c for c in n.kids if isinstance(c, GComm) and not meets(c)]

    best = {}   # node -> longest prefix before p, None where p cannot be met
    for scc in _sccs([G], before):
        lengths = [1 if meets(c) else 1 + best[c]
                   for n in scc for c in n.kids
                   if meets(c) or best.get(c) is not None]
        if lengths and (len(scc) > 1 or scc[0] in before(scc[0])):
            return DepthValue.infinite()
        value = max(lengths, default=None)
        for n in scc:
            best[n] = value
    return DepthValue.finite(best[G] or 0)


# ---------------------------------------------------------------------------
# Projection.

class ProjectionErrorKind(Enum):
    MixedShapes = "MixedShapes"
    DifferentInputSenders = "DifferentInputSenders"
    OverlappingInputLabels = "OverlappingInputLabels"
    UnequalContinuations = "UnequalContinuations"


class ProjectionError(Exception):
    """Why the branchwise merge at a global node has no result."""

    def __init__(self, kind, node, participant, message):
        super().__init__(f"{kind.value}: {message}")
        self.kind = kind
        self.node = node
        self.participant = participant
        self.message = message

    def to_json(self):
        return {"error": self.kind.value, "message": self.message}


class _Reject(Exception):
    """Carries a ProjectionError, never raised itself, so no cached error
    holds a traceback."""

    def __init__(self, err):
        super().__init__(str(err))
        self.err = err


def _reject(kind, g, p, message):
    raise _Reject(ProjectionError(kind, g, p, message))


def project(G, p):
    """Process the participant must run to follow G, or a ProjectionError."""
    cache = G.store.memo("project")
    # Every key of the memo names a checked participant, so only a miss
    # needs the name checked.
    hit = cache.get((G.nid, p)) if isinstance(p, str) else None
    if hit is not None:
        return hit
    check_ident(p, "participant")
    try:
        return _project(G.store, G, p)
    except _Reject as r:
        # at the failing node, then at G (an error met cached is there already)
        cache[(r.err.node.nid, p)] = cache[(G.nid, p)] = r.err
        return r.err


def _merge(g, p, shapes, had_self=False):
    """How the merge at g joins its two or more members, given by their
    shapes in member order: None while one is undecided (None), "first"
    when it is its first member, "equal" when it is too and every other
    member must turn out identical to that one, "union" when their inputs
    combine into one.  Any other merge is rejected."""
    if None in shapes:
        return None
    kinds = {s[0] for s in shapes}
    if len(kinds) > 1:
        words = {"pend": "end", "pin": "in", "pout": "out"}
        _reject(ProjectionErrorKind.MixedShapes, g, p,
                f"branches of {g!r} project onto {p!r} with different shapes "
                f"({', '.join(sorted(words[k] for k in kinds))})")
    kind = kinds.pop()
    if kind == "pend":
        return "first"
    if kind == "pout":
        if len({(s[1], s[2]) for s in shapes}) > 1:
            _reject(ProjectionErrorKind.UnequalContinuations, g, p,
                    f"branches of {g!r} project onto {p!r} as different outputs")
        return "equal"
    senders = {s[1] for s in shapes}
    if len(senders) > 1:
        _reject(ProjectionErrorKind.DifferentInputSenders, g, p,
                f"branches of {g!r} project onto {p!r} as inputs from "
                f"{', '.join(sorted(senders))}")
    label_sets = [set(s[2]) for s in shapes]
    if all(ls == label_sets[0] for ls in label_sets):
        return "equal"
    # disjoint exactly when no label is counted twice
    if len(set().union(*label_sets)) == sum(map(len, label_sets)):
        if had_self:
            _reject(ProjectionErrorKind.OverlappingInputLabels, g, p,
                    f"a branch of {g!r} projects onto {p!r} to the merged input "
                    f"itself, which cannot be disjoint from the union")
        return "union"
    _reject(ProjectionErrorKind.OverlappingInputLabels, g, p,
            f"branches of {g!r} project onto {p!r} as inputs whose label sets "
            f"overlap without being equal")


def _verify(p, checks, made):
    """Reject at the first (node, ref, ref) whose refs, assumed equal, were
    made into two nodes; `made` maps an entry index to its node."""
    for g, a, c in checks:
        fa = made[a] if a.__class__ is int else a
        fc = made[c] if c.__class__ is int else c
        if fa is not fc:
            _reject(ProjectionErrorKind.UnequalContinuations, g, p,
                    f"branches of {g!r} project onto {p!r} differently "
                    f"({print_process(fa)} vs {print_process(fc)})")


def _decide(p, entries, alias, checks, i, g, ms, had_self):
    """Fill the entry of the merge at g, or return False while one of its
    members is undecided.  Each member is an entry index or a process."""
    # a process's own shape, or its entry's (None while undecided)
    shapes = [m.shape if m.__class__ is not int
              else entries[m] and entries[m][0] for m in ms]
    how = _merge(g, p, shapes, had_self)
    if how is None:
        return False
    if how == "union":
        # the label sets are disjoint, so the sort never compares refs
        ds = [entries[m] if m.__class__ is int else _split(m) for m in ms]
        labels, kids = zip(*sorted(pair for shape, refs in ds
                                   for pair in zip(shape[-1], refs)))
        entries[i] = (("pin", ds[0][0][1], labels), kids)
    else:
        m = ms[0]
        alias[i] = alias.get(m, m)
        entries[i] = entries[m] if m.__class__ is int else _split(m)
        if how == "equal":
            checks.extend((g, m, k) for k in ms[1:])
    return True


def _project(store, root, p):
    """Projection of G onto p: one walk, then every decision, then the nodes."""
    cache = store.memo("project")
    # node met -> its cached projection, or when visited its entry index,
    # reserved on the first visit so that a back edge can name it, or once
    # listed, for a merge of one member, that member's ref
    seen = {}
    entries = []   # each visited node's (shape, refs), a ref an index or a process
    order = []     # (node, entry index) of the visited nodes, children first
    merges = []    # (index, node, its distinct children but itself as refs, had itself)
    alias = {}     # merge index -> the ref it is: its one member's, or the one decided
    frames = [(None, None, iter([root]))]
    while frames:
        g, i, it = frames[-1]
        for c in it:
            if c not in seen:
                hit = cache.get((c.nid, p))
                if hit is None and p not in c._participants:
                    hit = cache[(c.nid, p)] = store.end_process
                if hit.__class__ is ProjectionError:
                    raise _Reject(hit)
                if hit is None:
                    seen[c] = j = len(entries)
                    entries.append(None)
                    frames.append((c, j, iter(c.kids)))
                    break
                seen[c] = hit
        else:
            frames.pop()
            if frames:
                order.append((g, i))
                _, sender, receiver, labels = g.shape
                kids = g.kids
                if p == sender or p == receiver:
                    shape = (("pout", receiver, labels) if p == sender
                             else ("pin", sender, labels))
                    entries[i] = (shape, [seen[kids[0]]] if len(kids) == 1
                                  else [seen[k] for k in kids])
                else:
                    ms = kids if len(kids) == 1 else [c for c in dict.fromkeys(kids)
                                                      if c is not g]
                    if len(ms) == 1:
                        # an alias of its member, through that one's own alias
                        r = seen[ms[0]]
                        seen[g] = alias[i] = alias.get(r, r)
                    else:
                        merges.append((i, g, [seen[c] for c in ms], g in kids))

    checks = []    # (node, ref, ref): projections assumed equal
    # the first sweep of the merges in list order, then the merges it
    # leaves; a member named by a back edge may have been aliased since
    pending = []
    for i, g, ms, had_self in merges:
        cell = (i, g, [alias.get(m, m) for m in ms], had_self)
        if not _decide(p, entries, alias, checks, *cell):
            pending.append(cell)
    while pending:
        # a merge goes in the sweep that decides the last merge it waits
        # on, the next one if that merge comes after it in the list
        at = {cell[0]: k for k, cell in enumerate(pending)}
        waiters = [[] for _ in pending]
        left = []
        for k, (_, _, ms, _) in enumerate(pending):
            waits = [at[m] for m in ms if m in at]
            for j in waits:
                waiters[j].append(k)
            left.append(len(waits))
        sweep = [0] * len(pending)
        ready = [(0, k) for k, n in enumerate(left) if not n]
        while ready:
            s, k = heappop(ready)
            _decide(p, entries, alias, checks, *pending[k])
            for w in waiters[k]:
                sweep[w] = max(sweep[w], s + (k > w))
                left[w] -= 1
                if not left[w]:
                    heappush(ready, (sweep[w], w))
        rest = [cell for cell in pending if entries[cell[0]] is None]
        # The rest wait on a cycle of merges.  A cyclic union has no
        # consistent label set, so each such merge can only equal its
        # members: it is its first known one, and the checks test the rest.
        for i, g, ms, _ in rest:
            known = [m for m in ms
                     if m.__class__ is not int or entries[m] is not None]
            if known:
                first = known[0]
                alias[i] = alias.get(first, first)
                entries[i] = (entries[first] if first.__class__ is int
                              else _split(first))
                checks.extend((g, first, m) for m in ms if m != first)
        pending = [cell for cell in rest if entries[cell[0]] is None]
        if pending and len(pending) == len(rest):
            raise AssertionError("merge cycle with no resolved member")

    made = [None] * len(entries)
    cons = store._cons_node
    for k, (_, i) in enumerate(order):
        m = alias.get(i)
        if m is not None:
            node = made[m] if m.__class__ is int else m
        else:
            shape, refs = entries[i]
            if len(refs) == 1:
                r = refs[0]
                kid = made[r] if r.__class__ is int else r
                node = None if kid is None else cons(shape, (kid,))
            else:
                kids = [made[r] if r.__class__ is int else r for r in refs]
                node = None if None in kids else cons(shape, kids)
        if node is None:
            # this entry names one not made yet: it closes a cycle, and it
            # and the entries after it go to one interning batch, each ref
            # through its aliases: an alias made while the node it names was
            # still on the walk leads on to that node's own alias
            def resolve(r):
                while r in alias:
                    r = alias[r]
                return r

            def expand(t):
                node = made[t] if t.__class__ is int else t
                if node is not None:
                    return node
                shape, refs = entries[t]
                return shape, [resolve(r) for r in refs]

            rest = [i for _, i in order[k:]]
            for i, node in zip(rest, store.map([resolve(i) for i in rest], expand)):
                made[i] = node
            break
        made[i] = node
    _verify(p, checks, made)
    for g, i in order:
        cache[(g.nid, p)] = made[i]
    return cache[(root.nid, p)]


# ---------------------------------------------------------------------------
# Structural preorders.

def _leq_step(x, y):
    kind = x.__class__
    if kind is not y.__class__ or x.shape[1] != y.shape[1]:
        return None
    if kind is PIn:
        # the smaller process may accept extra labels
        return branch_pairs(x, y, y.shape[-1])
    if kind is POut and x.shape == y.shape:
        return branch_pairs(x, y, x.shape[-1])
    return () if kind is PEnd else None


def _leq_plus_step(x, y):
    if x.__class__ is not POut:
        return _leq_step(x, y)
    if y.__class__ is not POut or x.peer != y.peer:
        return None
    # the smaller process may offer fewer labels
    return branch_pairs(x, y, x.shape[-1])


def leq(P, Q):
    """Structural preorder: inputs may widen leftward, outputs must match."""
    return coinductive_closure("leq", P, Q, _leq_step, reflexive=True)


def leq_plus(P, Q):
    """Variant preorder that lets the smaller process offer fewer outputs."""
    return coinductive_closure("leq+", P, Q, _leq_plus_step, reflexive=True)


# ---------------------------------------------------------------------------
# Well-formedness and typing.

class Mode(Enum):
    Standard = "standard"
    Plus = "plus"


class IllFormedGlobalType(Exception):
    def __init__(self, G, report):
        failing = ", ".join(p for p, _ in report.failures())
        super().__init__(f"global type is not well formed (offending: {failing})")
        self.global_type = G
        self.report = report


@dataclass
class WellFormedReport:
    ok: bool
    depths: dict
    projections: dict

    def failures(self):
        out = []
        for p in self.depths:
            causes = []
            if not self.depths[p].is_finite:
                causes.append("unbounded depth")
            if isinstance(self.projections[p], ProjectionError):
                causes.append(str(self.projections[p]))
            if causes:
                out.append((p, "; ".join(causes)))
        return out

    def to_json(self):
        return {
            "ok": self.ok,
            "depths": {p: d.to_json() for p, d in self.depths.items()},
            "projections": {
                p: v.to_json() if isinstance(v, ProjectionError) else print_process(v)
                for p, v in self.projections.items()
            },
            "failures": [{"participant": p, "cause": c} for p, c in self.failures()],
        }


def well_formed(G):
    """Every participant has finite depth and a defined projection."""
    pts = sorted(participants(G))
    depths = {p: depth(G, p) for p in pts}
    projections = {p: project(G, p) for p in pts}
    ok = all(d.is_finite for d in depths.values()) and not any(
        isinstance(v, ProjectionError) for v in projections.values())
    return WellFormedReport(ok, depths, projections)


@dataclass
class TypingReport:
    ok: bool
    failures: list = field(default_factory=list)  # (participant, expected, actual)
    missing: list = field(default_factory=list)
    mode: Mode = Mode.Standard

    def to_json(self):
        return {
            "ok": self.ok,
            "mode": self.mode.value,
            "failures": [
                {"participant": p, "expected": print_process(e), "actual": print_process(a)}
                for p, e, a in self.failures
            ],
            "missing": list(self.missing),
        }


def typecheck(M, G, mode=Mode.Standard):
    """Does every bound process follow its projection of G?

    A process may be structurally smaller than its projection; participants
    of G missing from the session are reported.  Raises IllFormedGlobalType
    when some projection is undefined or some depth unbounded.  Stepping a
    well-formed type can unbound the depth of a participant involved in the
    step while keeping every projection defined, so checks that follow
    reductions relax the depth half only: the fidelity harness calls the
    relaxed check, `_typing_faults`, which lists the same faults one at a
    time, on each successor without building a report.
    """
    if not isinstance(M, Session):
        raise TypeError(f"expected a Session, got {M!r}")
    wf = well_formed(G)
    if not wf.ok:
        raise IllFormedGlobalType(G, wf)
    faults = list(_typing_faults(M, G, mode))
    failures = [f for f in faults if f[2] is not None]
    missing = [p for p, _, P in faults if P is None]
    return TypingReport(not faults, failures, missing, mode)


def _typing_faults(bindings, G, mode):
    """The relaxed typing check of `bindings` (a mapping from participants
    to processes) against G, one fault at a time, so a caller that needs
    only the verdict stops at the first: each bound process that is not
    below its projection, as (participant, projection, process), where a
    participant absent from G projects to 0, then each participant of G
    left unbound, as (participant, projection, None).  Every projection
    comes from `project`, in participant order, and IllFormedGlobalType is
    raised, before any fault, at the first that is undefined; depths are
    computed, through `well_formed`, only for that error's report."""
    projections = {}
    for p in sorted(participants(G)):
        projections[p] = expected = project(G, p)
        if expected.__class__ is ProjectionError:
            raise IllFormedGlobalType(G, well_formed(G))
    rel = leq if mode is Mode.Standard else leq_plus
    end = G.store.end_process
    for p, P in bindings.items():
        expected = projections.get(p, end)
        # both preorders are reflexive
        if P is not expected and not rel(P, expected):
            yield p, expected, P
    for p, expected in projections.items():
        if p not in bindings:
            yield p, expected, None
