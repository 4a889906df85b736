"""Projection, depth, well-formedness, the structural preorders, and typing.

Projection onto a participant follows four clauses, tried in order: absent
participants project to 0, the sender of the root communication to an output,
the receiver to an input, and any other root is projected branchwise and the
results merged.  The merge accepts either branches that all project to the
same process, or branches that all project to inputs from one common sender
with pairwise-disjoint label sets (combined into a single input).

A finite global type (see `core`'s `_finite`) is projected in one pass with
no drafts.  An explicit-stack walk lists, children first, the nodes below it
whose projection is neither cached nor 0.  Each is then decided in that
order: an output or input clause as an entry (shape, refs), a merge as its
first member or as a combined input.  Only then is each entry made, by one
hash-cons lookup, so a rejected type makes no node, and every node, id and
error is the one the draft path below would give.

Any other type is projected corecursively over the global graph.  One
`GraphBuilder.unfold` gives each global node a draft and fills those of the
output and input clauses; the merges are then decided children first, each
once the drafts of its branches are filled, in the order that sweeping the
pending merges in list order would decide them.  One sweep and one ordering
pass stand in for the repeated sweeps, so a chain of merges that each wait
on a later one costs no sweep per merge.  Merges that wait on one another
in a cycle are resolved last.

Both paths decide a merge by one rule, `_merge`, and verify the equalities
it assumes between two projections once the nodes are made, where equal
means identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import total_ordering

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
        return [c for _, c in n.branches if isinstance(c, GComm) and not meets(c)]

    best = {}   # node -> longest prefix before p, None where p cannot be met
    for scc in _sccs([G], before):
        lengths = [1 if meets(c) else 1 + best[c]
                   for n in scc for _, c in n.branches
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
        return (_project_finite if G._finite else _project_run)(G.store, G, p)
    except _Reject as r:
        # at the failing node, then at G (an error met cached is there already)
        cache[(r.err.node.nid, p)] = cache[(G.nid, p)] = r.err
        return r.err


def _merge(g, p, shapes, had_self=False):
    """How the merge at g joins members of these shapes, in member order:
    "first" when it is its first member, "equal" when it is too and every
    other member must turn out identical to that one, "union" when their
    inputs combine into one.  Any other merge is rejected."""
    if not shapes:
        raise AssertionError("empty merge despite the participant occurring")
    if len(shapes) == 1:
        return "first"
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
    if all(not (label_sets[i] & label_sets[j])
           for i in range(len(shapes)) for j in range(i + 1, len(shapes))):
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
    made into two nodes; `made` maps a draft or entry index to its node."""
    for g, a, c in checks:
        fa = made[a] if a.__class__ is int else a
        fc = made[c] if c.__class__ is int else c
        if fa is not fc:
            _reject(ProjectionErrorKind.UnequalContinuations, g, p,
                    f"branches of {g!r} project onto {p!r} differently "
                    f"({print_process(fa)} vs {print_process(fc)})")


def _project_finite(store, root, p):
    """Projection of a finite G: one walk, then every decision, then the
    nodes, with no drafts."""
    cache = store.memo("project")
    # node met -> its cached projection, or itself when visited: a merge
    # tells members apart by node, as the draft path tells drafts apart
    seen = {}
    order = []     # the visited nodes, children first
    frames = [(None, iter([(None, root)]))]
    while frames:
        g, it = frames[-1]
        for _, c in it:
            if c not in seen:
                hit = cache.get((c.nid, p))
                if hit is None and p not in c._participants:
                    hit = cache[(c.nid, p)] = store.end_process
                if hit.__class__ is ProjectionError:
                    raise _Reject(hit)
                if hit is None:
                    seen[c] = c
                    frames.append((c, iter(c.branches)))
                    break
                seen[c] = hit
        else:
            frames.pop()
            if frames:
                order.append(g)

    entries = []   # (shape, refs): each ref a node or an earlier entry's index
    ref = {}       # visited node -> its projection's entry index or node
    checks = []
    for g in order:
        shape = g.shape
        members = [seen[k] for _, k in g.branches]
        if p == shape[1] or p == shape[2]:
            ref[g] = len(entries)
            entries.append((("pout", shape[2], shape[3]) if p == shape[1] else
                            ("pin", shape[1], shape[3]), [ref.get(m, m) for m in members]))
            continue
        refs = [ref.get(m, m) for m in dict.fromkeys(members)]
        shapes = [entries[r][0] if r.__class__ is int else r.shape for r in refs]
        how = _merge(g, p, shapes)
        if how == "union":
            # the label sets are disjoint, so the sort never compares refs
            labels, kids = zip(*sorted(pair for r, s in zip(refs, shapes) for pair in (
                zip(s[-1], entries[r][1]) if r.__class__ is int else r.branches)))
            ref[g] = len(entries)
            entries.append((("pin", shapes[0][1], labels), kids))
            continue
        ref[g] = refs[0]
        if how == "equal":
            checks.extend((g, refs[0], r) for r in refs[1:])

    made = []
    for shape, refs in entries:
        made.append(store._cons_node(shape, refs, made))
    _verify(p, checks, made)
    for g in order:
        r = ref[g]
        cache[(g.nid, p)] = made[r] if r.__class__ is int else r
    return cache[(root.nid, p)]


def _project_run(store, root, p):
    cache = store.memo("project")
    b = store.builder()
    checks = []  # (node, ref, ref): projections assumed equal, checked at the end
    merges = set()

    def expand(g):
        hit = cache.get((g.nid, p))
        if isinstance(hit, ProjectionError):
            raise _Reject(hit)
        if hit is not None:
            return hit
        if p not in participants(g):
            cache[(g.nid, p)] = store.end_process
            return store.end_process
        (_, sender, receiver, labels), kids = _split(g)
        if sender == p:
            return ("pout", receiver, labels), kids
        if receiver == p:
            return ("pin", sender, labels), kids
        merges.add(g)
        return None, kids

    def decide(cell):
        """Fill the cell's draft, or return False while members are holes."""
        g, d, ms, had_self = cell
        shapes = [b.shape_of(m) for m in ms]
        if None in shapes:
            return False
        how = _merge(g, p, shapes, had_self)
        if how == "union":
            b.fill_in(d, shapes[0][1], [t for m in ms for t in b.branch_targets(m)])
            return True
        b.fill_copy(d, ms[0])
        if how == "equal":
            checks.extend((g, ms[0], m) for m in ms[1:])
        return True

    def settle(cells):
        """Decide every cell that list-order sweeps would decide before
        stalling, in the order they would, and return the rest in list
        order.  One sweep settles the common case; after it, a cell's sweep
        is the first one in which each cell it waits on is decided, in an
        earlier sweep or earlier in this one, and a cell waiting on a cycle
        stays pending."""
        rest = [cell for cell in cells if not decide(cell)]
        if not rest or len(rest) == len(cells):
            return rest
        index = {cell[1]: i for i, cell in enumerate(rest)}
        waits = [[index[m] for m in cell[2] if m in index] for cell in rest]
        sweep = {}   # cell position -> sweep number, for the cells decided
        for scc in _sccs(range(len(rest)), waits.__getitem__):
            i = scc[0]
            if len(scc) == 1 and all(j in sweep for j in waits[i]):
                sweep[i] = max((sweep[j] + (j > i) for j in waits[i]), default=0)
        for i in sorted(sweep, key=lambda i: (sweep[i], i)):
            decide(rest[i])
        return [cell for i, cell in enumerate(rest) if i not in sweep]

    value = b.unfold([root], expand)
    drafts = [(g, d) for g, d in value.items() if d.__class__ is int]
    pending = []   # the merges, children first: (node, draft, members, had_self)
    for g, d in drafts:
        if g in merges:
            members = []
            for _, c in g.branches:
                m = value[c]
                if m not in members:
                    members.append(m)
            had_self = d in members
            if had_self:
                members.remove(d)
            pending.append((g, d, members, had_self))
    while pending:
        rest = settle(pending)
        if rest:
            # The remaining merges wait on a cycle of merges.  A cyclic
            # union has no consistent label set, so the only reading left is
            # that each such merge equals its members; pick the first member
            # whose shape is known and leave the equalities to the checks.
            # Merges whose members are all still holes unblock on a later
            # sweep once a neighbour is filled.
            for g, d, members, _ in rest:
                known = [m for m in members if b.shape_of(m) is not None]
                if known:
                    b.fill_copy(d, known[0])
                    checks.extend((g, known[0], m) for m in members if m != known[0])
            still = [cell for cell in rest if b.shape_of(cell[1]) is None]
            if len(still) == len(rest):
                raise AssertionError("merge cycle with no resolved member")
            rest = still
        pending = rest

    nodes = b.intern([d for _, d in drafts])
    _verify(p, checks, {d: node for (_, d), node in zip(drafts, nodes)})
    for (g, _), node in zip(drafts, nodes):
        cache[(g.nid, p)] = node
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


def typecheck(M, G, mode=Mode.Standard, require_wf=True):
    """Does every bound process follow its projection of G?

    A process may be structurally smaller than its projection; participants
    of G missing from the session are reported.  Raises IllFormedGlobalType
    when some projection is undefined or some depth unbounded.  Stepping a
    well-formed type can unbound the depth of a participant involved in the
    step while keeping every projection defined, so checks that follow
    reductions pass require_wf=False to relax the depth half only.  That
    check reads only the projections; it computes depths, through
    `well_formed`, only for the report of an undefined projection.
    """
    if not isinstance(M, Session):
        raise TypeError(f"expected a Session, got {M!r}")
    if require_wf:
        wf = well_formed(G)
        if not wf.ok:
            raise IllFormedGlobalType(G, wf)
        projections = wf.projections
    else:
        projections = {p: project(G, p) for p in sorted(participants(G))}
        if any(isinstance(v, ProjectionError) for v in projections.values()):
            raise IllFormedGlobalType(G, well_formed(G))
    rel = leq if mode is Mode.Standard else leq_plus
    end = G.store.end_process
    failures = []
    for p, P in M.items():
        expected = projections.get(p, end)
        if not rel(P, expected):
            failures.append((p, expected, P))
    missing = [p for p in projections if p not in M]
    return TypingReport(not failures and not missing, failures, missing, mode)
