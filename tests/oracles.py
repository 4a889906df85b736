"""Reference implementations of the graph-to-graph maps, for differential tests.

These are the recursive versions of `project`, `gateway`, `connect_globals`,
`standard_witness`, the global-type step functions and the printer that
preceded `GraphBuilder.unfold` and the explicit-stack printer, kept verbatim
apart from their names and their memo tables (`ref_project`, `ref_gateway`),
so that they share no cache with the production code.  Each recurses once
per node, so they only suit small inputs.
"""

from mpst.compose import HASH, CnKey, NoClauseApplies, ParticipantCollision, StarMarker
from mpst.core import (GComm, GEnd, PEnd, PIn, Session, check_ident,
                       node_branch, node_labels, normalize_session, participants)
from mpst.parser import print_process
from mpst.semantics import _state_key
from mpst.typecheck import Mode, ProjectionError, ProjectionErrorKind, typecheck


class _Reject(Exception):
    def __init__(self, err):
        super().__init__(str(err))
        self.err = err


class _Cell:
    __slots__ = ("draft", "state", "node", "members", "had_self")
    # state: "busy" while the clauses run, "deferred" while the merge waits
    # on other in-flight projections, "done" once the draft is filled.

    def __init__(self, draft, node):
        self.draft = draft
        self.state = "busy"
        self.node = node
        self.members = None
        self.had_self = False


def ref_project(G, p):
    """Process the participant must run to follow G, or a ProjectionError."""
    check_ident(p, "participant")
    cache = G.store.memo("ref_project")
    hit = cache.get((G.nid, p))
    if hit is not None:
        return hit
    try:
        return _ref_project_run(G.store, G, p)
    except _Reject as r:
        cache[(G.nid, p)] = r.err
        return r.err


def _ref_project_run(store, root, p):
    cache = store.memo("ref_project")
    b = store.builder()
    cells = {}
    deferred = []
    checks = []  # (node, ref, ref): projections assumed equal, checked at the end

    def reject(kind, g, msg):
        err = ProjectionError(kind, g, p, msg)
        cache[(g.nid, p)] = err
        raise _Reject(err)

    def decide(cell):
        """Fill the cell's draft, or return False while members are holes."""
        shapes = []
        for m in cell.members:
            s = b.shape_of(m)
            if s is None:
                return False
            shapes.append(s)
        g, d, ms = cell.node, cell.draft, cell.members
        if not ms:
            raise AssertionError("empty merge despite the participant occurring")
        if len(ms) == 1:
            b.fill_copy(d, ms[0])
            return True
        kinds = {s[0] for s in shapes}
        if len(kinds) > 1:
            words = {"pend": "end", "pin": "in", "pout": "out"}
            reject(ProjectionErrorKind.MixedShapes, g,
                   f"branches of {g!r} project onto {p!r} with different shapes "
                   f"({', '.join(sorted(words[k] for k in kinds))})")
        kind = kinds.pop()
        if kind == "pend":
            b.fill_copy(d, ms[0])
            return True
        if kind == "pout":
            if len({(s[1], s[2]) for s in shapes}) > 1:
                reject(ProjectionErrorKind.UnequalContinuations, g,
                       f"branches of {g!r} project onto {p!r} as different outputs")
            b.fill_copy(d, ms[0])
            checks.extend((g, ms[0], m) for m in ms[1:])
            return True
        senders = {s[1] for s in shapes}
        if len(senders) > 1:
            reject(ProjectionErrorKind.DifferentInputSenders, g,
                   f"branches of {g!r} project onto {p!r} as inputs from "
                   f"{', '.join(sorted(senders))}")
        label_sets = [set(s[2]) for s in shapes]
        if all(ls == label_sets[0] for ls in label_sets):
            b.fill_copy(d, ms[0])
            checks.extend((g, ms[0], m) for m in ms[1:])
            return True
        if all(not (label_sets[i] & label_sets[j])
               for i in range(len(ms)) for j in range(i + 1, len(ms))):
            if cell.had_self:
                reject(ProjectionErrorKind.OverlappingInputLabels, g,
                       f"a branch of {g!r} projects onto {p!r} to the merged input "
                       f"itself, which cannot be disjoint from the union")
            combined = []
            for m in ms:
                combined.extend(b.branch_targets(m))
            b.fill_in(d, senders.pop(), combined)
            return True
        reject(ProjectionErrorKind.OverlappingInputLabels, g,
               f"branches of {g!r} project onto {p!r} as inputs whose label sets "
               f"overlap without being equal")

    def go(g):
        hit = cache.get((g.nid, p))
        if isinstance(hit, ProjectionError):
            raise _Reject(hit)
        if hit is not None:
            return hit
        cell = cells.get(g.nid)
        if cell is not None:
            return cell.draft
        if p not in participants(g):
            cache[(g.nid, p)] = store.end_process
            return store.end_process
        cell = _Cell(b.reserve(), g)
        cells[g.nid] = cell
        d = cell.draft
        if g.sender == p:
            b.fill_out(d, g.receiver, [(l, go(c)) for l, c in g.branches])
        elif g.receiver == p:
            b.fill_in(d, g.sender, [(l, go(c)) for l, c in g.branches])
        else:
            members = []
            for _, c in g.branches:
                m = go(c)
                if m == d:
                    cell.had_self = True
                elif m not in members:
                    members.append(m)
            cell.members = members
            if not decide(cell):
                cell.state = "deferred"
                deferred.append(cell)
                return d
        cell.state = "done"
        return d

    res = go(root)
    pending = [c for c in deferred if c.state != "done"]
    while pending:
        rest = []
        for cell in pending:
            if decide(cell):
                cell.state = "done"
            else:
                rest.append(cell)
        if len(rest) == len(pending):
            # The remaining merges wait on one another in a cycle.  A cyclic
            # union has no consistent label set, so the only reading left is
            # that each such merge equals its members; pick the first member
            # whose shape is known and leave the equalities to the checks.
            # Cells whose members are all still holes unblock on a later
            # sweep once a neighbour is filled.
            progressed = False
            for cell in rest:
                known = [m for m in cell.members if b.shape_of(m) is not None]
                if not known:
                    continue
                b.fill_copy(cell.draft, known[0])
                checks.extend((cell.node, known[0], m)
                              for m in cell.members if m != known[0])
                cell.state = "done"
                progressed = True
            if not progressed:
                raise AssertionError("merge cycle with no resolved member")
            rest = [cell for cell in rest if cell.state != "done"]
        pending = rest

    targets = [cell.draft for cell in cells.values()]
    for _, a, c in checks:
        targets.extend((a, c))
    if not isinstance(res, int):
        final = {}
        nodes = []
    else:
        nodes = b.intern(targets)
        final = dict(zip(targets, nodes))
    at = len(cells)
    for g, a, c in checks:
        fa, fc = nodes[at], nodes[at + 1]
        at += 2
        if fa is not fc:
            reject(ProjectionErrorKind.UnequalContinuations, g,
                   f"branches of {g!r} project onto {p!r} differently "
                   f"({print_process(fa)} vs {print_process(fc)})")
    for nid, cell in cells.items():
        cache[(nid, p)] = final[cell.draft]
    return final[res] if isinstance(res, int) else res


def ref_gateway(P, h):
    """Turn P into a forwarder that relays every exchange through h.

    Inputs are kept and re-sent to h; outputs are first requested from h and
    then delivered to the original peer.
    """
    if h in participants(P):
        raise ParticipantCollision(f"{h!r} already occurs in the process")
    store = P.store
    cache = store.memo("ref_gateway")
    hit = cache.get((P.nid, h))
    if hit is not None:
        return hit
    b = store.builder()
    seen = {}

    def go(n):
        if isinstance(n, PEnd):
            return store.end_process
        d = seen.get(n.nid)
        if d is not None:
            return d
        d = seen[n.nid] = b.reserve()
        relay = h if isinstance(n, PIn) else n.peer
        source = n.peer if isinstance(n, PIn) else h
        branches = [(l, b.add_out(relay, [(l, go(cont))])) for l, cont in n.branches]
        b.fill_in(d, source, branches)
        return d

    root = go(P)
    result = b.intern([root])[0] if isinstance(root, int) else root
    cache[(P.nid, h)] = result
    return result


def ref_connect_globals(G, h, G_prime, k):
    """Interleave two global types, wiring h and k as paired forwarders.

    Communications that used to terminate at h (resp. originate at k) are
    spliced with the forwarding steps h->k (resp. k->h); everything else is
    interleaved unchanged, alternating sides so neither type's independent
    interactions pile up before the other's.

    The left type progresses until it ends or blocks on an output of h; only
    then does the right type move.  Callers must supply compatible types
    (disjoint participants, compatible h/k projections): on other inputs the
    dispatch below can reach a dead end and raises NoClauseApplies.
    """
    store = G.store
    G_prime = store.adopt(G_prime)
    b = store.builder()
    cells = {}

    def cn(h, k, star, L, R, swapped):
        key = CnKey(h, k, star, L.nid, R.nid, swapped)
        hit = cells.get(key)
        if hit is not None:
            return hit
        if star.kind == "hash" and isinstance(L, GEnd):
            cells[key] = R
            return R
        d = cells[key] = b.reserve()
        if star.kind == "hash":
            if isinstance(L, GComm) and L.receiver == h:
                b.fill_comm(d, L.sender, h,
                            [(l, cn(h, k, StarMarker("fwd", l), cont, R, swapped))
                             for l, cont in L.branches])
            elif isinstance(L, GComm) and h not in (L.sender, L.receiver):
                b.fill_comm(d, L.sender, L.receiver,
                            [(l, cn(k, h, HASH, R, cont, not swapped))
                             for l, cont in L.branches])
            elif isinstance(R, GComm) and R.receiver == k:
                b.fill_comm(d, R.sender, k,
                            [(l, cn(h, k, StarMarker("bwd", l), L, cont, swapped))
                             for l, cont in R.branches])
            elif isinstance(R, GComm) and k not in (R.sender, R.receiver):
                b.fill_comm(d, R.sender, R.receiver,
                            [(l, cn(k, h, HASH, cont, L, not swapped))
                             for l, cont in R.branches])
            else:
                raise NoClauseApplies(key)
        elif star.kind == "fwd":
            # h holds a message for k; the second type must route it onward.
            if isinstance(R, GComm) and R.sender == k:
                cont = dict(R.branches).get(star.label)
                if cont is None:
                    raise NoClauseApplies(key)
                inner = b.add_comm(k, R.receiver,
                                   [(star.label, cn(h, k, HASH, L, cont, swapped))])
                b.fill_comm(d, h, k, [(star.label, inner)])
            elif isinstance(R, GComm) and R.receiver != k:
                b.fill_comm(d, R.sender, R.receiver,
                            [(l, cn(h, k, star, L, cont, swapped))
                             for l, cont in R.branches])
            else:
                raise NoClauseApplies(key)
        else:
            # k holds a message for h; the first type must route it onward.
            if isinstance(L, GComm) and L.sender == h:
                cont = dict(L.branches).get(star.label)
                if cont is None:
                    raise NoClauseApplies(key)
                inner = b.add_comm(h, L.receiver,
                                   [(star.label, cn(h, k, HASH, cont, R, swapped))])
                b.fill_comm(d, k, h, [(star.label, inner)])
            elif isinstance(L, GComm) and L.receiver != h:
                b.fill_comm(d, L.sender, L.receiver,
                            [(l, cn(h, k, star, cont, R, swapped))
                             for l, cont in L.branches])
            else:
                raise NoClauseApplies(key)
        return d

    root = cn(h, k, HASH, G, G_prime, False)
    return b.intern([root])[0] if isinstance(root, int) else root


def ref_can_step(G, action, memo, busy):
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
    res = all(ref_can_step(c, action, memo, busy) for _, c in G.branches)
    busy.discard(key)
    memo[key] = res
    return res


def ref_do_step(G, action, memo):
    key = (G.nid, action)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if G.sender == action.sender and G.receiver == action.receiver:
        res = node_branch(G, action.label)
    else:
        res = G.store.comm(G.sender, G.receiver,
                           [(l, ref_do_step(c, action, memo)) for l, c in G.branches])
    memo[key] = res
    return res


def ref_standard_witness(M, G):
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
            succ = dict(state.items())
            succ[g.sender], succ[g.receiver] = cont, node_branch(state[g.receiver], l)
            branches.append((l, go(normalize_session(Session._trusted(succ)),
                                   node_branch(g, l))))
        b.fill_comm(d, g.sender, g.receiver, branches)
        return d

    root = go(normalize_session(M), G)
    if not isinstance(root, int):
        return root
    return b.intern([root])[0]


def ref_print_node(root, glob):
    counter = [0]
    end_text = "end" if glob else "0"

    def go(n, stack):
        if isinstance(n, (PEnd, GEnd)):
            return end_text
        if n in stack:
            if stack[n] is None:
                stack[n] = f"X{counter[0]}"
                counter[0] += 1
            return stack[n]
        stack[n] = None
        parts = [f"{label} . {go(child, stack)}" for label, child in n.branches]
        if len(parts) == 1:
            body_branches = parts[0]
        else:
            body_branches = "{" + ", ".join(parts) + "}"
        if glob:
            body = f"{n.sender} -> {n.receiver} : {body_branches}"
        else:
            op = "?" if isinstance(n, PIn) else "!"
            body = f"{n.peer}{op}{body_branches}"
        name = stack.pop(n)
        if name is not None:
            body = f"rec {name} . {body}"
        return body

    return go(root, {})
