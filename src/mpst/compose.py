"""Connecting sessions and global types through gateway forwarders.

Two systems that each expose an interface participant can be joined by
turning those two participants into forwarders: every message an interface
process used to receive is passed on to the opposite forwarder, and every
message it used to send is first requested from it.  Compatibility (the two
interface processes offer dual communications and every input label set is
covered by the facing output label set) is exactly the condition that makes
the rewiring sound.

The same construction lifts to global types: `connect_globals` interleaves
the two types, splicing an h->k (or k->h) forwarding step between each
communication that used to terminate at one interface and the matching one
that used to originate at the other.  `verify_connection` runs both
constructions and checks the composed session against the composed type.
"""

from dataclasses import dataclass

from .core import (
    GEnd,
    GComm,
    PEnd,
    PIn,
    POut,
    Session,
    TermError,
    branch_pairs,
    check_ident,
    coinductive_closure,
    label_index,
    node_branch,
    participants,
)
from .typecheck import (IllFormedGlobalType, Mode, ProjectionError, leq, project,
                        typecheck, well_formed)


class ParticipantCollision(Exception):
    """The forwarding target already occurs inside the process."""


class IncompatibleSessions(Exception):
    """The sessions cannot be connected through the requested participants."""


# ---------------------------------------------------------------------------
# Process compatibility.

def _compatible_step(P, Q):
    if P.__class__ is PIn:
        P, Q = Q, P
    if P.__class__ is POut and Q.__class__ is PIn:
        # Peers are irrelevant; the input labels must all be offered by the
        # output, and the paired continuations must stay compatible.
        return branch_pairs(P, Q, Q.shape[-1])
    if P.__class__ is PEnd and Q.__class__ is PEnd:
        return []
    return None


def compatible(P, Q):
    """Decide interface compatibility of two processes."""
    Q = P.store.adopt(Q)
    return coinductive_closure("compatible", P, Q, _compatible_step,
                               reflexive=False)


# ---------------------------------------------------------------------------
# Gateway synthesis.

def gateway(P, h):
    """Turn P into a forwarder that relays every exchange through h.

    Inputs are kept and re-sent to h; outputs are first requested from h and
    then delivered to the original peer.
    """
    check_ident(h, "participant")
    if h in participants(P):
        raise ParticipantCollision(f"{h!r} already occurs in the process")
    store = P.store
    cache = store.memo("gateway")
    hit = cache.get((P.nid, h))
    if hit is not None:
        return hit

    def expand(key):
        # (n, None) forwards node n; (n, l) relays its label l onward
        n, label = key
        if isinstance(n, PEnd):
            return store.end_process
        if label is not None:
            relay = h if isinstance(n, PIn) else n.peer
            return ("pout", relay, (label,)), ((node_branch(n, label), None),)
        labels = n.shape[-1]
        return (n.shape if isinstance(n, PIn) else ("pin", h, labels),
                tuple((n, l) for l in labels))

    cache[(P.nid, h)] = result = store.map([(P, None)], expand)[0]
    return result


# ---------------------------------------------------------------------------
# Session connection.

def compatible_sessions(M, h, M_prime, k):
    """Disjoint participants, h and k bound, and their processes compatible.

    As in `compatible_globals`, every participant counts, bound or only
    named as a peer: a name on both sides would let a binding of one side
    talk to a process of the other.
    """
    if M.mentioned() & M_prime.mentioned():
        return False
    if h not in M or k not in M_prime:
        return False
    return compatible(M[h], M_prime[k])


def connect_sessions(M, h, M_prime, k):
    """Join two sessions, replacing h and k with mutual forwarders."""
    if not compatible_sessions(M, h, M_prime, k):
        raise IncompatibleSessions(
            f"sessions are not compatible via {h!r} and {k!r}")
    store = M[h].store
    bindings = {p: proc for p, proc in M.items() if p != h}
    for q, proc in M_prime.items():
        if q != k:
            bindings[q] = store.adopt(proc)
    bindings[h] = gateway(M[h], k)
    bindings[k] = gateway(store.adopt(M_prime[k]), h)
    return Session(bindings)


# ---------------------------------------------------------------------------
# Global-type connection.

class NoClauseApplies(Exception):
    """No connection clause matched; unreachable for compatible inputs.

    `key` is (h, k, marker, left nid, right nid, swapped): the clause that
    found no match, and whether its two sides have traded places (then h is
    the second forwarder given).  `marker` is the routing state: None for
    `#` (any interaction may come next), or ("fwd", l) (resp. ("bwd", l))
    when the first (resp. second) forwarder owes the other a delivery of l.
    """

    def __init__(self, key):
        h, k, marker, left, right, swapped = key
        star = ("#" if marker is None else
                f"{marker[1]}->" if marker[0] == "fwd" else f"<-{marker[1]}")
        side = " (swapped)" if swapped else ""
        super().__init__(f"no connection clause applies at connect({h}, {k}, "
                         f"{star}, node {left}, node {right}){side}")
        self.key = key


def _projection_or_raise(G, p):
    proc = project(G, p)
    if isinstance(proc, ProjectionError):
        raise IllFormedGlobalType(G, well_formed(G))
    return proc


def compatible_globals(G, h, G_prime, k):
    """Disjoint participants and compatible h/k projections."""
    if participants(G) & participants(G_prime):
        return False
    return compatible(_projection_or_raise(G, h),
                      _projection_or_raise(G_prime, k))


def connect_globals(G, h, G_prime, k):
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
    check_ident(h, "participant")
    check_ident(k, "participant")
    if h == k:
        raise TermError(f"{h!r} cannot communicate with itself")
    store = G.store
    G_prime = store.adopt(G_prime)

    def expand(key):
        # the arguments of one connection clause, with `marker` as in
        # NoClauseApplies; `relay` marks the second of the two forwarding
        # steps that deliver a directed marker's label
        h, k, marker, L, R, relay = key
        if marker is None:
            if isinstance(L, GEnd):
                return R
            if isinstance(L, GComm) and L.receiver == h:
                return (L.shape,
                        [(h, k, ("fwd", l), cont, R, False)
                         for l, cont in zip(L.shape[-1], L.kids)])
            if isinstance(L, GComm) and h not in (L.sender, L.receiver):
                return (L.shape,
                        [(k, h, None, R, cont, False)
                         for cont in L.kids])
            if isinstance(R, GComm) and R.receiver == k:
                return (R.shape,
                        [(h, k, ("bwd", l), L, cont, False)
                         for l, cont in zip(R.shape[-1], R.kids)])
            if isinstance(R, GComm) and k not in (R.sender, R.receiver):
                return (R.shape,
                        [(k, h, None, cont, L, False)
                         for cont in R.kids])
        else:
            # "fwd": h holds a message for k and the second type must route
            # it onward; "bwd" is the mirror image
            direction, label = marker
            fwd = direction == "fwd"
            me, other, T = (h, k, R) if fwd else (k, h, L)

            def moved(cont):  # the two types once T has moved on to cont
                return (L, cont) if fwd else (cont, R)

            if isinstance(T, GComm) and T.sender == other:
                i = label_index(T.shape[-1], label)
                if i is not None and not relay:
                    return (("gcomm", me, other, (label,)),
                            [(h, k, marker, L, R, True)])
                if i is not None:
                    return (("gcomm", other, T.receiver, (label,)),
                            [(h, k, None, *moved(T.kids[i]), False)])
            elif isinstance(T, GComm) and T.receiver != other:
                return (T.shape,
                        [(h, k, marker, *moved(cont), False)
                         for cont in T.kids])
        # every clause that trades the two types also trades h and k
        raise NoClauseApplies((h, k, marker, L.nid, R.nid, h != start[0]))

    start = (h, k, None, G, G_prime, False)
    return store.map([start], expand)[0]


# ---------------------------------------------------------------------------
# End-to-end verification.

@dataclass
class ConnectionReport:
    """Everything produced while connecting two typed sessions."""
    composed_session: object
    composed_global: object
    typing: object
    projection_checks: list

    @property
    def ok(self):
        return self.typing.ok and all(holds for _, holds in self.projection_checks)

    def to_json(self):
        from .parser import print_global, print_session
        return {
            "composed_session": print_session(self.composed_session),
            "composed_global": print_global(self.composed_global),
            "typing": self.typing.to_json(),
            "projection_checks": [
                {"participant": p, "holds": holds}
                for p, holds in self.projection_checks
            ],
        }


def verify_connection(M, G, M_prime, G_prime, h, k, mode=Mode.Standard):
    """Connect two typed sessions and check the result against its type.

    Besides typechecking the composed session, every participant's projection
    is compared against what it was promised: the forwarders must refine the
    gateway transforms of the old interface projections, and everyone else
    must refine their old projection unchanged.
    """
    if not typecheck(M, G, mode).ok:
        raise ValueError("left session does not typecheck against its type")
    if not typecheck(M_prime, G_prime, mode).ok:
        raise ValueError("right session does not typecheck against its type")
    composed_session = connect_sessions(M, h, M_prime, k)
    store = G.store
    G_prime = store.adopt(G_prime)
    composed_global = connect_globals(G, h, G_prime, k)
    typing = typecheck(composed_session, composed_global, mode)
    checks = []
    for p in sorted(participants(G) | participants(G_prime) | {h, k}):
        if p == h:
            expected = gateway(project(G, h), k)
        elif p == k:
            expected = gateway(project(G_prime, k), h)
        else:
            expected = project(G if p in participants(G) else G_prime, p)
        checks.append((p, leq(expected, project(composed_global, p))))
    return ConnectionReport(composed_session, composed_global, typing, checks)
