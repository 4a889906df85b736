"""Seeded random generators for regular processes and global types.

Everything takes an explicit random.Random so suites can fix seeds.  The
generators build arbitrary cyclic node graphs through GraphBuilder (cycles
are fine: every node is a communication, so recursion is guarded by
construction).  Well-formed global types come from bounded rejection
sampling; compatible pairs are built by polarity flipping, which is sound by
the definition of compatibility.
"""

from mpst.core import (GComm, GEnd, NodeStore, PEnd, PIn, POut, Session,
                       node_labels, participants)
from mpst.typecheck import project, well_formed

LEFT_PARTICIPANTS = ("p", "q", "h")
RIGHT_INTERFACE = "k"
RIGHT_PEER = "w"
LABELS = ("a", "b", "c")


def _pick_labels(rng, labels, lo=1, hi=3):
    n = rng.choices(range(lo, hi + 1), weights=(6, 3, 1)[: hi - lo + 1])[0]
    return rng.sample(labels, min(n, len(labels)))


def random_process(rng, store, peers=("q", "r"), labels=LABELS, max_nodes=8):
    """An arbitrary regular process whose peers come from `peers`."""
    n = rng.randint(1, max_nodes)
    b = store.builder()
    drafts = [b.reserve() for _ in range(n)]

    def continuation():
        if rng.random() < 0.3:
            return store.end_process
        return drafts[rng.randrange(n)]

    for d in drafts:
        peer = rng.choice(peers)
        branches = [(l, continuation()) for l in _pick_labels(rng, labels)]
        if rng.random() < 0.5:
            b.fill_in(d, peer, branches)
        else:
            b.fill_out(d, peer, branches)
    return b.intern([drafts[0]])[0]


def random_global(rng, store, participants=LEFT_PARTICIPANTS, labels=LABELS,
                  max_nodes=8, branchiness=1.0):
    """An arbitrary regular global type (not necessarily well formed)."""
    n = rng.randint(1, max_nodes)
    b = store.builder()
    drafts = [b.reserve() for _ in range(n)]

    def continuation():
        if rng.random() < 0.35:
            return store.end_global
        return drafts[rng.randrange(n)]

    for d in drafts:
        sender, receiver = rng.sample(participants, 2)
        hi = 3 if rng.random() < branchiness else 1
        branches = [(l, continuation())
                    for l in _pick_labels(rng, labels, hi=hi)]
        b.fill_comm(d, sender, receiver, branches)
    return b.intern([drafts[0]])[0]


def random_finite_global_text(rng, participants=LEFT_PARTICIPANTS, labels=LABELS,
                              max_nodes=8):
    """The text of an arbitrary finite global type (not necessarily well
    formed): `let` equations D0 .. Dn-1 and the root D0, each continuation
    `end` or a later equation, so the type is a DAG whose tree can be
    exponentially longer than the text."""
    n = rng.randint(1, max_nodes)
    eqs = []
    for i in range(n):
        sender, receiver = rng.sample(participants, 2)
        branches = ", ".join(
            f"{l} . " + ("end" if i == n - 1 or rng.random() < 0.2
                         else f"D{rng.randrange(i + 1, n)}")
            for l in _pick_labels(rng, labels))
        eqs.append(f"let D{i} = {sender} -> {receiver} : {{{branches}}}\n")
    return "".join(eqs) + "D0\n"


def random_wf_global(rng, store, participants=LEFT_PARTICIPANTS,
                     labels=LABELS, max_nodes=8, tries=400):
    """Rejection-sample a well-formed global type; None if the budget runs out."""
    for _ in range(tries):
        G = random_global(rng, store, participants, labels, max_nodes)
        if well_formed(G).ok:
            return G
    return None


def self_projection(store, G):
    """The canonical session implementing G: every participant runs G|p."""
    return Session({p: project(G, p) for p in participants(G)})


# ---------------------------------------------------------------------------
# Order-related pairs.

def weaken(rng, store, P):
    """A process Q with P <= Q: inputs may lose branches, outputs stay."""
    b = store.builder()
    drafts = {}

    def go(n):
        if isinstance(n, PEnd):
            return store.end_process
        if n.nid in drafts:
            return drafts[n.nid]
        d = b.reserve()
        drafts[n.nid] = d
        if isinstance(n, PIn):
            keep = [br for br in n.branches if rng.random() < 0.7]
            if not keep:
                keep = [rng.choice(n.branches)]
            b.fill_in(d, n.peer, [(l, go(c)) for l, c in keep])
        else:
            b.fill_out(d, n.peer, [(l, go(c)) for l, c in n.branches])
        return d

    root = go(P)
    return b.intern([root])[0] if isinstance(root, int) else root


def widen_plus(rng, store, P):
    """A process Q with P <=+ Q: outputs may also gain fresh branches."""
    b = store.builder()
    drafts = {}
    fresh = iter(f"x{i}" for i in range(10 ** 6))

    def go(n):
        if isinstance(n, PEnd):
            return store.end_process
        if n.nid in drafts:
            return drafts[n.nid]
        d = b.reserve()
        drafts[n.nid] = d
        if isinstance(n, PIn):
            keep = [br for br in n.branches if rng.random() < 0.7]
            if not keep:
                keep = [rng.choice(n.branches)]
            b.fill_in(d, n.peer, [(l, go(c)) for l, c in keep])
        else:
            branches = [(l, go(c)) for l, c in n.branches]
            have = {l for l, _ in n.branches}
            for _ in range(rng.choice((0, 0, 1, 2))):
                l = next(fresh)
                while l in have:
                    l = next(fresh)
                have.add(l)
                branches.append((l, store.end_process))
            b.fill_out(d, n.peer, branches)
        return d

    root = go(P)
    return b.intern([root])[0] if isinstance(root, int) else root


# ---------------------------------------------------------------------------
# Compatible pairs.

def compatible_partner(rng, store, P, peer=RIGHT_PEER, extend=True):
    """A process Q with P <-> Q, built by flipping polarities.

    Inputs of P become outputs covering the same labels (optionally extended
    with fresh ones); outputs of P become inputs over a nonempty label
    subset.  All of Q's communications go to `peer`.
    """
    b = store.builder()
    drafts = {}
    fresh = iter(f"x{i}" for i in range(10 ** 6))

    def go(n):
        if isinstance(n, PEnd):
            return store.end_process
        if n.nid in drafts:
            return drafts[n.nid]
        d = b.reserve()
        drafts[n.nid] = d
        if isinstance(n, PIn):
            branches = [(l, go(c)) for l, c in n.branches]
            if extend:
                for _ in range(rng.choice((0, 0, 1))):
                    branches.append((next(fresh), store.end_process))
            b.fill_out(d, peer, branches)
        else:
            keep = [br for br in n.branches if rng.random() < 0.7]
            if not keep:
                keep = [rng.choice(n.branches)]
            b.fill_in(d, peer, [(l, go(c)) for l, c in keep])
        return d

    root = go(P)
    return b.intern([root])[0] if isinstance(root, int) else root


def embed_as_global(store, Q, owner=RIGHT_INTERFACE):
    """A two-party global type whose projection onto `owner` is exactly Q.

    Q's outputs become owner->peer communications and its inputs peer->owner;
    with a single peer throughout, every node involves both participants, so
    the embedding is always well formed.
    """
    b = store.builder()
    drafts = {}

    def go(n):
        if isinstance(n, PEnd):
            return store.end_global
        if n.nid in drafts:
            return drafts[n.nid]
        d = b.reserve()
        drafts[n.nid] = d
        branches = [(l, go(c)) for l, c in n.branches]
        if isinstance(n, POut):
            b.fill_comm(d, owner, n.peer, branches)
        else:
            b.fill_comm(d, n.peer, owner, branches)
        return d

    root = go(Q)
    return b.intern([root])[0] if isinstance(root, int) else root


def compatible_global_pair(rng, store, max_nodes=8):
    """(G, h, G', k) with pair(G,h) <-> pair(G',k), by the flipping recipe.

    Returns None when rejection sampling for the left side fails.
    """
    G = random_wf_global(rng, store, max_nodes=max_nodes)
    if G is None:
        return None
    D = project(G, "h")
    Q = compatible_partner(rng, store, D)
    G_prime = embed_as_global(store, Q)
    return G, "h", G_prime, "k"
