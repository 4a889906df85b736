"""The graph-to-graph maps built on `NodeStore.map`, and projection.

Projection makes its nodes in list order until one closes a cycle, and
the rest in one `NodeStore.map` call, so random types with and without
cycles are projected.  Each map is compared with its recursive reference in
`oracles` on random inputs, and then run on inputs far deeper than any
recursion allows.
"""

import random

import pytest

from mpst.compose import (NoClauseApplies, ParticipantCollision, compatible,
                          connect_globals, gateway)
from mpst.core import GEnd, NodeStore, Session, participants
from mpst.parser import parse_global, print_global, print_process
from mpst.semantics import (CommAction, _can_step, _do_step, global_enabled,
                            standard_witness)
from mpst.typecheck import (Mode, ProjectionError, project, typecheck,
                            well_formed)

import randgen
from oracles import (ref_can_step, ref_connect_globals, ref_do_step,
                     ref_gateway, ref_project, ref_standard_witness)

NAMES = ("p", "q", "r", "s", "t")


def _random_globals(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        store = NodeStore()
        yield randgen.random_global(
            rng, store, participants=NAMES[:rng.randint(2, 5)],
            max_nodes=rng.randint(1, 12), branchiness=rng.random())


def _finite_globals(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield parse_global(randgen.random_finite_global_text(
            rng, NAMES[:rng.randint(2, 5)], max_nodes=rng.randint(1, 12)),
            store=NodeStore())


def _reachable(G):
    seen = {G}
    stack = [G]
    while stack:
        for _, c in stack.pop().branches:
            if c not in seen and not isinstance(c, GEnd):
                seen.add(c)
                stack.append(c)
    return seen


# ---------------------------------------------------------------------------
# Differential tests against the recursive references.

@pytest.mark.parametrize("types, seed, cyclic", [
    (_random_globals, 1, True), (_random_globals, 2, True), (_finite_globals, 3, False)],
    ids=["1", "2", "finite-3"])
def test_projection_matches_the_reference(monkeypatch, types, seed, cyclic):
    maps = []
    real_map = NodeStore.map
    monkeypatch.setattr(NodeStore, "map", lambda *args: maps.append(1) or real_map(*args))
    failing = moved = looped = mapped = 0
    for G in types(seed, 1500):
        for p in sorted(participants(G)) + ["zz"]:
            count, calls = G.store._count, len(maps)
            got = project(G, p)
            # the make stage that ran: `map` for the entries from the first
            # one that closes a cycle, else list order alone if it made a node
            mapped += len(maps) > calls
            looped += len(maps) == calls and G.store._count > count
            ref = ref_project(G, p)
            if not isinstance(ref, ProjectionError):
                assert got is ref
                continue
            assert isinstance(got, ProjectionError)
            failing += 1
            if got.node is ref.node:
                assert (got.kind, got.message) == (ref.kind, ref.message)
                continue
            # The merges are decided in another order, so another failing
            # merge may be met first: it must fail on its own as well.
            moved += 1
            assert got.node in _reachable(G)
            alone = NodeStore().adopt(got.node)
            assert isinstance(ref_project(alone, p), ProjectionError)
    assert failing > 100
    assert moved < failing / 20
    # a type with no cycle never reaches `map`
    assert looped > 1000 and (mapped > 1000 if cyclic else mapped == 0)


def _stacked_globals(seed, count):
    """Random types over p and q below a few communications among r, s and
    t, so that many actions fire below the root."""
    rng = random.Random(seed)
    for _ in range(count):
        store = NodeStore()
        inner = [randgen.random_global(rng, store, participants=("p", "q"), max_nodes=4)
                 for _ in range(2)]
        G = inner[0]
        for _ in range(rng.randint(1, 3)):
            sender, receiver = rng.sample(("r", "s", "t"), 2)
            labels = rng.sample(randgen.LABELS, rng.randint(1, 3))
            G = store.comm(sender, receiver,
                           [(l, G if rng.random() < 0.8 else rng.choice(inner))
                            for l in labels])
        yield G


def test_global_steps_match_the_reference():
    below_root = stepped = 0
    for G in [*_random_globals(3, 1000), *_stacked_globals(3, 500)]:
        nodes = _reachable(G)
        actions = {CommAction(g.sender, l, g.receiver)
                   for g in nodes for l, _ in g.branches}
        ref_can, ref_step = {}, {}
        for g in sorted(nodes, key=lambda n: n.nid):
            for action in sorted(actions):
                verdict = _can_step(g, action)
                assert verdict == ref_can_step(g, action, ref_can, set())
                if verdict:
                    stepped += 1
                    below_root += (action.sender, action.receiver) != (g.sender, g.receiver)
                    assert _do_step(g, action) is ref_do_step(g, action, ref_step)
    assert stepped > 5000 and below_root > 1000


def test_gateways_match_the_reference():
    rng = random.Random(4)
    store = NodeStore()
    for _ in range(1500):
        P = randgen.random_process(rng, store, peers=("q", "r"), max_nodes=10)
        for h in ("gw", "q"):
            try:
                ref = ref_gateway(P, h)
            except ParticipantCollision:
                with pytest.raises(ParticipantCollision):
                    gateway(P, h)
                continue
            assert gateway(P, h) is ref


def test_connected_globals_match_the_reference():
    rng = random.Random(5)
    store = NodeStore()
    connected = refused = 0
    for _ in range(300):
        pair = randgen.compatible_global_pair(rng, store)
        assert pair is not None
        assert connect_globals(*pair) is ref_connect_globals(*pair)
        connected += 1
        # arbitrary types over disjoint participants also reach dead ends,
        # which must be reported at the same clause
        G = randgen.random_global(rng, store, participants=("p", "q", "h"))
        Gp = randgen.random_global(rng, store, participants=("k", "w", "v"))
        try:
            ref = ref_connect_globals(G, "h", Gp, "k")
        except NoClauseApplies as e:
            refused += 1
            with pytest.raises(NoClauseApplies) as info:
                connect_globals(G, "h", Gp, "k")
            assert info.value.key == e.key
            continue
        assert connect_globals(G, "h", Gp, "k") is ref
    assert refused > 50 and connected - refused > 50


def test_standard_witnesses_match_the_reference(cx):
    cases = [(cx.sess("plus_only.sess"), cx.gt("plus_only.gt"))]
    rng = random.Random(6)
    store = NodeStore()
    while len(cases) < 200:
        G = randgen.random_wf_global(rng, store)
        if G is not None:
            cases.append((randgen.self_projection(store, G), G))
    for M, G in cases:
        assert typecheck(M, G, Mode.Plus).ok
        assert standard_witness(M, G) is ref_standard_witness(M, G)


# ---------------------------------------------------------------------------
# Inputs deeper than any recursion: 10^4-step chains in `let` form.

N = 10 ** 4


def let_chain(steps, last, n=N, name="G"):
    """`let` equations for an n-step chain: step i is steps(i)."""
    return "".join(f"let {name}{i} = {steps(i)} . {name}{i + 1}\n"
                   for i in range(n)) + f"let {name}{n} = {last}\n"


def relay(i):
    return f"{'pqr'[i % 3]} -> {'pqr'[(i + 1) % 3]} : a{i % 2}"


@pytest.fixture(scope="module")
def deep():
    store = NodeStore()
    G = parse_global(let_chain(relay, "end") + "G0", store)
    M = Session({p: project(G, p) for p in "pqr"})
    L = parse_global(let_chain(lambda i: "p -> h : a", "end") + "G0", store)
    R = parse_global(let_chain(lambda i: "k -> w : a", "end") + "G0", store)
    return G, M, L, R


def test_projection_and_typing_have_no_depth_limit(deep):
    G, M, _, _ = deep
    assert well_formed(G).ok
    assert typecheck(M, G).ok and typecheck(M, G, Mode.Plus).ok
    assert print_global(G).count(" -> ") == N
    for k, x in enumerate("pqr"):
        # role x sits out the steps i with i % 3 == k + 1 (mod 3)
        assert print_process(M[x]).count(" . ") == sum(
            1 for i in range(N) if i % 3 != (k + 1) % 3)


def test_witness_and_stepping_have_no_depth_limit(deep):
    G, M, _, _ = deep
    assert standard_witness(M, G) is G
    [(action, succ)] = global_enabled(G)
    assert str(action) == "p -a0-> q" and succ is G.branches[0][1]
    store = G.store
    # an action that fires below N independent communications
    H = parse_global(let_chain(lambda i: "p -> q : a", "r -> s : b . end") + "G0", store)
    succ = dict(global_enabled(H))[CommAction("r", "b", "s")]
    assert succ is parse_global(let_chain(lambda i: "p -> q : a", "end") + "G0", store)


def test_composition_has_no_depth_limit(deep):
    _, _, L, R = deep
    H, K = project(L, "h"), project(R, "k")
    assert compatible(H, K)
    forwarder = gateway(H, "k")
    assert print_global(L).count("p -> h") == N
    C = connect_globals(L, "h", R, "k")
    assert print_global(C).count(" -> ") == 3 * N
    assert project(C, "h") is forwarder
