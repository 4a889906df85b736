import pathlib
import random
import subprocess
import sys

import pytest

from mpst.compose import (IncompatibleSessions, NoClauseApplies,
                          ParticipantCollision, compatible,
                          compatible_globals, compatible_sessions,
                          connect_globals, connect_sessions, gateway,
                          verify_connection)
from mpst.core import (NodeStore, Session, TermError, bisimilar, node_branch,
                       participants, sessions_bisimilar)
from mpst.parser import (parse_global, parse_process, parse_session,
                         print_process)
from mpst.semantics import explore, lock_free
from mpst.typecheck import (IllFormedGlobalType, Mode, ProjectionError, leq,
                            leq_plus, project, typecheck, well_formed)

import randgen
from oracles import ref_compatible


# ---------------------------------------------------------------------------
# Compatibility.

def test_interface_processes_are_compatible(cx):
    H = cx.proc("relay_h.proc")
    K = cx.sess("right.sess")["k"]
    assert compatible(H, K)
    assert compatible(K, H)


def test_uncovered_output_label_breaks_compatibility(store):
    out = parse_process("q!l . 0", store=store)
    fat_in = parse_process("p?{l . 0, l2 . 0}", store=store)
    assert not compatible(out, fat_in)
    assert not compatible(fat_in, out)


def test_extra_output_labels_are_fine(store):
    fat_out = parse_process("q!{l . 0, l2 . 0}", store=store)
    thin_in = parse_process("p?l . 0", store=store)
    assert compatible(fat_out, thin_in)
    assert compatible(thin_in, fat_out)


def test_compatibility_ignores_peer_names(store):
    assert compatible(parse_process("alice!go . 0", store=store),
                      parse_process("bob?go . 0", store=store))


def test_end_is_compatible_only_with_end(store):
    end = store.end_process
    assert compatible(end, end)
    assert not compatible(end, parse_process("q!l . 0", store=store))
    assert not compatible(parse_process("q?l . 0", store=store), end)


def test_same_polarity_is_incompatible(store):
    a = parse_process("q!l . 0", store=store)
    b = parse_process("r!l . 0", store=store)
    assert not compatible(a, b)
    c = parse_process("q?l . 0", store=store)
    d = parse_process("r?l . 0", store=store)
    assert not compatible(c, d)


def test_compatibility_is_not_reflexive_by_default(store):
    loop = parse_process("rec X . q!l . X", store=store)
    assert not compatible(loop, loop)


def test_shrinking_the_input_preserves_compatibility(store):
    # compatible(P, In(p, L + L')) implies compatible(P, In(p, L))
    P = parse_process("q!{a . 0, b . q?x . 0, c . 0}", store=store)
    full = parse_process("w?{a . 0, b . w!x . 0, c . 0}", store=store)
    sub = parse_process("w?{b . w!x . 0}", store=store)
    assert compatible(P, full) and compatible(P, sub)


def test_compatible_continuations(store):
    # compatible(Out(p,{l.P}+L), In(q,{l.Q})) implies compatible(P, Q)
    P = parse_process("q!{a . q?back . 0, b . 0}", store=store)
    Q = parse_process("w?a . w!back . 0", store=store)
    assert compatible(P, Q)
    assert compatible(node_branch(P, "a"), node_branch(Q, "a"))


def test_compatibility_closed_under_leq_but_not_conversely(store):
    out = parse_process("q!l . 0", store=store)
    thin = parse_process("w?l . 0", store=store)
    fat = parse_process("w?{l . 0, l2 . 0}", store=store)
    assert compatible(out, thin)
    assert leq(fat, thin)          # inputs may offer more than required
    assert not compatible(out, fat)  # yet the wider input is not compatible


@pytest.mark.parametrize("seed", [1, 2])
def test_compatible_matches_the_reference(seed):
    # partners built by polarity flipping, partners of a weakened process
    # (near misses), partners facing a widened process, and unrelated pairs
    # over one peer and two labels; each pair both ways, within one store
    # and with one side copied into another store
    rng = random.Random(seed)
    store, other = NodeStore(), NodeStore()

    def small():
        return randgen.random_process(rng, store, peers=("q",), labels=("a", "b"),
                                      max_nodes=3)

    verdicts = {True: 0, False: 0}
    for _ in range(120):
        P = randgen.random_process(rng, store, max_nodes=6)
        Q = randgen.compatible_partner(rng, store, P)
        for a, b in ((P, Q),
                     (P, randgen.compatible_partner(rng, store, randgen.weaken(rng, store, P))),
                     (randgen.widen_plus(rng, store, P), Q),
                     (P, randgen.random_process(rng, store, max_nodes=6)),
                     (small(), small())):
            for x, y in ((a, b), (b, a), (a, other.adopt(b)), (other.adopt(a), b)):
                got = compatible(x, y)
                assert got == ref_compatible(x, y), (print_process(x), print_process(y))
                verdicts[got] += 1
    assert min(verdicts.values()) >= 300, verdicts


# ---------------------------------------------------------------------------
# Gateways.

def test_gateway_goldens(cx):
    H = cx.proc("relay_h.proc")
    K = cx.sess("right.sess")["k"]
    assert gateway(H, "k") is cx.proc("gateway_h.proc")
    assert gateway(K, "h") is cx.proc("gateway_k.proc")


def test_gateway_shapes(store):
    g = gateway(parse_process("p!a . 0", store=store), "h")
    assert g is parse_process("h?a . p!a . 0", store=store)
    g = gateway(parse_process("p?{a . 0, b . 0}", store=store), "h")
    assert g is parse_process("p?{a . h!a . 0, b . h!b . 0}", store=store)
    assert gateway(store.end_process, "h") is store.end_process


def test_gateway_requires_fresh_name(store):
    P = parse_process("p!a . q?b . 0", store=store)
    with pytest.raises(ParticipantCollision):
        gateway(P, "q")


@pytest.mark.parametrize("h", ["", "1h", "h k", "rec", "\u00e9", None])
def test_gateway_checks_the_relay_name(store, h):
    # the forwarder is filled without name checks, so the entry checks h once
    for P in (parse_process("p!a . 0", store=store), store.end_process):
        with pytest.raises(TermError):
            gateway(P, h)


def test_gateway_monotone_for_leq(store):
    rng = random.Random(21)
    for _ in range(200):
        P = randgen.random_process(rng, store, peers=("p", "q"))
        Q = randgen.weaken(rng, store, P)
        assert leq(gateway(P, "gw"), gateway(Q, "gw"))


def test_gateway_not_monotone_for_leq_plus(store):
    small = parse_process("p!l1 . 0", store=store)
    big = parse_process("p!{l1 . 0, l2 . 0}", store=store)
    assert leq_plus(small, big)
    assert not leq_plus(gateway(small, "h"), gateway(big, "h"))


# ---------------------------------------------------------------------------
# Session connection.

def test_connect_sessions_running_example(cx):
    M, Mp = cx.sess("relay.sess"), cx.sess("right.sess")
    assert compatible_sessions(M, "h", Mp, "k")
    composed = connect_sessions(M, "h", Mp, "k")
    assert composed.participants == ("h", "k", "p", "q", "r", "s")
    assert sessions_bisimilar(composed, cx.sess("composed.sess"))
    # untouched participants keep their processes
    assert composed["p"] is M["p"]
    assert composed["q"] is M["q"]


def test_connect_sessions_requires_compatibility(cx):
    L, R = cx.sess("counter_left.sess"), cx.sess("counter_right.sess")
    assert compatible_globals(cx.gt("counter_left.gt"), "h",
                              cx.gt("counter_right.gt"), "k")
    assert not compatible_sessions(L, "h", R, "k")
    with pytest.raises(IncompatibleSessions):
        connect_sessions(L, "h", R, "k")


def test_connect_sessions_rejects_overlap_and_unbound(cx, store):
    M = cx.sess("relay.sess")
    with pytest.raises(IncompatibleSessions):
        connect_sessions(M, "h", M, "h")
    Mp = parse_session("k |> w!l . 0 || w |> k?l . 0", store=store)
    with pytest.raises(IncompatibleSessions):
        connect_sessions(M, "nosuch", Mp, "k")
    # A participant named on both sides overlaps even when one side names it
    # only as a peer: h names k, or h names r, which the right side binds
    # (connecting that pair would deadlock).
    for left, right in [("h |> k!a . 0", "k |> h?a . 0"),
                        ("h |> r!a . 0", "k |> s?a . 0 || r |> 0 || s |> k!a . 0")]:
        L, R = parse_session(left, store=store), parse_session(right, store=store)
        assert compatible(L["h"], R["k"]) and not compatible_sessions(L, "h", R, "k")
        with pytest.raises(IncompatibleSessions):
            connect_sessions(L, "h", R, "k")


def test_trivial_end_connection(store):
    M = parse_session("h |> 0", store=store)
    Mp = parse_session("k |> 0", store=store)
    composed = connect_sessions(M, "h", Mp, "k")
    assert composed.is_final() and composed.participants == ("h", "k")


# ---------------------------------------------------------------------------
# Global connection.

def test_connect_globals_running_example(cx):
    composed = connect_globals(cx.gt("relay.gt"), "h", cx.gt("right.gt"), "k")
    assert composed is cx.gt("composed.gt")
    assert bisimilar(composed, cx.gt("composed.gt"))


def test_stop_branch_disappears(cx):
    composed = cx.gt("composed.gt")
    labels, seen, stack = set(), set(), [composed]
    while stack:
        g = stack.pop()
        if g.nid in seen or not hasattr(g, "branches"):
            continue
        seen.add(g.nid)
        for l, c in g.branches:
            labels.add(l)
            stack.append(c)
    assert "stop" not in labels
    assert "text" in labels and "transf" in labels


def test_connect_globals_two_communication_chain(store):
    G = parse_global("p -> h : a . end", store=store)
    Gp = parse_global("k -> s : a . end", store=store)
    composed = connect_globals(G, "h", Gp, "k")
    assert composed is parse_global(
        "p -> h : a . h -> k : a . k -> s : a . end", store=store)


def test_connect_globals_left_end_returns_right(cx, store):
    Gp = parse_global(open(str(cx.path("right.gt"))).read(), store=store)
    assert connect_globals(store.end_global, "h", Gp, "k") is Gp


def test_connect_globals_signals_contradictions(store):
    G = parse_global("h -> p : a . end", store=store)
    Gp = parse_global("k -> s : a . end", store=store)
    with pytest.raises(NoClauseApplies) as info:
        connect_globals(G, "h", Gp, "k")
    assert "connect(" in str(info.value)
    # the left type blocks on an output of h, so the right one must move,
    # but it starts with k's output, which nothing owes: no clause applies
    assert info.value.key == ("h", "k", None, G.nid, Gp.nid, False)


@pytest.mark.parametrize("h,k", [("h", "h"), ("1h", "k"), ("h", "k k"),
                                 ("let", "k"), ("h", None)])
def test_connect_globals_checks_the_interface_names(store, h, k):
    # the composed type is filled without name checks, so the entry checks
    # h and k once; h == k would make a forwarder talk to itself
    G = parse_global("p -> h : a . end", store=store)
    Gp = parse_global("k -> s : a . end", store=store)
    for left in (G, store.end_global):
        with pytest.raises(TermError):
            connect_globals(left, h, Gp, k)


def test_composed_type_is_well_formed(cx):
    report = well_formed(cx.gt("composed.gt"))
    assert report.ok
    assert max(d.value for d in report.depths.values()) == 7


@pytest.mark.parametrize("key,text", [
    (("h", "k", None, 3, 4, False), "connect(h, k, #, node 3, node 4)"),
    (("k", "h", ("fwd", "l"), 5, 6, True),
     "connect(k, h, l->, node 5, node 6) (swapped)"),
    (("h", "k", ("bwd", "l"), 7, 8, False), "connect(h, k, <-l, node 7, node 8)"),
])
def test_no_clause_applies_names_its_key(key, text):
    err = NoClauseApplies(key)
    assert str(err) == f"no connection clause applies at {text}"
    assert err.key == key


# ---------------------------------------------------------------------------
# Global compatibility and the post-theorem counterexample.

def test_global_compatibility_running_example(cx):
    assert compatible_globals(cx.gt("relay.gt"), "h", cx.gt("right.gt"), "k")
    assert not compatible_globals(cx.gt("relay.gt"), "h", cx.gt("relay.gt"), "h")


def test_global_compatibility_needs_the_interface_projection(store):
    G = parse_global("p -> q : {a . r -> q : x . end, b . r -> q : y . end}", store)
    Gp = parse_global("w -> k : x . end", store)
    assert isinstance(project(G, "r"), ProjectionError)
    with pytest.raises(IllFormedGlobalType) as info:
        compatible_globals(G, "r", Gp, "k")
    assert info.value.report == well_formed(G)


def test_global_compatibility_does_not_imply_session_compatibility(cx):
    # both sessions type their globals, the globals are compatible, and yet
    # the sessions are not: the left process offers fewer inputs than its
    # projection promises
    L, R = cx.sess("counter_left.sess"), cx.sess("counter_right.sess")
    GL, GR = cx.gt("counter_left.gt"), cx.gt("counter_right.gt")
    assert typecheck(L, GL).ok and typecheck(R, GR).ok
    assert compatible_globals(GL, "h", GR, "k")
    assert not compatible_sessions(L, "h", R, "k")


# ---------------------------------------------------------------------------
# verify_connection.

def test_verify_connection_running_example(cx):
    report = verify_connection(cx.sess("relay.sess"), cx.gt("relay.gt"),
                               cx.sess("right.sess"), cx.gt("right.gt"),
                               "h", "k")
    assert report.ok and report.typing.ok
    assert [p for p, holds in report.projection_checks] == \
        ["h", "k", "p", "q", "r", "s"]
    assert all(holds for _, holds in report.projection_checks)
    assert report.composed_global is cx.gt("composed.gt")
    graph = explore(report.composed_session)
    assert len(graph.states) < 10 ** 4
    assert lock_free(report.composed_session).ok
    js = report.to_json()
    assert set(js) == {"composed_session", "composed_global", "typing",
                       "projection_checks"}


def test_verify_connection_trivial(store):
    report = verify_connection(parse_session("h |> 0", store=store),
                               store.end_global,
                               parse_session("k |> 0", store=store),
                               store.end_global, "h", "k")
    assert report.ok


def test_verify_connection_requires_typed_sides(cx, store):
    bad = parse_session("p |> q!wrong . 0 || q |> p?wrong . 0", store=cx.store)
    with pytest.raises(ValueError):
        verify_connection(bad, cx.gt("relay.gt"),
                          cx.sess("right.sess"), cx.gt("right.gt"), "h", "k")


def test_verify_connection_plus_mode(cx):
    report = verify_connection(cx.sess("relay.sess"), cx.gt("relay.gt"),
                               cx.sess("right.sess"), cx.gt("right.gt"),
                               "h", "k", mode=Mode.Plus)
    assert report.typing.ok


# ---------------------------------------------------------------------------
# The two-pair composition: each single connection works, doing both at once
# deadlocks.

def test_single_connections_of_crossed_pair_are_fine(cx):
    L, R = cx.sess("crossed_left.sess"), cx.sess("crossed_right.sess")
    via_hk = connect_sessions(L, "h", R, "k")
    assert lock_free(via_hk).ok
    via_ps = connect_sessions(L, "p", R, "s")
    assert lock_free(via_ps).ok


def test_double_connection_is_the_deadlocked_square(cx):
    L, R = cx.sess("crossed_left.sess"), cx.sess("crossed_right.sess")
    store = cx.store
    double = Session({
        "p": gateway(L["p"], "s"),
        "h": gateway(L["h"], "k"),
        "k": gateway(store.adopt(R["k"]), "h"),
        "s": gateway(store.adopt(R["s"]), "p"),
    })
    assert sessions_bisimilar(double, cx.sess("crossed_forwarders.sess"))
    report = lock_free(double)
    assert not report.ok and report.deadlock_witness == []


# ---------------------------------------------------------------------------
# Randomized sanity (small versions of the acceptance suites).

def test_connect_globals_total_on_generated_pairs(store):
    rng = random.Random(22)
    for _ in range(100):
        out = randgen.compatible_global_pair(rng, store)
        assert out is not None
        G, h, Gp, k = out
        assert compatible_globals(G, h, Gp, k)
        composed = connect_globals(G, h, Gp, k)
        assert participants(composed) <= \
            participants(G) | participants(Gp) | {h, k}


def test_connection_can_outgrow_projectability(store):
    # A compatible pair whose composition is defined but not well formed: the
    # right-side choice lands ahead of left traffic that used to precede it,
    # and q's continuations stop merging at the surviving w->k branch point.
    # The composed *session* still runs lock-free; only the composed type
    # fails as a typing witness.
    G = parse_global(
        "p -> q : {a . rec X0 . q -> p : a . h -> q : {b . q -> p : b . end,"
        " c . X0}, c . rec X1 . h -> q : {b . q -> p : b . end,"
        " c . q -> p : a . X1}}", store)
    Gp = parse_global("rec X0 . w -> k : {b . end, c . X0}", store)
    assert well_formed(G).ok and well_formed(Gp).ok
    assert compatible_globals(G, "h", Gp, "k")

    composed = connect_globals(G, "h", Gp, "k")
    wf = well_formed(composed)
    assert not wf.ok
    assert isinstance(wf.projections["q"], ProjectionError)

    M = randgen.self_projection(store, G)
    Mp = randgen.self_projection(store, Gp)
    assert typecheck(M, G).ok and typecheck(Mp, Gp).ok
    assert compatible_sessions(M, "h", Mp, "k")
    assert lock_free(connect_sessions(M, "h", Mp, "k")).ok
    with pytest.raises(IllFormedGlobalType):
        verify_connection(M, G, Mp, Gp, "h", "k")


def test_connection_can_prune_a_participant_into_starvation(store):
    # Compatibility lets the right side drive a strict subset of the
    # interface's output labels, and connection then prunes the unused
    # branches at every unfolding.  When a pruned branch carried another
    # participant's only remaining traffic, the composed type stays well
    # formed yet the composed session is no longer typed by it, and that
    # participant starves: h's free choice between a and c was what kept q
    # reachable, and the gateway replaces it with the right side's fixed a.
    G = parse_global(
        "p -> q : go . rec X . h -> p : {a . X, c . p -> q : done . end}",
        store)
    Gp = parse_global("rec Z . w -> k : a . Z", store)
    assert well_formed(G).ok and well_formed(Gp).ok
    assert compatible_globals(G, "h", Gp, "k")

    composed = connect_globals(G, "h", Gp, "k")
    golden = parse_global(
        "p -> q : go . rec C . w -> k : a . k -> h : a . h -> p : a . C",
        store)
    assert composed is golden
    assert well_formed(composed).ok

    M = randgen.self_projection(store, G)
    Mp = randgen.self_projection(store, Gp)
    assert lock_free(M).ok and lock_free(Mp).ok
    assert compatible_sessions(M, "h", Mp, "k")
    sess = connect_sessions(M, "h", Mp, "k")

    report = typecheck(sess, composed)
    assert not report.ok
    assert [(p, print_process(e)) for p, e, _ in report.failures] == \
        [("q", "p?go . 0")]

    lf = lock_free(sess)
    assert not lf.ok and lf.deadlock_witness is None
    path, starved = lf.starvation_witness
    assert starved == "q"
    assert [str(a) for a in path] == ["p -go-> q"]

    vr = verify_connection(M, G, Mp, Gp, "h", "k")
    assert not vr.ok and not vr.typing.ok


# ---------------------------------------------------------------------------
# The composition audit script.

def test_composition_audit_matches_its_golden_output():
    # the audit's verdicts over 500 seeded cases; only its timing line varies
    here = pathlib.Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, str(here.parent / "scripts" / "composition_audit.py"),
         "--seed", "111", "--cases", "500"],
        capture_output=True, text=True, check=True)
    out = "".join(line for line in proc.stdout.splitlines(keepends=True)
                  if not line.startswith("elapsed: "))
    assert out == (here / "audit_seed111.txt").read_text()
