"""End-to-end acceptance checks.

The numbered tests replay the worked examples and counterexamples on the
corpus; the `law` family runs the randomized property suites with fixed
seeds, at least 500 cases each.
"""

import random
import time

import pytest

from mpst.compose import (compatible, compatible_globals, compatible_sessions,
                          connect_globals, connect_sessions, gateway,
                          verify_connection)
from mpst.core import (GComm, PIn, POut, Session, bisimilar,
                       node_branch, node_labels, participants,
                       sessions_bisimilar)
from mpst.parser import parse_global, parse_process
from mpst.semantics import (CommAction, explore, fidelity_harness,
                            global_enabled, global_step, lock_free)
from mpst.typecheck import (DepthValue, Mode, ProjectionError, depth, leq,
                            leq_plus, project, typecheck, well_formed)

import randgen

CASES = 500


def all_labels(G):
    labels, seen, stack = set(), set(), [G]
    while stack:
        g = stack.pop()
        if g.nid in seen or not hasattr(g, "branches"):
            continue
        seen.add(g.nid)
        for l, c in g.branches:
            labels.add(l)
            stack.append(c)
    return labels


# ---------------------------------------------------------------------------
# Worked examples.

def test_01_projection_recovers_the_participant_processes(cx):
    G = cx.gt("relay.gt")
    for p, golden in (("p", "relay_p.proc"), ("q", "relay_q.proc"),
                      ("h", "relay_h.proc")):
        proj = project(G, p)
        assert bisimilar(proj, cx.proc(golden))
        assert proj is cx.proc(golden)


def test_02_depth_values_and_well_formedness_verdicts(cx):
    G, bad = cx.gt("relay.gt"), cx.gt("unbounded.gt")
    assert depth(G, "p") == DepthValue.finite(0)
    assert depth(G, "q") == DepthValue.finite(0)
    assert depth(G, "h") == DepthValue.finite(1)
    assert depth(bad, "r") == DepthValue.infinite()
    assert well_formed(G).ok
    assert not well_formed(bad).ok


def test_03_typing_in_both_modes_and_the_width_divergence(cx):
    assert typecheck(cx.sess("relay.sess"), cx.gt("relay.gt")).ok
    M, G = cx.sess("plus_only.sess"), cx.gt("plus_only.gt")
    assert not typecheck(M, G).ok
    assert typecheck(M, G, Mode.Plus).ok
    verdict = fidelity_harness(M, G, Mode.Plus)
    assert not verdict.ok
    assert verdict.divergence["action"] == "p -l2-> q"
    assert "unmatched by the session" in verdict.divergence["kind"]


def test_04_interface_compatibility_verdicts(cx):
    assert compatible(cx.proc("relay_h.proc"), cx.proc("alternator_k.proc"))
    store = cx.store
    assert not compatible(parse_process("p!l . 0", store=store),
                          parse_process("q?{l . 0, l2 . 0}", store=store))


def test_05_gateway_processes_match_the_golden_forwarders(cx):
    H = cx.proc("relay_h.proc")
    K = cx.sess("right.sess")["k"]
    assert bisimilar(gateway(H, "k"), cx.proc("gateway_h.proc"))
    assert bisimilar(gateway(K, "h"), cx.proc("gateway_k.proc"))


def test_06_connected_session_is_the_six_participant_system(cx):
    composed = connect_sessions(cx.sess("relay.sess"), "h",
                                cx.sess("right.sess"), "k")
    assert composed.participants == ("h", "k", "p", "q", "r", "s")
    assert sessions_bisimilar(composed, cx.sess("composed.sess"))


def test_07_connected_global_type_drops_the_stop_branch(cx):
    composed = connect_globals(cx.gt("relay.gt"), "h", cx.gt("right.gt"), "k")
    assert bisimilar(composed, cx.gt("composed.gt"))
    assert "stop" in all_labels(cx.gt("relay.gt"))
    assert "stop" not in all_labels(composed)


def test_08_verified_composition_types_and_runs_lock_free(cx):
    start = time.perf_counter()
    report = verify_connection(cx.sess("relay.sess"), cx.gt("relay.gt"),
                               cx.sess("right.sess"), cx.gt("right.gt"),
                               "h", "k")
    assert report.typing.ok
    assert all(holds for _, holds in report.projection_checks)
    graph = explore(report.composed_session)
    assert len(graph.states) < 10 ** 4
    assert lock_free(report.composed_session).ok
    assert time.perf_counter() - start < 5.0


def test_09_output_widening_survives_the_preorder_but_not_gateways(cx):
    store = cx.store
    narrow = parse_process("p!l1 . 0", store=store)
    wide = parse_process("p!{l1 . 0, l2 . 0}", store=store)
    assert leq_plus(narrow, wide)
    assert not leq_plus(gateway(narrow, "h"), gateway(wide, "h"))


def test_10_negative_composition_facts(cx):
    L, R = cx.sess("counter_left.sess"), cx.sess("counter_right.sess")
    assert compatible_globals(cx.gt("counter_left.gt"), "h",
                              cx.gt("counter_right.gt"), "k")
    assert not compatible_sessions(L, "h", R, "k")

    CL, CR = cx.sess("crossed_left.sess"), cx.sess("crossed_right.sess")
    store = cx.store
    double = Session({
        "p": gateway(CL["p"], "s"),
        "h": gateway(CL["h"], "k"),
        "k": gateway(store.adopt(CR["k"]), "h"),
        "s": gateway(store.adopt(CR["s"]), "p"),
    })
    assert sessions_bisimilar(double, cx.sess("crossed_forwarders.sess"))
    report = lock_free(double)
    assert not report.ok and report.deadlock_witness == []


# ---------------------------------------------------------------------------
# Randomized law suites.

def test_law_preorders_are_reflexive_and_transitive(store):
    rng = random.Random(101)
    for _ in range(CASES):
        P = randgen.random_process(rng, store)
        assert leq(P, P) and leq_plus(P, P)
        Q = randgen.weaken(rng, store, P)
        R = randgen.weaken(rng, store, Q)
        assert leq(P, Q) and leq(Q, R) and leq(P, R)
        Qp = randgen.widen_plus(rng, store, P)
        Rp = randgen.widen_plus(rng, store, Qp)
        assert leq_plus(P, Qp) and leq_plus(Qp, Rp) and leq_plus(P, Rp)


def test_law_plain_preorder_implies_widened_preorder(store):
    rng = random.Random(102)
    for _ in range(CASES):
        P = randgen.random_process(rng, store)
        Q = randgen.weaken(rng, store, P)
        assert leq(P, Q) and leq_plus(P, Q)
        A = randgen.random_process(rng, store)
        B = randgen.random_process(rng, store)
        if leq(A, B):
            assert leq_plus(A, B)


def test_law_compatibility_is_symmetric_and_upward_closed(store):
    rng = random.Random(103)
    # pinned witness: the closure cannot be reversed
    out = parse_process("p!l . 0", store=store)
    thin = parse_process("q?l . 0", store=store)
    fat = parse_process("q?{l . 0, l2 . 0}", store=store)
    assert compatible(out, thin) and leq(fat, thin)
    assert not compatible(out, fat)
    for _ in range(CASES):
        P = randgen.random_process(rng, store)
        Q = randgen.compatible_partner(rng, store, P)
        assert compatible(P, Q) and compatible(Q, P)
        P2 = randgen.weaken(rng, store, P)
        Q2 = randgen.weaken(rng, store, Q)
        assert compatible(P2, Q2)
        A = randgen.random_process(rng, store)
        B = randgen.random_process(rng, store, peers=("w",))
        assert compatible(A, B) == compatible(B, A)


def test_law_compatibility_restricts_to_branches(store):
    rng = random.Random(104)
    dropped = 0
    for _ in range(CASES):
        P = randgen.random_process(rng, store)
        while not isinstance(P, POut):
            P = randgen.random_process(rng, store)
        Q = randgen.compatible_partner(rng, store, P, extend=False)
        assert isinstance(Q, PIn) and compatible(P, Q)
        # facing continuations of a shared label are compatible themselves
        for l, cont in Q.branches:
            assert compatible(node_branch(P, l), cont)
        # dropping input branches preserves compatibility
        if len(Q.branches) >= 2:
            keep = rng.sample(list(Q.branches), rng.randint(1, len(Q.branches) - 1))
            b = store.builder()
            small = b.intern([b.add_in(Q.peer, keep)])[0]
            assert compatible(P, small)
            dropped += 1
    assert dropped >= CASES // 5


def test_law_gateways_preserve_the_plain_preorder(store):
    rng = random.Random(105)
    for _ in range(CASES):
        P = randgen.random_process(rng, store)
        Q = randgen.weaken(rng, store, P)
        assert leq(gateway(P, "gw"), gateway(Q, "gw"))


def test_law_projections_mirror_global_steps(store):
    rng = random.Random(106)
    pairs_checked = 0
    for _ in range(CASES):
        G = randgen.random_wf_global(rng, store, max_nodes=15)
        assert G is not None
        projections = {p: project(G, p) for p in randgen.LEFT_PARTICIPANTS}
        # an output/input pair of projections determines the global steps
        for p, pp in projections.items():
            for q, qq in projections.items():
                if not (isinstance(pp, POut) and pp.peer == q):
                    continue
                if not (isinstance(qq, PIn) and qq.peer == p):
                    continue
                assert node_labels(pp) == node_labels(qq)
                for l in node_labels(pp):
                    succ = global_step(G, CommAction(p, l, q))
                    assert succ is not None
                    for part, proj in ((p, pp), (q, qq)):
                        after = project(succ, part)
                        assert not isinstance(after, ProjectionError)
                        assert bisimilar(node_branch(proj, l), after)
                pairs_checked += 1
        # conversely, every enabled step shows up in the projections
        for act, _ in global_enabled(G):
            pp, qq = projections[act.sender], projections[act.receiver]
            assert isinstance(pp, POut) and pp.peer == act.receiver
            assert isinstance(qq, PIn) and qq.peer == act.sender
            assert act.label in node_labels(pp)
            assert act.label in node_labels(qq)
    assert pairs_checked >= CASES


def test_law_self_projections_stay_faithful_under_reduction(store):
    rng = random.Random(107)
    for _ in range(CASES):
        G = randgen.random_wf_global(rng, store)
        assert G is not None
        M = randgen.self_projection(store, G)
        verdict = fidelity_harness(M, G)
        assert verdict.ok, verdict.divergence


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="well_formed bounds depths only at the root; here "
                   "p and q have depth inf in G.kids[0], so after one step "
                   "the r -> s loop can postpone q -a-> p forever")
def test_fidelity_holds_on_well_formed_types(store):
    # 25 of 2000 random_wf_global types of seed 107 have such a subterm;
    # the law suite above never draws one.  The self-projection is typed
    # and lock-free; a well_formed that checked every subterm would reject
    # G and make this pass.
    G = parse_global("rec X0 . q -> p : a . rec X1 . r -> s : {a . X0, c . X1}",
                     store=store)
    if well_formed(G).ok:
        verdict = fidelity_harness(randgen.self_projection(store, G), G)
        assert verdict.ok, verdict.divergence


def test_law_typed_sessions_are_lock_free(store):
    rng = random.Random(108)
    for _ in range(CASES):
        G = randgen.random_wf_global(rng, store)
        assert G is not None
        M = randgen.self_projection(store, G)
        assert typecheck(M, G).ok
        assert lock_free(M).ok


def test_law_uninvolved_depths_decrease_at_root_steps(store):
    rng = random.Random(109)
    checks = 0
    # many generated types touch only two participants and contribute nothing,
    # so iterate well past CASES and stop once enough checks accumulated
    for _ in range(40 * CASES):
        if checks >= CASES:
            break
        G = randgen.random_wf_global(rng, store)
        assert G is not None and isinstance(G, GComm)
        others = participants(G) - {G.sender, G.receiver}
        for l, cont in G.branches:
            for r in others:
                assert depth(G, r) > depth(cont, r)
                checks += 1
    assert checks >= CASES


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the composed running example already "
                   "reaches depth 7 for s, over the advertised 2*(w+w') = 6; "
                   "the bound cannot be a sum (see the decisions ledger)")
def test_law_composed_depth_within_twice_the_weight_sum(cx, store):
    def max_depth(G):
        return max((depth(G, p).value for p in participants(G)),
                   default=0)

    violations = []
    rng = random.Random(110)
    for _ in range(CASES):
        out = randgen.compatible_global_pair(rng, store)
        assert out is not None
        G, h, Gp, k = out
        bound = 2 * (max_depth(G) + max_depth(Gp))
        composed = connect_globals(G, h, Gp, k)
        for p in participants(composed):
            if depth(composed, p).value > bound:
                violations.append((p, depth(composed, p).value, bound))
    flagship = connect_globals(cx.gt("relay.gt"), "h", cx.gt("right.gt"), "k")
    bound = 2 * (max_depth(cx.gt("relay.gt")) + max_depth(cx.gt("right.gt")))
    for p in participants(flagship):
        if depth(flagship, p).value > bound:
            violations.append((p, depth(flagship, p).value, bound))
    assert violations == []


def test_law_connection_succeeds_on_every_compatible_pair(store):
    rng = random.Random(111)
    for _ in range(CASES):
        out = randgen.compatible_global_pair(rng, store)
        assert out is not None
        G, h, Gp, k = out
        assert compatible_globals(G, h, Gp, k)
        composed = connect_globals(G, h, Gp, k)
        assert participants(composed) <= \
            participants(G) | participants(Gp) | {h, k}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="composing a compatible pair can move a "
                   "choice ahead of traffic that used to precede it, leaving "
                   "the composed type unprojectable onto an original "
                   "participant (see the decisions ledger)")
def test_law_composed_types_stay_well_formed(store):
    rng = random.Random(111)
    violations = []
    for _ in range(CASES):
        G, h, Gp, k = randgen.compatible_global_pair(rng, store)
        composed = connect_globals(G, h, Gp, k)
        if not well_formed(composed).ok:
            violations.append((G, Gp))
    assert violations == []
