import importlib
import json
import os
import random
from collections import deque

import pytest

import mpst.semantics
from mpst.core import (GEnd, NodeStore, PEnd, PIn, POut, Session, _split,
                       node_branch, node_labels, normalize_session, participants)
from mpst.parser import (parse_global, parse_process, parse_session,
                         print_global, print_session)
from mpst.semantics import (CommAction, FidelityVerdict, LockReport,
                            StateSpaceBoundExceeded, explore, fidelity_harness,
                            global_enabled, global_step, lock_free,
                            session_enabled, session_step, simulate,
                            standard_witness)
from mpst.typecheck import (IllFormedGlobalType, Mode, ProjectionError,
                            TypingReport, leq, leq_plus, typecheck, well_formed)

import randgen
from oracles import ref_can_step, ref_do_step


def _count_nodes(P):
    seen, stack = set(), [P]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if not isinstance(n, PEnd):
            stack.extend(c for _, c in n.branches)
    return len(seen)


# ---------------------------------------------------------------------------
# Session transitions.

def test_initial_enabled_action_of_relay(cx):
    M = cx.sess("relay.sess")
    actions = [a for a, _ in session_enabled(M)]
    assert [str(a) for a in actions] == ["p -text-> q"]
    succ = session_step(M, actions[0])
    assert succ["p"] is not M["p"]
    assert succ["h"] is M["h"]


def test_output_labels_must_be_covered_by_input(store):
    fires = parse_session("p |> q!l . 0 || q |> p?{l . 0, l2 . 0}", store=store)
    assert [str(a) for a, _ in session_enabled(fires)] == ["p -l-> q"]
    blocked = parse_session("p |> q!{l . 0, l2 . 0} || q |> p?l . 0", store=store)
    assert session_enabled(blocked) == []


def test_wide_output_fires_per_label(store):
    M = parse_session(
        "p |> q!{a . 0, b . q?done . 0} || q |> p?{a . 0, b . p!done . 0, c . 0}",
        store=store)
    assert sorted(str(a) for a, _ in session_enabled(M)) == \
        ["p -a-> q", "p -b-> q"]


def test_session_step_returns_none_when_disabled(cx):
    M = cx.sess("relay.sess")
    assert session_step(M, CommAction("q", "text", "p")) is None


def test_comm_action_sorts_hashes_and_prints_as_before():
    mixed = [CommAction("q", "a", "r"), CommAction("p", "b", "q"), CommAction("q", "b", "p"),
             CommAction("p", "a", "r"), CommAction("p", "a", "q")]
    assert [str(a) for a in sorted(mixed)] == \
        ["p -a-> q", "p -a-> r", "p -b-> q", "q -a-> r", "q -b-> p"]
    a, b = CommAction("q", "b", "p"), CommAction("q", "b", "p")
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != CommAction("p", "b", "q")
    # a named tuple: it also equals the plain (sender, label, receiver) tuple
    assert a == ("q", "b", "p") and hash(a) == hash(("q", "b", "p"))
    assert str(a) == "q -b-> p"
    assert repr(a) == "CommAction(sender='q', label='b', receiver='p')"
    assert a.to_json() == {"sender": "q", "label": "b", "receiver": "p", "text": "q -b-> p"}
    assert a.involves("q") and a.involves("p") and not a.involves("b")


# ---------------------------------------------------------------------------
# Global transitions.

def test_global_enabled_inside_communications(store):
    G = parse_global(
        "p -> q : {l1 . r -> s : a . end, l2 . r -> s : a . p -> q : go . end}",
        store=store)
    assert sorted(str(a) for a, _ in global_enabled(G)) == \
        ["p -l1-> q", "p -l2-> q", "r -a-> s"]
    inner = global_step(G, CommAction("r", "a", "s"))
    assert inner is parse_global(
        "p -> q : {l1 . end, l2 . p -> q : go . end}", store=store)


def test_global_icomm_blocked_by_involved_root(cx):
    G = cx.gt("relay.gt")
    assert [str(a) for a, _ in global_enabled(G)] == ["p -text-> q"]


def test_global_step_returns_none_when_unavailable(cx):
    assert global_step(cx.gt("relay.gt"), CommAction("q", "text", "p")) is None


def _ref_global_enabled(G):
    """global_enabled as it was before the pruned walk: every action of every
    reachable node is a candidate, decided with fresh memos by the recursive
    reference step functions."""
    if isinstance(G, GEnd):
        return []
    candidates = set()
    seen = set()
    stack = [G]
    while stack:
        n = stack.pop()
        if n.nid in seen or isinstance(n, GEnd):
            continue
        seen.add(n.nid)
        for l, c in n.branches:
            candidates.add(CommAction(n.sender, l, n.receiver))
            stack.append(c)
    can_memo, step_memo = {}, {}
    out = []
    for action in sorted(candidates):
        if ref_can_step(G, action, can_memo, set()):
            out.append((action, ref_do_step(G, action, step_memo)))
    return out


def test_global_enabled_matches_full_walk_on_random_types():
    # Stepping inside a loop can unroll it a little further each time
    # (rec X . r -> s : b . q -> p : a . X), so each type's states are
    # visited breadth first up to a cap.
    rng = random.Random(5)
    names = ("p", "q", "r", "s", "t")
    compared = below_root = 0
    for _ in range(3000):
        store = NodeStore()
        G = randgen.random_global(
            rng, store, participants=names[:rng.randint(2, 5)],
            max_nodes=rng.randint(1, 12), branchiness=rng.random())
        seen = {G}
        work = deque([G])
        while work:
            g = work.popleft()
            got = global_enabled(g)  # the first call in a fresh store is uncached
            assert got == _ref_global_enabled(g)
            for action, succ in got:
                compared += 1
                if (action.sender, action.receiver) != (g.sender, g.receiver):
                    below_root += 1
            nexts = [succ for _, succ in got]
            if not isinstance(g, GEnd):
                nexts += [c for _, c in g.branches]
            for n in nexts:
                if n not in seen and len(seen) < 100:
                    seen.add(n)
                    work.append(n)
    assert compared > 10000
    assert below_root > 3000


# ---------------------------------------------------------------------------
# Exploration.

def test_explore_relay(cx):
    g = explore(cx.sess("relay.sess"))
    assert len(g.states) == 8 and len(g.edges) == 9
    assert g.initial == 0
    js = g.to_json()
    assert set(js) == {"initial", "states", "edges"}
    dot = g.to_dot()
    assert dot.startswith("digraph") and dot.count("->") >= len(g.edges)


def test_explore_state_count_bounded_by_node_product(cx):
    for name in cx.names(".sess"):
        M = cx.sess(name)
        graph = explore(M)
        product = 1
        for _, P in normalize_session(M).items():
            product *= _count_nodes(P)
        assert len(graph.states) <= max(product, 1)


def test_explore_reads_bound_from_environment(cx, monkeypatch):
    monkeypatch.setenv("MPST_STATE_BOUND", "2")
    with pytest.raises(StateSpaceBoundExceeded):
        explore(cx.sess("right.sess"))


def _ping_pong(k):
    """k independent pairs a_i, b_i looping ping then pong: k parts of two
    states each, so 2^k states and k * 2^k edges."""
    return " || ".join(
        f"a{i} |> rec X . b{i}!ping . b{i}?pong . X || b{i} |> rec Y . a{i}?ping . a{i}!pong . Y"
        for i in range(k))


def test_explore_bound_counts_discovered_states(cx, monkeypatch):
    pairs = parse_session(_ping_pong(10), store=NodeStore())
    for M in [cx.sess(name) for name in cx.names(".sess")] + [pairs]:
        monkeypatch.delenv("MPST_STATE_BOUND", raising=False)
        n = len(explore(M).states)
        monkeypatch.setenv("MPST_STATE_BOUND", str(n))
        assert len(explore(M).states) == n
        if n == 1:
            continue
        monkeypatch.setenv("MPST_STATE_BOUND", str(n - 1))
        with pytest.raises(StateSpaceBoundExceeded) as info:
            explore(M)
        assert info.value.states == n and info.value.bound == n - 1
        assert f"found more than {n - 1} states" in str(info.value)
    # the 10 pairs' 1024 states are counted on the product of their parts:
    # the bound trips with no exploration of more than one pair
    explore_part = mpst.semantics._explore
    spans = []

    def counted(names, start, limit):
        spans.append(names)
        return explore_part(names, start, limit)

    monkeypatch.setattr(mpst.semantics, "_explore", counted)
    monkeypatch.setenv("MPST_STATE_BOUND", "1023")
    with pytest.raises(StateSpaceBoundExceeded) as info:
        explore(pairs)
    assert (info.value.states, info.value.bound) == (1024, 1023)
    assert len(spans) == 10 and all(len(names) == 2 for names in spans)


# ---------------------------------------------------------------------------
# Subject reduction on the corpus.

@pytest.mark.parametrize("sess_name,gt_name", [
    ("relay.sess", "relay.gt"),
    ("right.sess", "right.gt"),
    ("right.sess", "right.gt"),
    ("composed.sess", "composed.gt"),
])
def test_subject_reduction_along_every_edge(cx, sess_name, gt_name):
    M, G = cx.sess(sess_name), cx.gt(gt_name)
    assert typecheck(M, G).ok
    seen = {}
    queue = [(normalize_session(M), G)]
    while queue:
        state, g = queue.pop()
        key = (state, g.nid)
        if key in seen:
            continue
        seen[key] = True
        for action, succ in session_enabled(state):
            gsucc = global_step(g, action)
            assert gsucc is not None, f"type cannot follow {action}"
            succ = normalize_session(succ)
            assert typecheck(succ, gsucc).ok
            queue.append((succ, gsucc))
    assert seen


# ---------------------------------------------------------------------------
# Lock-freedom.

def test_corpus_positive_sessions_are_lock_free(cx):
    for name in ("relay.sess", "right.sess", "right.sess", "composed.sess",
                 "crossed_left.sess", "crossed_right.sess"):
        assert lock_free(cx.sess(name)).ok, name


def test_crossed_forwarders_deadlock_immediately(cx):
    report = lock_free(cx.sess("crossed_forwarders.sess"))
    assert not report.ok
    assert report.deadlock_witness == []
    js = report.to_json()
    assert js["ok"] is False


def test_starvation_is_detected(store):
    M = parse_session(
        "p |> rec X . q!l . X || q |> rec X . p?l . X || r |> p?go . 0",
        store=store)
    report = lock_free(M)
    assert not report.ok
    assert report.deadlock_witness is None
    actions, starving = report.starvation_witness
    assert starving == "r"
    assert actions == []


def test_deadlock_witness_is_replayable(store):
    M = parse_session(
        "p |> q!a . q!b . 0 || q |> p?a . r?c . 0 || r |> 0", store=store)
    report = lock_free(M)
    assert not report.ok and report.deadlock_witness
    state = normalize_session(M)
    for action in report.deadlock_witness:
        state = normalize_session(session_step(state, action))
    assert session_enabled(state) == [] and len(state) > 0


# ---------------------------------------------------------------------------
# Reference engine: the exploration and lock-freedom check that preceded the
# trusted successors and the SCC pass.  Successors go through the validating
# Session.rebind and normalize_session, and starvation is decided by one
# backward BFS per participant.

def _ref_session_enabled(M):
    out = []
    for p, P in M.items():
        if not isinstance(P, POut):
            continue
        q = P.peer
        Q = M.get(q)
        if not (isinstance(Q, PIn) and Q.peer == p):
            continue
        if not set(node_labels(P)) <= set(node_labels(Q)):
            continue
        for l, cont in P.branches:
            action = CommAction(p, l, q)
            out.append((action, M.rebind({p: cont, q: node_branch(Q, l)})))
    out.sort(key=lambda e: e[0])
    return out


def _ref_state_key(M):
    return tuple((p, P.nid) for p, P in M.items())


def _ref_explore(M):
    init = normalize_session(M)
    states = [init]
    index = {_ref_state_key(init): 0}
    edges = []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for action, succ in _ref_session_enabled(states[i]):
            succ = normalize_session(succ)
            key = _ref_state_key(succ)
            j = index.get(key)
            if j is None:
                j = len(states)
                index[key] = j
                states.append(succ)
                queue.append(j)
            edges.append((i, action, j))
    return states, edges


def _ref_lock_free(M):
    states, edges = _ref_explore(M)
    size = {"states": len(states), "edges": len(edges)}
    parent = {0: None}
    order = deque([0])
    fwd = {}
    for s, a, t in edges:
        fwd.setdefault(s, []).append((a, t))
    while order:
        i = order.popleft()
        for a, j in fwd.get(i, ()):
            if j not in parent:
                parent[j] = (i, a)
                order.append(j)

    def path(i):
        acc = []
        while parent[i] is not None:
            i, a = parent[i]
            acc.append(a)
        acc.reverse()
        return acc

    has_edge = {s for s, _, _ in edges}
    for i, state in enumerate(states):
        if i not in has_edge and len(state) > 0:
            return LockReport(False, deadlock_witness=path(i), **size)
    participants = sorted({p for state in states for p in state.participants})
    back = {}
    for s, a, t in edges:
        back.setdefault(t, []).append(s)
    for p in participants:
        involved = {s for s, a, _ in edges if a.involves(p)}
        reach = set(involved)
        work = deque(involved)
        while work:
            t = work.popleft()
            for s in back.get(t, ()):
                if s not in reach:
                    reach.add(s)
                    work.append(s)
        for i, state in enumerate(states):
            if p in state and i not in reach:
                return LockReport(False, starvation_witness=(path(i), p), **size)
    return LockReport(True, **size)


def _verdict(report):
    if report.ok:
        return "lock-free"
    return "deadlock" if report.deadlock_witness is not None else "starvation"


def _ref_json(states, edges):
    return {"initial": 0,
            "states": [print_session(s) or "0" for s in states],
            "edges": [{"src": s, "action": a.to_json(), "dst": t} for s, a, t in edges]}


def _ref_dot(states, edges):
    def esc(text):
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph session {", "  rankdir=LR;"]
    for i, s in enumerate(states):
        shape = ', peripheries=2' if i == 0 else ""
        lines.append(f'  n{i} [label="{esc(print_session(s) or "0")}"{shape}];')
    for s, a, t in edges:
        lines.append(f'  n{s} -> n{t} [label="{a.sender}:{a.label}->{a.receiver}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ref_parts(M):
    """The participants of normalized M grouped into the components of the
    names graph by repeated merging, as sorted lists in sorted order."""
    init = normalize_session(M)
    groups = []
    for p, P in init.items():
        linked = {p} | participants(P)
        for group in [g for g in groups if g & linked]:
            groups.remove(group)
            linked |= group
        groups.append(linked)
    return sorted(sorted(group & set(init)) for group in groups)


def _assert_engines_agree(M):
    states, edges = _ref_explore(M)
    n = len(states)
    # the parts and the counts known before the whole session is explored
    graph = explore(M)
    assert sorted(sorted(part.names) for part in graph.parts) == _ref_parts(M)
    assert (len(graph.states), graph.edge_count) == (n, len(edges))
    # a state's Session is built on its first read, in whatever order the
    # states are read, and then kept
    assert [graph.states[i] for i in reversed(range(n))] == states[::-1]
    assert all(graph.states[i] is graph.states[i - n] for i in range(n))
    assert [explore(M).states[i - n] for i in range(n)] == states
    assert list(reversed(explore(M).states)) == states[::-1]
    graph = explore(M)
    assert len(graph.states) == n
    assert [print_session(s) for s in graph.states] == \
        [print_session(s) for s in states]
    assert graph.states == states and states == graph.states
    assert graph.states[1:] == states[1:]
    assert graph.states[::2] == states[::2]
    assert graph.edges == edges
    assert explore(M) == explore(M)
    assert json.dumps(explore(M).to_json()) == json.dumps(_ref_json(states, edges))
    assert explore(M).to_dot() == _ref_dot(states, edges)
    # the per-state lists that lock_free reads, bit k for the k-th
    # participant of the initial state
    bit = {p: 1 << k for k, p in enumerate(states[0].participants)}
    successors = [[] for _ in states]
    actions = [[] for _ in states]
    involved = [0] * n
    for s, a, t in edges:
        successors[s].append(t)
        actions[s].append(a)
        involved[s] |= bit[a.sender] | bit[a.receiver]
    assert (graph.successors, graph.actions, graph.involved) == \
        (successors, actions, involved)
    assert graph.binds == [sum(bit[p] for p in state) for state in states]
    for state in [M] + states:
        assert session_enabled(state) == _ref_session_enabled(state)
    report = lock_free(M)
    assert report == _ref_lock_free(M)
    assert (report.states, report.edges) == (len(states), len(edges))
    return report


def test_engine_matches_reference_on_corpus(cx):
    verdicts = {name: _verdict(_assert_engines_agree(cx.sess(name)))
                for name in cx.names(".sess")}
    assert verdicts["crossed_forwarders.sess"] == "deadlock"
    assert verdicts["composed.sess"] == "lock-free"


def test_engine_matches_reference_when_senders_share_a_process(store):
    # p and q run the same node, which only p's peer can serve first
    M = parse_session("p |> r!l . 0 || q |> r!l . 0 || r |> p?l . q?l . 0",
                      store=store)
    assert M["p"] is M["q"]
    assert _verdict(_assert_engines_agree(M)) == "lock-free"
    assert [str(a) for _, a, _ in explore(M).edges] == ["p -l-> r", "q -l-> r"]


def test_starvation_witness_is_least_participant_at_its_first_state(store):
    # z starves from the initial state on; c starves only once d has served
    # it, at BFS state 1.  The least starving participant is reported, at
    # the first state where it starves.
    loop = "p |> rec X . q!l . X || q |> rec Y . p?l . Y || z |> p?go . 0"
    assert lock_free(parse_session(loop, store=store)).starvation_witness == ([], "z")
    M = parse_session(loop + " || c |> d?a . p?never . 0 || d |> c!a . 0",
                      store=store)
    report = _assert_engines_agree(M)
    actions, starving = report.starvation_witness
    assert starving == "c"
    assert [str(a) for a in actions] == ["d -a-> c"]
    assert explore(M).edges[0][2] == 1


def test_deadlock_reachable_before_any_starvation_is_reported(store):
    # halt leads to a stuck state (BFS state 1); spin starves w (state 2)
    spin = ("p |> q!{halt . r?never . 0, spin . rec X . q!l . X, wake . w!x . 0}"
            " || q |> p?{halt . 0, spin . rec Y . p?l . Y, wake . 0}"
            " || w |> p?x . 0")
    report = _assert_engines_agree(parse_session(spin, store=store))
    assert report.starvation_witness is None
    assert [str(a) for a in report.deadlock_witness] == ["p -halt-> q"]
    no_halt = spin.replace("halt . r?never . 0, ", "").replace("halt . 0, ", "")
    report = _assert_engines_agree(parse_session(no_halt, store=store))
    assert report.deadlock_witness is None
    assert [str(a) for a in report.starvation_witness[0]] == ["p -spin-> q"]
    assert report.starvation_witness[1] == "w"


def test_engine_matches_reference_when_bindings_come_from_two_stores():
    # Each participant's nodes stay in the store of its initial process.
    # Parsed into two fresh stores (0 and 1), p and q run nodes with equal
    # nids, so states keyed by node identity must number like (participant,
    # nid).  In the last case p and q step independently, so two states
    # hold the same nids at swapped positions.
    cases = [
        ("lock-free", {"p": (0, "q!a . q!b . r!c . 0"), "q": (1, "p?a . p?b . r?d . 0"),
                       "r": (1, "p?c . q!d . 0")}),
        ("lock-free", {"p": (0, "rec X . q!{go . X, stop . r!c . 0}"),
                       "q": (1, "rec Y . p?{go . Y, stop . r?d . 0}"),
                       "r": (1, "p?c . q!d . 0")}),
        ("starvation", {"p": (0, "rec X . q!l . X"), "q": (1, "rec Y . p?l . Y"),
                        "r": (1, "p?c . 0")}),
        ("deadlock", {"p": (0, "q!a . r?c . 0"), "q": (1, "p?a . r?x . 0"),
                      "r": (1, "q?d . 0")}),
        # two bound participants that name only unbound peers: two parts
        ("deadlock", {"p": (0, "r!a . 0"), "q": (1, "s!b . 0")}),
        ("lock-free", {"p": (0, "r!a . r!b . 0"), "q": (1, "s!a . s!b . 0"),
                       "r": (0, "p?a . p?b . 0"), "s": (1, "q?a . q?b . 0")}),
    ]
    for verdict, bindings in cases:
        stores = NodeStore(), NodeStore()
        M = Session({p: parse_process(text, store=stores[side])
                     for p, (side, text) in bindings.items()})
        assert M["p"].store is not M["q"].store and M["p"].nid == M["q"].nid
        assert _verdict(_assert_engines_agree(M)) == verdict
    # p and s come from store 0, whose 4 nodes fit 3-bit digits, and q and r
    # from store 1, whose nids need more bits: digits sized by p's store
    # alone would give two of these states one code.
    stores = NodeStore(), NodeStore()
    M = Session({"p": parse_process("s!a . 0", store=stores[0]),
                 "s": parse_process("p?a . 0", store=stores[0]),
                 "q": parse_process("r!a . r!b . " * 4 + "0", store=stores[1]),
                 "r": parse_process("rec Y . q?a . q?b . Y", store=stores[1])})
    assert M["q"].nid.bit_length() > stores[0]._count.bit_length()
    assert _verdict(_assert_engines_agree(M)) == "deadlock"


def _token_ring(n):
    """A ring of n participants t0 .. t(n-1) passing one token forever: n
    states, one per holder of the token."""
    names = [f"t{i}" for i in range(n)]
    procs = [f"{names[0]} |> rec X . {names[1]}!tok . {names[-1]}?tok . X"]
    procs += [f"{names[i]} |> rec X . {names[i - 1]}?tok . {names[(i + 1) % n]}!tok . X"
              for i in range(1, n)]
    return " || ".join(procs)


def test_engine_matches_reference_on_a_ring_whose_codes_exceed_64_bits(store):
    M = parse_session(_token_ring(40), store=store)
    assert store._count.bit_length() * len(M) > 64
    report = _assert_engines_agree(M)
    assert report.ok and (report.states, report.edges) == (40, 40)
    # c waits on t0 once d has served it: it starves from BFS state 1 on,
    # after d's one action, while the ring runs forever
    M = parse_session(_token_ring(40) + " || c |> d?a . t0?never . 0 || d |> c!a . 0",
                      store=store)
    report = _assert_engines_agree(M)
    actions, starving = report.starvation_witness
    assert starving == "c" and [str(a) for a in actions] == ["d -a-> c"]


def test_lock_free_explores_once_through_the_module_name(cx, monkeypatch):
    # a wrapper on mpst.semantics.explore sees lock_free's one exploration,
    # and the report counts that graph's states and edges
    graphs = []

    def counted(M):
        graphs.append(explore(M))
        return graphs[-1]

    monkeypatch.setattr(mpst.semantics, "explore", counted)
    for name in cx.names(".sess"):
        graphs.clear()
        report = lock_free(cx.sess(name))
        assert len(graphs) == 1, name
        assert (report.states, report.edges) == \
            (len(graphs[0].states), len(graphs[0].edges)), name


def test_lock_free_builds_no_session_but_the_initial_one(store, monkeypatch):
    # 10 ping-pong pairs: 1024 states, of which lock_free reads only the
    # initial one; the graph's state count needs no Session either.  The
    # pairs are 10 parts of 2 states each, and lock_free explores those
    # 20 node vectors, not the 1024 of the whole session.
    M = parse_session(_ping_pong(10), store=store)
    made = []
    trusted = Session._trusted.__func__

    def counted(cls, bindings):
        made.append(dict(bindings))
        return trusted(cls, bindings)

    explore_part = mpst.semantics._explore
    vectors = []

    def explored(names, start, limit):
        space = explore_part(names, start, limit)
        vectors.append(len(space.vecs))
        return space

    monkeypatch.setattr(Session, "_trusted", classmethod(counted))
    monkeypatch.setattr(mpst.semantics, "_explore", explored)
    report = lock_free(M)
    assert report.ok and (report.states, report.edges) == (1024, 10240)
    assert made == [dict(M.items())]
    assert sum(vectors) == 20
    made.clear()
    vectors.clear()
    graph = explore(M)
    assert len(graph.states) == 1024 and graph.edge_count == 10240
    assert made == [dict(M.items())] and sum(vectors) == 20
    # the whole session's lists are explored once, on their first read
    assert len(graph.successors) == 1024 and len(graph.edges) == 10240
    assert graph.binds is graph.binds and vectors[-1] == 1024
    assert sum(vectors) == 20 + 1024


def _swap_one(rng, store, M):
    """M with one process swapped for an arbitrary one over the same peers."""
    p = rng.choice(M.participants)
    peers = tuple(x for x in M.participants if x != p)
    return M.rebind({p: randgen.random_process(rng, store, peers=peers, max_nodes=5)})


def test_engine_matches_reference_on_random_sessions(cx):
    rng = random.Random(31)
    store = NodeStore()
    relay = parse_session(cx.text("relay.sess"), store=store)
    forever = parse_session(
        "x |> rec X . y!ping . y?pong . X || y |> rec Y . x?ping . x!pong . Y",
        store=store)
    verdicts = {"lock-free": 0, "deadlock": 0, "starvation": 0}
    starved_later = 0
    # cases of two or more parts: lock_free passes each part (True), or
    # falls back to the whole session to find the witness (False)
    split = {True: 0, False: 0}
    for _ in range(150):
        G = randgen.random_wf_global(rng, store, max_nodes=12)
        H = randgen.random_wf_global(rng, store, participants=("a", "b", "c"),
                                     max_nodes=12)
        if G is None or H is None:
            continue
        M = randgen.self_projection(store, G)
        N = randgen.self_projection(store, H)
        Z = randgen.random_process(rng, store, peers=M.participants, max_nodes=3)
        cases = [
            M,
            _swap_one(rng, store, M).rebind({"z": store.end_process}),
            M.rebind({"z": Z}),  # z starves wherever the others run forever
            Session(M.items() + N.items()),  # two self-projections side by side
            Session(M.items() + _swap_one(rng, store, N).items()),
            Session(relay.items() + _swap_one(rng, store, N).items()),
            Session(forever.items() + _swap_one(rng, store, N).items()),
        ]
        for case in cases:
            report = _assert_engines_agree(case)
            verdicts[_verdict(report)] += 1
            starved_later += bool(report.starvation_witness and report.starvation_witness[0])
            if len(_ref_parts(case)) > 1:
                split[report.ok] += 1
    assert all(count >= 50 for count in verdicts.values()), verdicts
    assert starved_later >= 10
    assert split[True] >= 120 and split[False] >= 300, split


# ---------------------------------------------------------------------------
# Simulation.

def test_simulation_is_deterministic(cx):
    M = cx.sess("right.sess")
    a = simulate(M, 40, seed=5)
    b = simulate(M, 40, seed=5)
    assert [str(x) for x in a.trace] == [str(x) for x in b.trace]
    assert a.status == b.status == "bound"
    assert print_session(a.final) == print_session(b.final)


def test_simulation_statuses(store, cx):
    done = simulate(parse_session("p |> q!l . 0 || q |> p?l . 0", store=store), 5)
    assert done.status == "final" and len(done.trace) == 1
    stuck = simulate(cx.sess("crossed_forwarders.sess"), 5)
    assert stuck.status == "stuck" and stuck.trace == []
    js = done.to_json()
    assert set(js) == {"trace", "final", "status"}


def test_simulation_builds_only_the_successors_it_takes(store, monkeypatch):
    # 500 ping-pong pairs enable 500 moves in every state: a step draws one
    # and builds that successor alone, and the status check builds none
    M = parse_session(_ping_pong(500), store=store)
    made = []
    trusted = Session._trusted.__func__

    def counted(cls, bindings):
        made.append(len(bindings))
        return trusted(cls, bindings)

    monkeypatch.setattr(Session, "_trusted", classmethod(counted))
    assert simulate(M, 0).status == "bound" and made == []
    run = simulate(M, 5)
    assert run.status == "bound" and len(run.trace) == 5
    assert made == [1000] * 5


# ---------------------------------------------------------------------------
# Fidelity and the Plus-to-Standard witness.

def test_fidelity_holds_for_self_projection(cx):
    verdict = fidelity_harness(cx.sess("relay.sess"), cx.gt("relay.gt"))
    assert verdict.ok and verdict.divergence is None
    assert verdict.visited == len(explore(cx.sess("relay.sess")).states)


def test_fidelity_reports_width_divergence_in_plus_mode(cx):
    verdict = fidelity_harness(cx.sess("plus_only.sess"), cx.gt("plus_only.gt"),
                               Mode.Plus)
    assert not verdict.ok
    assert verdict.divergence["action"] == "p -l2-> q"
    assert "unmatched by the session" in verdict.divergence["kind"]


def test_fidelity_requires_a_typed_session(cx):
    with pytest.raises(ValueError):
        fidelity_harness(cx.sess("plus_only.sess"), cx.gt("plus_only.gt"))


def test_fidelity_harness_stops_at_the_state_bound(store, monkeypatch):
    # Well formed and typed, yet every `q -a-> p` step fires below the root
    # and unrolls the loop once more, so no pair of nids is met again.
    G = parse_global("rec X . r -> s : b . q -> p : a . X", store=store)
    M = randgen.self_projection(store, G)
    assert typecheck(M, G).ok
    enabled = mpst.semantics.global_enabled
    calls = []

    def counted(g):
        calls.append(g)
        if len(calls) > 1000:
            raise AssertionError("the harness ran on past its state bound")
        return enabled(g)

    monkeypatch.setattr(mpst.semantics, "global_enabled", counted)
    monkeypatch.setenv("MPST_STATE_BOUND", "50")
    with pytest.raises(StateSpaceBoundExceeded) as exc:
        fidelity_harness(M, G)
    assert (exc.value.states, exc.value.bound) == (51, 50)
    assert len(calls) <= 51


def test_fidelity_harness_counts_session_states_before_pairs(store, monkeypatch):
    # the session has three states, over a bound of two; the harness
    # explores it first, so the bound stops it before the type's l2 branch,
    # which the session never takes, could be reported as a divergence
    G = parse_global("p -> q : {l1 . p -> q : l1 . end, l2 . p -> q : l1 . end}",
                     store=store)
    M = parse_session("p |> q!l1 . q!l1 . 0 || q |> p?{l1 . p?l1 . 0, l2 . p?l1 . 0}",
                      store=store)
    assert fidelity_harness(M, G, Mode.Plus).divergence["action"] == "p -l2-> q"
    monkeypatch.setenv("MPST_STATE_BOUND", "2")
    with pytest.raises(StateSpaceBoundExceeded) as exc:
        fidelity_harness(M, G, Mode.Plus)
    assert (exc.value.states, exc.value.bound) == (3, 2)


def _relay(store, n):
    """An n-step relay p -> q -> r -> p ... and its self-projection."""
    G = parse_global(" . ".join(f"{'pqr'[i % 3]} -> {'pqr'[(i + 1) % 3]} : l"
                                for i in range(n)) + " . end", store=store)
    return randgen.self_projection(store, G), G


def test_root_actions_fire_by_ecomm_without_a_walk(store, monkeypatch):
    # every step of a relay fires at the root of its type, so the harness
    # never asks `_can_step`; an action below the root still goes through it
    M, G = _relay(NodeStore(), 64)
    can_step = mpst.semantics._can_step
    calls = []

    def counted(g, action):
        calls.append(action)
        return can_step(g, action)

    monkeypatch.setattr(mpst.semantics, "_can_step", counted)
    verdict = fidelity_harness(M, G)
    assert verdict.ok and verdict.visited == 65
    assert calls == []
    G = parse_global("p -> q : a . r -> s : b . end", store=store)
    assert [str(a) for a, _ in global_enabled(G)] == ["p -a-> q", "r -b-> s"]
    assert calls == [("r", "b", "s")]


def test_fidelity_harness_computes_depths_only_for_its_entry_check(monkeypatch):
    # a 64-step relay; each step is checked by the relaxed typing check,
    # which reads only projections
    roles = ("p", "q", "r")
    M, G = _relay(NodeStore(), 64)
    tc = importlib.import_module("mpst.typecheck")  # the package exports a function by that name
    depth_raw = tc._depth_raw
    calls = []

    def counted(g, p):
        calls.append((g, p))
        return depth_raw(g, p)

    monkeypatch.setattr(tc, "_depth_raw", counted)
    verdict = fidelity_harness(M, G)
    assert verdict.ok and verdict.visited == 65
    assert sorted(calls, key=lambda c: c[1]) == [(G, p) for p in roles]


def test_fidelity_harness_steps_on_bindings_without_reports_or_sessions(monkeypatch):
    # the same 64-step relay: `typecheck` runs once, for the entry check;
    # the session's states come from one `_explore` call, without
    # `session_enabled`; and the only Session made is the normalized
    # initial state
    M, G = _relay(NodeStore(), 64)
    calls = {"typecheck": 0, "session_enabled": 0, "_explore": 0, "Session": 0}

    def counted(name, f):
        def run(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return run

    for name in ("typecheck", "session_enabled", "_explore"):
        monkeypatch.setattr(mpst.semantics, name,
                            counted(name, getattr(mpst.semantics, name)))
    trusted = Session._trusted.__func__
    monkeypatch.setattr(Session, "__init__", counted("Session", Session.__init__))
    monkeypatch.setattr(Session, "_trusted", classmethod(counted("Session", trusted)))
    verdict = fidelity_harness(M, G)
    assert verdict.ok and verdict.divergence is None and verdict.visited == 65
    assert calls["typecheck"] == 1 and calls["session_enabled"] == 0
    assert calls["_explore"] == 1 and calls["Session"] <= 1


def test_fidelity_harness_tells_apart_senders_bound_to_one_output_node(store):
    # a and b are both bound to one `r!a . 0` node; a move memo keyed by the
    # two processes alone would give b the empty move list of a
    G = parse_global("b -> r : a . a -> r : a . end", store=store)
    M = randgen.self_projection(store, G)
    assert M["a"] is M["b"]
    assert _assert_harnesses_agree(M, G, Mode.Standard,
                                   mpst.semantics.DEFAULT_STATE_BOUND) == (True, None, 3)


# ---------------------------------------------------------------------------
# Reference harness: the same breadth-first co-exploration over the
# reference step functions above, checking each successor pair with the
# relaxed typecheck as it was when it ran `well_formed` on every type.

def _ref_relaxed_typecheck(M, G, mode):
    wf = well_formed(G)
    if any(isinstance(v, ProjectionError) for v in wf.projections.values()):
        raise IllFormedGlobalType(G, wf)
    rel = leq if mode is Mode.Standard else leq_plus
    end = G.store.end_process
    failures = [(p, wf.projections.get(p, end), P) for p, P in M.items()
                if not rel(P, wf.projections.get(p, end))]
    missing = [p for p in wf.depths if p not in M]
    return TypingReport(not failures and not missing, failures, missing, mode)


def _ref_fidelity(M, G, mode, bound):
    if not typecheck(M, G, mode).ok:
        raise ValueError("not typed")

    def diverge(kind, action, state, g):
        return FidelityVerdict(False, {"kind": kind, "action": str(action),
                                       "session": print_session(state) or "0",
                                       "global": print_global(g)}, len(visited))

    init = normalize_session(M)
    visited = {(_ref_state_key(init), G.nid)}
    queue = deque([(init, G)])
    while queue:
        state, g = queue.popleft()
        sa = dict(_ref_session_enabled(state))
        ga = dict(_ref_global_enabled(g))
        for action in sorted(set(sa) | set(ga)):
            if action not in sa:
                return diverge("global action unmatched by the session", action, state, g)
            if action not in ga:
                return diverge("session action unmatched by the global type",
                               action, state, g)
            succ, gsucc = normalize_session(sa[action]), ga[action]
            if not _ref_relaxed_typecheck(succ, gsucc, mode).ok:
                return diverge("successors no longer typecheck", action, succ, gsucc)
            key = (_ref_state_key(succ), gsucc.nid)
            if key not in visited:
                if len(visited) == bound:
                    raise StateSpaceBoundExceeded(bound + 1, bound)
                visited.add(key)
                queue.append((succ, gsucc))
    return FidelityVerdict(True, None, len(visited))


def _fidelity_outcome(run, M, G, mode):
    try:
        verdict = run(M, G, mode)
    except StateSpaceBoundExceeded as exc:
        return ("bound", exc.states, exc.bound)
    except ValueError:
        return "not typed"
    return (verdict.ok, verdict.divergence, verdict.visited)


def _assert_harnesses_agree(M, G, mode, bound):
    got = _fidelity_outcome(fidelity_harness, M, G, mode)
    want = _fidelity_outcome(lambda M, G, mode: _ref_fidelity(M, G, mode, bound),
                             M, G, mode)
    assert got == want, (print_session(M), print_global(G), mode)
    return got


def _narrow_outputs(rng, store, P):
    """A process Q with Q <=+ P: each output keeps a nonempty subset of its
    branches."""
    def expand(n):
        if isinstance(n, PEnd):
            return n
        if not isinstance(n, POut):
            return _split(n)
        keep = [br for br in n.branches if rng.random() < 0.6] or [n.branches[0]]
        return ("pout", n.peer, tuple(l for l, _ in keep)), [c for _, c in keep]

    return store.map([P], expand)[0]


@pytest.mark.parametrize("sess_name,gt_name", [
    ("relay.sess", "relay.gt"),
    ("right.sess", "right.gt"),
    ("composed.sess", "composed.gt"),
    ("plus_only.sess", "plus_only.gt"),
    ("counter_left.sess", "counter_left.gt"),
    ("counter_right.sess", "counter_right.gt"),
    ("crossed_left.sess", "crossed_left.gt"),
    ("crossed_right.sess", "crossed_right.gt"),
])
def test_fidelity_matches_the_reference_on_corpus(cx, sess_name, gt_name):
    for mode in Mode:
        _assert_harnesses_agree(cx.sess(sess_name), cx.gt(gt_name), mode,
                                mpst.semantics.DEFAULT_STATE_BOUND)


def test_fidelity_matches_the_reference_on_random_pairs(monkeypatch):
    bound = 200
    monkeypatch.setenv("MPST_STATE_BOUND", str(bound))
    rng = random.Random(17)
    store = NodeStore()
    # every `q -a-> p` step unrolls the loop once more, so both stop at the bound
    G = parse_global("rec X . r -> s : b . q -> p : a . X", store=store)
    assert _assert_harnesses_agree(randgen.self_projection(store, G), G, Mode.Standard,
                                   bound) == ("bound", bound + 1, bound)
    kinds = {}
    pairs = 0
    while pairs < 300:
        G = randgen.random_wf_global(rng, store,
                                     participants=("p", "q", "h", "r")[:rng.randint(2, 4)],
                                     max_nodes=rng.randint(1, 10))
        if G is None:
            continue
        pairs += 1
        M = randgen.self_projection(store, G)
        narrow = M.rebind({p: _narrow_outputs(rng, store, P) for p, P in M.items()})
        for N, mode in ((M, Mode.Standard), (M, Mode.Plus), (narrow, Mode.Plus)):
            ok, divergence, _ = _assert_harnesses_agree(N, G, mode, bound)
            kind = divergence["kind"] if ok is False else ok
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds[True] >= 600 and kinds["bound"] >= 3, kinds
    assert kinds["global action unmatched by the session"] >= 50, kinds


def test_standard_witness_narrows_the_type(cx):
    W = standard_witness(cx.sess("plus_only.sess"), cx.gt("plus_only.gt"))
    assert W is parse_global("p -> q : l1 . end", store=cx.store)
    assert typecheck(cx.sess("plus_only.sess"), W).ok


def test_standard_witness_fixes_self_projections(cx):
    G = cx.gt("relay.gt")
    assert standard_witness(cx.sess("relay.sess"), G) is G


def test_standard_witness_requires_plus_typing(cx, store):
    M = parse_session("p |> q!zz . 0 || q |> p?zz . 0", store=cx.store)
    with pytest.raises(ValueError):
        standard_witness(M, cx.gt("relay.gt"))
