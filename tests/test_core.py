import gc
import hashlib
import math
import random

import pytest

import mpst.core
from mpst.compose import (NoClauseApplies, ParticipantCollision, compatible,
                          connect_globals, gateway)
from mpst.core import (GComm, GEnd, NodeStore, PEnd, PIn, POut, Session,
                       TermError, bisimilar,
                       node_branch, node_labels, normalize_session,
                       participants,
                       sessions_bisimilar)
from mpst.parser import (parse_global, parse_process, parse_session,
                         print_global, print_process, print_session)
from mpst.semantics import global_enabled, session_enabled, standard_witness
from mpst.typecheck import ProjectionError, leq, project

import randgen
from oracles import ref_intern_cycle, ref_participants


# ---------------------------------------------------------------------------
# Interning.

def test_interning_idempotence_over_corpus(cx):
    for name in cx.names(".proc"):
        P = cx.proc(name)
        assert parse_process(print_process(P), store=cx.store) is P
    for name in cx.names(".gt"):
        G = cx.gt(name)
        assert parse_global(print_global(G), store=cx.store) is G
    for name in cx.names(".sess"):
        M = cx.sess(name)
        N = parse_session(print_session(M), store=cx.store)
        assert M.participants == N.participants
        for p in M.participants:
            assert M[p] is N[p]


def test_interning_collapses_unrolled_recursion(store):
    # two mutually recursive drafts with identical shape fold into one node
    b = store.builder()
    d0, d1 = b.reserve(), b.reserve()
    b.fill_out(d0, "q", [("a", d1)])
    b.fill_out(d1, "q", [("a", d0)])
    unrolled = b.intern([d0, d1])
    rolled = parse_process("rec X . q!a . X", store=store)
    assert unrolled[0] is rolled
    assert unrolled[1] is rolled


def test_same_store_bisimilar_means_identical(store):
    # every pair of 300 random processes, half of them over one peer and two
    # labels so that bisimilar pairs occur
    rng = random.Random(7)
    pool = []
    identical = 0
    for i in range(300):
        if i % 2:
            P = randgen.random_process(rng, store, max_nodes=6)
        else:
            P = randgen.random_process(rng, store, peers=("q",), labels=("a", "b"),
                                       max_nodes=3)
        for Q in pool:
            assert (P is Q) == _naive_bisimilar(P, Q) == bisimilar(P, Q)
            identical += P is Q
        pool.append(P)
    assert identical >= 100


def test_bisim_equivalence_across_stores():
    rng = random.Random(8)
    stores = [NodeStore() for _ in range(3)]
    distinct = 0
    for _ in range(200):
        P = randgen.random_process(rng, stores[0], max_nodes=8)
        Q = stores[1].adopt(P)
        R = stores[2].adopt(Q)
        assert bisimilar(P, P)
        assert bisimilar(P, Q) and bisimilar(Q, P)
        assert bisimilar(Q, R)
        assert bisimilar(P, R)
        # a process drawn independently in another store
        S = randgen.random_process(rng, stores[1], max_nodes=8)
        counts = [s._count for s in stores]
        assert bisimilar(P, S) == bisimilar(S, P) == _naive_bisimilar(P, S)
        assert [s._count for s in stores] == counts  # queries intern nothing
        distinct += not _naive_bisimilar(P, S)
    assert distinct >= 100


def test_bisim_distinguishes(store):
    a = parse_process("q!l . 0", store=store)
    b = parse_process("q!{l . 0, m . 0}", store=store)
    c = parse_process("r!l . 0", store=store)
    d = parse_process("q?l . 0", store=store)
    assert not bisimilar(a, b)
    assert not bisimilar(a, c)
    assert not bisimilar(a, d)
    g = parse_global("p -> q : l . end", store=store)
    h = parse_global("q -> p : l . end", store=store)
    assert not bisimilar(g, h)


def test_participants_stable_under_unfolding(store):
    rng = random.Random(9)
    for _ in range(200):
        P = randgen.random_process(rng, store, max_nodes=8)
        pts = participants(P)
        if isinstance(P, PEnd):
            assert pts == frozenset()
            continue
        # the one-step unfolding equation
        unfolded = {P.peer}
        for _, c in P.branches:
            unfolded |= participants(c)
        assert pts == frozenset(unfolded)
        # and a fresh-store copy sees the same names
        other = NodeStore()
        assert participants(other.adopt(P)) == pts


@pytest.mark.parametrize("proc", [True, False], ids=["process", "global"])
def test_participants_match_the_reference(proc):
    # random terms made in the store or adopted from others, many of them
    # cyclic, so `_intern_cycle` gives their sets
    rng = random.Random(12)
    store = NodeStore()
    make = randgen.random_process if proc else randgen.random_global
    roots = [store.adopt(make(rng, store if rng.random() < 0.6 else NodeStore(),
                              max_nodes=10))
             for _ in range(300)]
    nodes = _reachable(roots)
    for n in nodes:
        assert participants(n) == ref_participants(n), n
    on_cycle = [n for n in nodes
                if n in _reachable([c for _, c in getattr(n, "branches", ())])]
    assert len(on_cycle) >= 200


def test_a_chain_shares_its_participant_sets(store):
    G = parse_global("p -> q : a . q -> r : b . r -> p : c . " * 300 + "end",
                     store=store)
    chain = _reachable([G])
    assert len(chain) == 901
    assert len({id(participants(n)) for n in chain}) <= 3
    # p's projection alternates p!a and p?c: end's set, {r} and {q, r}
    chain = _reachable([project(G, "p")])
    assert len(chain) == 601
    assert len({id(participants(n)) for n in chain}) <= 3


def test_participants_of_projected_and_stepped_nodes_match_the_reference():
    # projection and global steps make their acyclic nodes one at a time,
    # most of them with one child, whose set is the child's own when it
    # holds the node's names and a new union when it does not
    rng = random.Random(31)
    store = NodeStore()
    made = []
    for _ in range(400):
        G = randgen.random_global(rng, store, participants=("p", "q", "r", "s"),
                                  max_nodes=10, branchiness=rng.random())
        for p in sorted(participants(G)):
            P = project(G, p)
            if not isinstance(P, ProjectionError):
                made.append(P)
        made += [succ for _, succ in global_enabled(G)]
    shared = union = 0
    for n in _reachable(made):
        assert participants(n) == ref_participants(n), n
        if len(n.kids) == 1:
            if participants(n) is participants(n.kids[0]):
                shared += 1
            else:
                union += 1
    assert shared >= 200 and union >= 200, (shared, union)


def test_a_node_keeps_few_tracked_objects():
    # every node is one tracked object, and its children one tracked tuple;
    # a second copy of the labels, paired with the children, would add more
    n = 2000
    text = "".join(f"let G{i} = p -> q : a{i % 3} . G{i + 1}\n"
                   for i in range(n)) + f"let G{n} = end\nG0\n"
    store = NodeStore()
    gc.collect()
    objects, count = len(gc.get_objects()), store._count
    G = parse_global(text, store=store)
    gc.collect()
    made = store._count - count
    assert made == n and isinstance(G, GComm)
    assert (len(gc.get_objects()) - objects) / made < 2.5


def test_participants_of_a_global_type(cx):
    assert participants(cx.gt("relay.gt")) == frozenset("pqh")
    assert participants(cx.gt("right.gt")) == frozenset("krs")
    assert participants(cx.store.end_global) == frozenset()


def test_sccs_match_mutual_reachability():
    # random digraphs with self-loops, searched from repeated starts: the
    # components partition the reachable vertices by mutual reachability,
    # and each is listed after every component it reaches
    rng = random.Random(28)
    for _ in range(400):
        n = rng.randint(1, 25)
        succ = {v: [rng.randrange(n) for _ in range(rng.choice((0, 1, 2, 3)))]
                for v in range(n)}
        starts = [rng.randrange(n) for _ in range(rng.randint(1, 4))]

        def reach(vs):
            seen, stack = set(vs), list(vs)
            while stack:
                for w in succ[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            return seen

        below = {v: reach(succ[v]) | {v} for v in reach(starts)}
        sccs = mpst.core._sccs(starts, lambda v: succ[v])
        assert sorted(v for scc in sccs for v in scc) == sorted(below)
        assert ({frozenset(scc) for scc in sccs}
                == {frozenset(w for w in below if v in below[w] and w in below[v])
                    for v in below})
        at = {v: i for i, scc in enumerate(sccs) for v in scc}
        assert all(at[w] <= at[v] for v in below for w in below[v])


def _naive_bisimilar(a, b):
    """Independent oracle: close {(a, b)} under the child pairs each pair
    requires, and check that every pair in the closure agrees on its shape."""
    def look(n):
        if isinstance(n, (PEnd, GEnd)):
            return (type(n),), ()
        ends = (n.sender, n.receiver) if isinstance(n, GComm) else (n.peer,)
        return ((type(n), *ends, *(l for l, _ in n.branches)),
                tuple(c for _, c in n.branches))

    seen = {(a, b)}
    work = [(a, b)]
    while work:
        (sx, kx), (sy, ky) = map(look, work.pop())
        if sx != sy:
            return False
        for pair in zip(kx, ky):
            if pair not in seen:
                seen.add(pair)
                work.append(pair)
    return True


def _intern_checked(b, drafts):
    """Intern drafts and check, with the naive oracle, that each result
    unfolds to the same tree as its draft."""
    nodes = b.intern(drafts)
    seen = set()
    work = list(zip(drafts, nodes))
    while work:
        target, node = work.pop()
        if not isinstance(target, int):
            assert node is target if target.store is b.store else _naive_bisimilar(target, node)
        elif (target, node) not in seen:
            seen.add((target, node))
            (shape, refs), (node_shape, kids) = _desc(b, target), _desc(b, node)
            assert shape == node_shape
            work.extend(zip(refs, kids))
    return nodes


def _desc(b, target):
    """(shape, refs) of a filled draft or of a node, children in label order."""
    return b._drafts[target] if isinstance(target, int) else mpst.core._split(target)


def _fill_like(b, d, n, branches):
    if isinstance(n, GComm):
        b.fill_comm(d, n.sender, n.receiver, branches)
    elif isinstance(n, PIn):
        b.fill_in(d, n.peer, branches)
    else:
        b.fill_out(d, n.peer, branches)


def _random_drafts(rng, store, pool, proc):
    """A few fresh drafts whose branches may also target nodes already in the
    store, interned in one batch.

    A draft targets any draft, or only later ones (an acyclic batch), or
    only later ones but the last, which may point back (so the search can
    finish acyclic drafts before it meets the cycle).  The roots list every
    draft, some twice, and some nodes of the store, in random order.
    """
    b = store.builder()
    drafts = [b.reserve() for _ in range(rng.choice((1, 2, 3, 4, 12, 30)))]
    mode = rng.choice(("any", "forward", "back"))
    for i, d in enumerate(drafts):
        targets = drafts[i + 1:]
        if mode == "any" or (mode == "back" and i == len(drafts) - 1):
            targets = drafts
        branches = [(l, rng.choice(targets) if targets and rng.random() < 0.5
                     else rng.choice(pool))
                    for l in rng.sample(("a", "b"), rng.randint(1, 2))]
        if proc:
            (b.fill_in if rng.random() < 0.3 else b.fill_out)(d, "q", branches)
        else:
            b.fill_comm(d, *rng.choice((("p", "q"), ("q", "p"))), branches)
    roots = drafts + rng.sample(drafts, rng.randint(0, len(drafts)))
    roots += rng.sample(pool, min(len(pool), rng.randint(0, 2)))
    rng.shuffle(roots)
    return _intern_checked(b, roots)


def _unrolled_copy(rng, store, pool, node):
    """Drafts retracing the graph below `node`: unrolled a little, folded back
    onto other drafts or onto the original nodes, now and then redirected to
    a random node so that near misses occur as well as exact copies."""
    if isinstance(node, (PEnd, GEnd)):
        return []
    b = store.builder()
    queue = [(node, b.reserve())]
    twins = {node: [queue[0][1]]}
    budget = rng.randint(1, 6)
    for n, d in queue:
        branches = []
        for label, child in n.branches:
            roll = rng.random()
            if roll < 0.05:
                target = rng.choice(pool)
            elif roll < 0.3 or isinstance(child, (PEnd, GEnd)):
                target = child
            elif child in twins and (roll < 0.7 or len(queue) >= budget):
                target = rng.choice(twins[child])
            elif len(queue) < budget:
                target = b.reserve()
                twins.setdefault(child, []).append(target)
                queue.append((child, target))
            else:
                target = child
            branches.append((label, target))
        _fill_like(b, d, n, branches)
    return _intern_checked(b, [d for _, d in queue])


def _reachable(nodes):
    seen = {}
    stack = list(nodes)
    while stack:
        n = stack.pop()
        if n.nid not in seen:
            seen[n.nid] = n
            stack.extend(c for _, c in getattr(n, "branches", ()))
    return list(seen.values())


def _naive_finite(nodes):
    """{node: no cycle is reachable from it}, by a plain depth-first search
    that marks the nodes on its path."""
    finite = {}

    def search(n, path):
        if n in path:
            return False
        if n not in finite:
            path.add(n)
            finite[n] = all([search(c, path) for _, c in n.branches])
            path.remove(n)
        return finite[n]

    for n in nodes:
        search(n, set())
    return finite


@pytest.mark.parametrize("proc", [True, False], ids=["process", "global"])
@pytest.mark.parametrize("seed", [1, 2])
def test_interning_agrees_with_naive_bisimulation(proc, seed):
    rng = random.Random(seed)
    store = NodeStore()
    pool = [store.end_process if proc else store.end_global]
    folded = []
    for _ in range(150):
        roll = rng.random()
        if roll < 0.25:
            make = randgen.random_process if proc else randgen.random_global
            kwargs = {"peers": ("q",)} if proc else {"participants": ("p", "q")}
            term = make(rng, NodeStore() if rng.random() < 0.3 else store,
                        labels=("a", "b"), max_nodes=5, **kwargs)
            pool.append(store.adopt(term))
        elif roll < 0.55:
            pool.extend(_random_drafts(rng, store, pool, proc))
        else:
            original = rng.choice(pool)
            copies = _unrolled_copy(rng, store, pool, original)
            if copies and copies[0] is original:
                folded.append(original)
            pool.extend(copies)
    # the hard case occurred: a copy of an existing node, and among them a
    # cyclic component merged into the nodes it copies
    finite = _naive_finite(folded)
    assert len(folded) >= 10 and sum(not finite[n] for n in folded) >= 10
    nodes = _reachable(pool)
    for i, a in enumerate(nodes):
        assert participants(a) == ref_participants(a)
        for b in nodes[i + 1:]:
            assert not _naive_bisimilar(a, b), (a, b)


def test_every_node_keeps_its_hash_cons_shape(cx):
    for suffix, load in ((".proc", cx.proc), (".gt", cx.gt), (".sess", cx.sess)):
        for name in cx.names(suffix):
            load(name)
    rng = random.Random(5)
    store = NodeStore()
    for proc in (True, False):
        pool = [store.end_process if proc else store.end_global]
        for _ in range(60):      # batches of drafts, cyclic ones included
            pool.extend(_random_drafts(rng, store, pool, proc))
        make = randgen.random_process if proc else randgen.random_global
        for _ in range(60):
            make(rng, store)
    for s in (cx.store, store):
        nodes = list(s._cons.values())
        assert len(nodes) == s._count
        for n in nodes:
            # a node keeps its key, shape and kids; its branches are a view
            assert type(n.kids) is tuple and len(n.kids) == len(n.shape[-1])
            assert s._cons[(n.shape, tuple(c.nid for c in n.kids))] is n
            assert n.branches == tuple(zip(n.shape[-1], n.kids))
            assert node_labels(n) == n.shape[-1] == tuple(l for l, _ in n.branches)
            assert type(n) is mpst.core._KINDS[n.shape[0]]
            if isinstance(n, GComm):
                assert (n.sender, n.receiver) == n.shape[1:3]
            elif isinstance(n, (PIn, POut)):
                assert n.peer == n.shape[1]
            else:
                assert n.shape[1:] == ((),)
            for field in ("peer", "sender", "receiver"):
                with pytest.raises(AttributeError):
                    setattr(n, field, "x")


def test_node_ids_are_stable(cx):
    # the nids a store hands out are part of its behaviour: a change to the
    # interning search must make the same nodes, with the same ids, in the
    # same order
    store = NodeStore()
    for suffix, parse in ((".proc", parse_process), (".gt", parse_global),
                          (".sess", parse_session)):
        for name in cx.names(suffix):
            parse(cx.text(name), store=store, filename=name)
    rng = random.Random(5)
    for proc in (True, False):
        pool = [store.end_process if proc else store.end_global]
        for _ in range(300):
            pool.extend(_random_drafts(rng, store, pool, proc))
    for _ in range(300):
        randgen.random_process(rng, store)
        randgen.random_global(rng, store)
    for _ in range(200):
        randgen.compatible_global_pair(rng, store)
    assert (store._count, len(store._cycles)) == (6411, 787)
    assert _fingerprint(store) == (
        "03afd24c484adeda5516174c7f514a38bc766ece83e73db8dd8914f2bcbad1dc")


def _fingerprint(store, results=()):
    """sha256 of every node of the store, in nid order, then of `results`."""
    digest = hashlib.sha256()
    for n in sorted(store._cons.values(), key=lambda n: n.nid):
        digest.update(repr((n.nid, n.shape, [c.nid for _, c in n.branches],
                            sorted(n._participants))).encode())
    for r in results:
        digest.update(repr(r).encode())
    return digest.hexdigest()


def test_projection_node_ids_are_stable():
    # projection's nodes are pinned too, cyclic types included: a change to
    # how merges are decided or made must give every node the same id and
    # every error the same kind, message and node
    store = NodeStore()
    rng = random.Random(21)
    results = []
    for i in range(3000):
        names = ("p", "q", "r", "s", "h")[:rng.randint(2, 5)]
        if i % 4 == 3:
            G = parse_global(randgen.random_finite_global_text(
                rng, names, max_nodes=rng.randint(1, 12)), store=store)
        else:
            G = randgen.random_global(rng, store, participants=names,
                                      max_nodes=rng.randint(1, 12),
                                      branchiness=rng.random())
        for p in sorted(participants(G)) + ["zz"]:
            res = project(G, p)
            results.append((G.nid, p, res.nid) if not isinstance(res, ProjectionError)
                           else (G.nid, p, res.kind.value, res.message, res.node.nid))
    assert (store._count, len(store._cycles), len(results)) == (5590, 1051, 10220)
    assert _fingerprint(store, results) == (
        "13e8c046905c9373da17188ed06149f2a2bb6722419afbde97e77fb5b0ed8d7c")


def test_projection_hands_the_kernel_no_bisimilar_units(monkeypatch, store):
    # the merge at h -> q is its member, the root's projection, so it is an
    # alias of that entry and no copy of it reaches the interning kernel
    G = parse_global("rec X . h -> p : {a . X, b . h -> q : b . X}", store=store)
    calls = []
    real = NodeStore._intern_cycle

    def distinct(self, scc, done):
        real(self, scc, done)
        units = [done[key] for key, _, _ in scc]
        assert len(set(units)) == len(units), "bisimilar units folded into one node"
        calls.append(len(units))

    monkeypatch.setattr(NodeStore, "_intern_cycle", distinct)
    P = project(G, "p")
    assert calls == [1]
    assert P is parse_process("rec X . h?{a . X, b . X}", store=store)


def test_map_node_ids_are_stable():
    # the graph-to-graph maps make nodes as well: gateways, global steps,
    # copies from another store, connected global types and standard
    # witnesses must keep every node's id, and every error its kind and
    # message
    store, other = NodeStore(), NodeStore()
    rng = random.Random(22)
    results = []

    def record(tag, f, *args):
        try:
            res = f(*args)
        except (ParticipantCollision, NoClauseApplies, ValueError) as e:
            results.append((tag, type(e).__name__, str(e)))
        else:
            results.append((tag, [(str(a), n.nid) for a, n in res]
                            if isinstance(res, list) else res.nid))

    for _ in range(400):
        P = randgen.random_process(rng, store, max_nodes=rng.randint(1, 10))
        record("gateway", gateway, P, rng.choice(("h", "h", "q")))
        G = randgen.random_global(rng, store, max_nodes=rng.randint(1, 10),
                                  branchiness=rng.random())
        record("step", global_enabled, G)
        make = randgen.random_process if rng.random() < 0.5 else randgen.random_global
        X = make(rng, other, max_nodes=rng.randint(1, 10))
        record("adopt", store.adopt, X)
        record("adopt back", other.adopt, rng.choice((P, G)))
    for _ in range(200):
        pair = randgen.compatible_global_pair(rng, store)
        if pair is not None:
            record("connect", connect_globals, *pair)
    for _ in range(200):
        G = randgen.random_wf_global(rng, store)
        if G is not None:
            record("witness", standard_witness, randgen.self_projection(store, G), G)
    results.append(_fingerprint(other))
    assert (store._count, len(store._cycles), len(results)) == (4151, 1147, 2001)
    assert _fingerprint(store, results) == (
        "cd1820557ca91a8f835eadc3e72ff5b29153bc952fd87c0f07dce29218a8618d")


def test_search_keeps_drafts_it_finished_before_a_cycle(store):
    # the search finishes the acyclic branch `a`, then meets the cycle in `b`
    b = store.builder()
    top = b.reserve()
    tail = b.add_out("q", [("c", store.end_process)])
    chain = b.add_in("q", [("d", tail)])
    loop = b.add_out("p", [("e", top)])
    b.fill_out(top, "p", [("a", chain), ("b", loop)])
    got = _intern_checked(b, [top, chain, loop])
    assert got[0] is parse_process("rec X . p!{a . q?d . q!c . 0, b . p!e . X}",
                                   store=store)
    assert got[1] is parse_process("q?d . q!c . 0", store=store)
    assert got[1].nid < got[0].nid  # children first, as Tarjan's search orders them


@pytest.mark.parametrize("cyclic", [False, True], ids=["acyclic", "after-cycle"])
def test_unfilled_draft_is_an_error(store, cyclic):
    b = store.builder()
    hole = b.reserve()
    if cyclic:
        # the search meets the self-loop before it reaches the hole
        top = b.reserve()
        b.fill_out(top, "p", [("a", top), ("b", hole)])
    else:
        top = b.add_out("p", [("a", store.end_process), ("b", hole)])
    with pytest.raises(RuntimeError, match="unfilled draft"):
        b.intern([top])
    with pytest.raises(TermError, match="cannot copy an unfilled draft"):
        b.fill_copy(b.reserve(), hole)


def test_bool_is_no_draft_reference(store):
    b = store.builder()
    b.reserve()
    with pytest.raises(TypeError, match="draft index or node"):
        b.intern([True])
    with pytest.raises(TypeError, match="draft index or node"):
        b.add_out("p", [("a", False)])
    with pytest.raises(TermError, match="draft reference 7 out of range"):
        b.add_out("p", [("a", 7)])


def test_new_self_loop_folds_onto_existing_cycle(store):
    E = parse_process("rec X . p!{a . X, b . q!c . X}", store=store)
    D = node_branch(E, "b")
    b = store.builder()
    c = b.reserve()
    b.fill_out(c, "p", [("a", c), ("b", D)])
    assert b.intern([c])[0] is E


def test_new_acyclic_draft_over_existing_cycle_is_its_root(store):
    E = parse_process("rec X . p!{a . X, b . q!c . X}", store=store)
    D = node_branch(E, "b")
    b = store.builder()
    assert b.intern([b.add_out("p", [("a", E), ("b", D)])])[0] is E


def test_incremental_interning_has_no_depth_limit(store):
    G = store.end_global
    for _ in range(10 ** 4):
        G = store.comm("p", "q", [("l", G)])
    assert participants(G) == frozenset("pq")
    H = parse_global("p -> q : l . " * 3 + "end", store=store)
    for _ in range(10 ** 4 - 3):
        H = store.comm("p", "q", [("l", H)])
    assert H is G


def test_one_batch_has_no_depth_limit(store):
    # a ring of n classes, one of which leads to a chain of n drafts: the
    # search goes round the ring, then down the chain while the ring is
    # still open; a second root enters the ring half way
    n = 10 ** 4
    b = store.builder()
    ring = [b.reserve() for _ in range(n)]
    chain = [b.reserve() for _ in range(n)]
    for j, d in enumerate(chain):
        b.fill_out(d, "q", [(f"c{j}", chain[j + 1] if j + 1 < n else store.end_process)])
    for k, d in enumerate(ring):
        exits = [("z", chain[0])] if k == 0 else []
        b.fill_out(d, "q", [(f"l{k}", ring[(k + 1) % n])] + exits)
    top, half = b.intern([ring[0], ring[n // 2]])
    nodes = [top]
    while len(nodes) < n:
        nodes.append(node_branch(nodes[-1], f"l{len(nodes) - 1}"))
    assert nodes[n // 2] is half and node_branch(nodes[-1], f"l{n - 1}") is top
    assert len(set(nodes)) == n
    assert len(store._cycles) == 1
    links = [node_branch(top, "z")]
    while len(links) < n:
        links.append(node_branch(links[-1], f"c{len(links) - 1}"))
    nids = [c.nid for c in links]
    assert nids == sorted(nids, reverse=True)     # children first
    assert nids[0] < min(c.nid for c in nodes)


def test_long_cycle_with_distinct_labels(store):
    n = 1000

    def cycle(start):
        b = store.builder()
        drafts = [b.reserve() for _ in range(n)]
        for i in range(n):
            k = (start + i) % n
            b.fill_out(drafts[i], "q", [(f"l{k}", drafts[(i + 1) % n])])
        return b.intern(drafts)

    nodes = cycle(0)
    assert len({n.nid for n in nodes}) == n
    assert node_branch(nodes[-1], f"l{n - 1}") is nodes[0]
    # the component is stored under one key of O(n) entries, not one key
    # per class
    assert len(store._cycles) == 1
    assert sum(len(key) for key in store._cycles) <= 2 * n
    rotated = cycle(7)
    assert rotated == nodes[7:] + nodes[:7]
    assert len(store._cycles) == 1
    assert store.adopt(NodeStore().adopt(nodes[3])) is nodes[3]


def test_long_cycle_with_no_unique_signature(store):
    # the primitive word (!q)^(k-4) ?q ?q !r !r: every shape occurs at least
    # twice, and the whole ring is still stored under one key of O(k)
    # entries, onto which a rotated copy maps
    k = 1000
    word = [("!", "q")] * (k - 4) + [("?", "q")] * 2 + [("!", "r")] * 2
    b, drafts = _ring(store, word, [None] * k)
    nodes = b.intern(drafts)
    assert len(set(nodes)) == k
    assert len(store._cycles) == 1
    assert sum(len(key) for key in store._cycles) <= 2 * k
    b, drafts = _ring(store, word[5:] + word[:5], [None] * k)
    assert b.intern(drafts) == nodes[5:] + nodes[:5]
    assert len(store._cycles) == 1


def _ring(store, word, exits):
    """Drafts of a ring: draft i has shape word[i], a branch `a` to draft
    i + 1 and, where exits[i] is a node, a branch `b` to it."""
    b = store.builder()
    drafts = [b.reserve() for _ in word]
    for i, (kind, peer) in enumerate(word):
        branches = [("a", drafts[(i + 1) % len(word)])]
        if exits[i] is not None:
            branches.append(("b", exits[i]))
        (b.fill_in if kind == "?" else b.fill_out)(drafts[i], peer, branches)
    return b, drafts


def _signatures(nodes):
    """The signature of each node of one cyclic component, computed from the
    nodes: shape, then each child's nid, or -1 for a child inside."""
    inside = set(nodes)
    return [(type(n).__name__, n.peer, node_labels(n),
             tuple(-1 if c in inside else c.nid for _, c in n.branches))
            for n in nodes]


def _copy_in_a_second_batch(rng, store, nodes):
    """Intern a copy of the component `nodes` whose drafts are made in a
    shuffled order; its edges that leave the component keep their nodes."""
    b = store.builder()
    order = rng.sample(nodes, len(nodes))
    draft = {n: b.reserve() for n in order}
    for n in order:
        _fill_like(b, draft[n], n, [(l, draft.get(c, c)) for l, c in n.branches])
    count, keys = store._count, len(store._cycles)
    got = _intern_checked(b, [draft[n] for n in nodes])
    assert store._count == count and len(store._cycles) == keys
    return got


def test_component_folds_onto_a_copy_it_cannot_reach(store):
    # random rings, their exits to `end` or to nodes of earlier rings: each
    # minimal ring is stored under one key, whether or not some signature
    # is unique; a copy interned later, which cannot reach the ring, maps
    # every class onto the ring's nodes
    rng = random.Random(21)
    pool = [store.end_process]
    cases = {True: 0, False: 0}
    for _ in range(150):
        k = rng.randint(2, 9)
        peers = rng.choice(("q", "qr"))     # one peer: signatures repeat more
        word = [(rng.choice("!?"), rng.choice(peers)) for _ in range(k)]
        exits = [rng.choice(pool) if rng.random() < 0.2 else None for _ in range(k)]
        b, drafts = _ring(store, word, exits)
        count, keys = store._count, len(store._cycles)
        nodes = _intern_checked(b, drafts)
        ring = list({n: None for n in nodes})
        if store._count > count:
            assert store._count - count == len(ring)
            sigs = _signatures(ring)
            unique = any(sigs.count(s) == 1 for s in sigs)
            assert len(store._cycles) - keys == 1
            cases[unique] += 1
        assert _copy_in_a_second_batch(rng, store, ring) == ring
        pool.append(rng.choice(ring))
    assert cases[True] >= 60 and cases[False] >= 5
    nodes = _reachable(pool)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            assert not _naive_bisimilar(a, b), (a, b)


def test_component_with_no_unique_signature_gets_one_key(store):
    # rings whose shape words are primitive and use each letter at least
    # twice: minimal, with no unique signature, and still stored under one
    # key
    rng = random.Random(22)
    made = 0
    while made < 40:
        k = rng.randint(4, 12)
        word = [rng.choice((("!", "q"), ("!", "r"), ("?", "q"))) for _ in range(k)]
        if (any(word.count(s) == 1 for s in word)
                or any(k % p == 0 and word == word[p:] + word[:p] for p in range(1, k))):
            continue
        keys = len(store._cycles)
        b, drafts = _ring(store, word, [None] * k)
        ring = _intern_checked(b, drafts)
        if len(store._cycles) == keys:
            continue           # a rotation of a ring made earlier
        made += 1
        assert len(set(ring)) == k
        assert len(store._cycles) - keys == 1
        for i, a in enumerate(ring):
            for c in ring[i + 1:]:
                assert not _naive_bisimilar(a, c)
        assert _copy_in_a_second_batch(rng, store, ring) == ring


def _refine_by_rounds(shapes, children):
    """Partition refinement with no shortcut: rank by shape, then by (own
    block, children's blocks) until a round splits no block."""
    def ranks(sigs):
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        return [rank[s] for s in sigs], len(rank)

    block, count = ranks(shapes)
    while True:
        new, n = ranks([(block[u], tuple(block[c] for c in kids))
                        for u, kids in enumerate(children)])
        if n == count:
            return block
        block, count = new, n


def test_refine_matches_the_full_loop():
    # random units over a small pool of shapes, so some draws have every
    # shape distinct (the shortcut) and others repeat shapes (the rounds);
    # each draw is refined as shape tuples and as the integer codes that
    # `_intern_cycle` passes, numbered in an order unrelated to the tuples'
    rng = random.Random(23)
    pool = [(kind, peer, labels) for kind in ("pin", "pout") for peer in "qr"
            for labels in (("a",), ("a", "b"))]
    codes = dict(zip(pool, rng.sample(range(100), len(pool))))
    distinct = 0
    for _ in range(2000):
        k = rng.randint(1, 8)
        shapes = [rng.choice(pool) for _ in range(k)]
        children = [[rng.randrange(k) for _ in shape[-1]] for shape in shapes]
        distinct += len(set(shapes)) == k
        for units in (shapes, [codes[shape] for shape in shapes]):
            assert mpst.core._refine(units, children) == _refine_by_rounds(units, children)
    assert 200 <= distinct <= 1800


def _kernel_workout(store, seed):
    """Random batches for the interning kernel, as the ids of every node they
    give: drafts of both sorts, rings with exits (some with no unique
    signature), unrolled copies and copies interned again in a shuffled
    order, so components miss, hit an isomorphic copy and merge into
    existing nodes."""
    rng = random.Random(seed)
    nids = []
    for proc in (True, False):
        pool = [store.end_process if proc else store.end_global]
        for _ in range(120):
            roll = rng.random()
            if roll < 0.4:
                got = _random_drafts(rng, store, pool, proc)
            elif roll < 0.7:
                got = _unrolled_copy(rng, store, pool, rng.choice(pool))
            elif proc:
                k = rng.randint(1, 9)
                word = [(rng.choice("!?"), rng.choice("qr")) for _ in range(k)]
                exits = [rng.choice(pool) if rng.random() < 0.3 else None
                         for _ in range(k)]
                b, drafts = _ring(store, word, exits)
                got = _intern_checked(b, drafts)
                got += _copy_in_a_second_batch(rng, store, list(dict.fromkeys(got)))
            else:
                # in nid order: each kernel lists a component's nodes in
                # its own block order
                cyclic = sorted([n for nodes in store._cycles.values() for n in nodes
                                 if isinstance(n, GComm)], key=lambda n: n.nid)
                if not cyclic:
                    continue
                top = rng.choice(cyclic)
                ring = [n for n in _reachable([top]) if top in _reachable([n])]
                got = _copy_in_a_second_batch(rng, store, ring)
            pool.extend(got)
            nids.extend(n.nid for n in got)
    return nids


@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_matches_the_reference(monkeypatch, seed):
    # the same batches into a store with today's kernel and into one with
    # the reference kernel, which ranks the shapes themselves: the same
    # nodes with the same ids, and the same number of component keys
    store = NodeStore()
    got = _kernel_workout(store, seed)
    monkeypatch.setattr(NodeStore, "_intern_cycle", ref_intern_cycle)
    ref = NodeStore()
    assert got == _kernel_workout(ref, seed)
    assert store._count == ref._count > 500
    assert len(store._cycles) == len(ref._cycles) > 50
    assert _fingerprint(store) == _fingerprint(ref)


# ---------------------------------------------------------------------------
# Sessions.

def test_session_rejects_self_communication(store):
    P = parse_process("p!l . 0", store=store)
    with pytest.raises(TermError):
        Session({"p": P})


def test_session_and_rebind_validate_their_input(store):
    M = parse_session("p |> q!l . 0 || q |> p?l . 0", store=store)
    with pytest.raises(TermError):
        M.rebind({"q": parse_process("q!l . 0", store=store)})
    with pytest.raises(TermError):
        M.rebind({"rec": store.end_process})
    with pytest.raises(TermError):
        Session({"not a name": store.end_process})
    with pytest.raises(TermError):
        M.rebind({"p": "q!l . 0"})


def test_session_accessors(cx):
    M = cx.sess("relay.sess")
    assert M.participants == ("h", "p", "q")
    assert "p" in M and "z" not in M
    assert M.get("z") is None
    assert set(M.mentioned()) == {"p", "q", "h"}
    assert not M.is_final()
    ended = M.rebind({p: cx.store.end_process for p in M.participants})
    assert ended.is_final()
    assert M != ended


def test_session_equality_is_node_identity(store):
    # sessions compare by their (participant, node) pairs: the same pairs,
    # bound in either order, are one session
    P = parse_process("q!l . 0", store=store)
    Q = parse_process("p?l . 0", store=store)
    M, N = Session({"p": P, "q": Q}), Session({"q": Q, "p": P})
    assert M == N and hash(M) == hash(N)
    assert normalize_session(Session({"q": Q, "r": store.end_process, "p": P})) == M
    # a bisimilar copy from a second store is another node, so another session
    copy = Session({"p": parse_process("q!l . 0", store=NodeStore()), "q": Q})
    assert sessions_bisimilar(M, copy)
    assert M != copy


def test_normalize_drops_finished_bindings(store):
    M = parse_session("p |> q!l . 0 || q |> p?l . 0 || r |> 0", store=store)
    N = normalize_session(M)
    assert N.participants == ("p", "q")
    assert not sessions_bisimilar(M, N)   # the domains differ in r
    assert sessions_bisimilar(N, parse_session("p |> q!l . 0 || q |> p?l . 0",
                                               store=store))


def test_normalize_preserves_enabled_transitions(store):
    rng = random.Random(10)
    for _ in range(200):
        bindings = {}
        for p in ("p", "q"):
            peers = tuple(x for x in ("p", "q", "r") if x != p)
            bindings[p] = randgen.random_process(rng, store, peers=peers,
                                                 max_nodes=4)
        if rng.random() < 0.5:
            bindings["z"] = store.end_process
        M = Session(bindings)
        before = {(str(a), print_session(normalize_session(s)))
                  for a, s in session_enabled(M)}
        after = {(str(a), print_session(normalize_session(s)))
                 for a, s in session_enabled(normalize_session(M))}
        assert before == after


# ---------------------------------------------------------------------------
# Builder and node helpers.

def test_builder_rejects_duplicate_labels(store):
    b = store.builder()
    with pytest.raises(TermError):
        b.add_out("q", [("l", store.end_process), ("l", store.end_process)])


def test_builder_rejects_empty_choice(store):
    b = store.builder()
    with pytest.raises(TermError):
        b.add_in("q", [])


def test_builder_rejects_self_communication(store):
    b = store.builder()
    with pytest.raises(TermError):
        b.add_comm("p", "p", [("l", store.end_global)])


def test_builder_rejects_kind_confusion(store):
    b = store.builder()
    with pytest.raises(TermError):
        b.add_out("q", [("l", store.end_global)])


def test_node_helpers(cx):
    P = cx.proc("recv_two.proc")
    assert node_labels(P) == ("l", "l2")
    assert isinstance(node_branch(P, "l"), PEnd)
    with pytest.raises(KeyError):
        node_branch(P, "zz")
    assert isinstance(cx.proc("send_one.proc"), POut)
    assert isinstance(P, PIn)


def test_adopt_is_idempotent(cx, store):
    P = cx.proc("relay_h.proc")
    assert cx.store.adopt(P) is P
    Q = store.adopt(P)
    assert Q is not P and Q.store is store
    assert store.adopt(Q) is Q
    assert store.adopt(P) is Q
    assert bisimilar(P, Q)


def test_branches_sorted_by_label(store):
    P = parse_process("q?{m . 0, a . 0, k . 0}", store=store)
    assert node_labels(P) == ("a", "k", "m")
    # label lookups bisect, so every producer of shapes must keep the
    # labels strictly increasing: random terms, gateways, global steps,
    # connected global types and standard witnesses, on every node made
    rng = random.Random(33)
    for _ in range(100):
        gateway(randgen.random_process(rng, store), "g")
        global_enabled(randgen.random_global(rng, store, branchiness=rng.random()))
        pair = randgen.compatible_global_pair(rng, store)
        if pair is not None:
            try:
                connect_globals(*pair)
            except NoClauseApplies:
                pass
        G = randgen.random_wf_global(rng, store)
        if G is not None:
            standard_witness(randgen.self_projection(store, G), G)
    for n in store._cons.values():
        labels = node_labels(n)
        assert all(a < b for a, b in zip(labels, labels[1:])), n


class _CountedLabel(str):
    """A label that counts the comparisons and hashes made with it."""
    count = 0

    def __hash__(self):
        _CountedLabel.count += 1
        return str.__hash__(self)

    def _counted(compare):
        def counted(self, other):
            _CountedLabel.count += 1
            return compare(self, other)
        return counted

    __eq__, __ne__ = _counted(str.__eq__), _counted(str.__ne__)
    __lt__, __gt__ = _counted(str.__lt__), _counted(str.__gt__)
    del _counted


def test_wide_choices_compare_labels_n_log_n_times(store):
    # label lookups in a 10^4-label choice: a scan per label compares about
    # n^2/2 = 5 * 10^7 times, and a dict of the labels built per lookup
    # hashes as often; a bisection per label or one merge walk compares
    # O(n log n) times (sorting the global step's candidates included)
    n = 10 ** 4

    def branches(end, skip=None):
        return [(_CountedLabel(f"l{i}"), end) for i in range(n) if i != skip]

    b = store.builder()
    roots = [b.add_out("q", branches(store.end_process)),
             b.add_in("p", branches(store.end_process)),
             b.add_in("p", branches(store.end_process, skip=n // 2)),
             b.add_comm("r", "s", [("a", b.add_comm("p", "q", branches(store.end_global)))]),
             b.add_comm("p", "h", branches(store.end_global)),
             b.add_comm("k", "r", branches(store.end_global))]
    out, into, narrower, G, left, right = b.intern(roots)

    def comparisons(f, *args):
        _CountedLabel.count = 0
        result = f(*args)
        assert _CountedLabel.count <= 8 * n * math.log2(n), (f.__name__, _CountedLabel.count)
        return result

    assert comparisons(compatible, out, into)
    assert comparisons(leq, into, narrower)
    assert comparisons(gateway, out, "h").shape == ("pin", "h", node_labels(out))
    assert len(comparisons(global_enabled, G)) == n + 1
    # each label is forwarded h -> k and then routed k -> r: two lookups
    joined = comparisons(connect_globals, left, "h", right, "k")
    assert joined.shape == ("gcomm", "p", "h", node_labels(left))


# ---------------------------------------------------------------------------
# NodeStore.map.

def test_map_ties_cycles(store):
    # keys are positions on a ring of three outputs; key 3 closes the ring
    def expand(i):
        return ("pout", "q", (f"l{i}",)), ((i + 1) % 3,)

    ring = store.map([0, 1, 2], expand)
    assert ring[0] is parse_process("rec X . q!l0 . q!l1 . q!l2 . X", store=store)
    assert ring[1:] == [node_branch(ring[0], "l0"), node_branch(ring[1], "l1")]
    assert node_branch(ring[2], "l2") is ring[0]


def test_map_passes_nodes_through_and_expands_each_key_once(store):
    end = store.end_process
    expanded = []

    def expand(key):
        expanded.append(key)
        if key == "end":
            return end
        return ("pin", "p", ("a", "b")), ("end", "leaf" if key == "top" else "end")

    top, leaf, got_end = store.map(["top", "leaf", "end"], expand)
    assert expanded == ["top", "end", "leaf"]
    assert got_end is end
    assert leaf is parse_process("p?{a . 0, b . 0}", store=store)
    assert top is parse_process("p?{a . 0, b . p?{a . 0, b . 0}}", store=store)


def test_map_has_no_depth_limit(store):
    n = 10 ** 4

    def expand(i):
        return store.end_global if i == n else (("gcomm", "p", "q", ("l",)), (i + 1,))

    G = store.map([0], expand)[0]
    for _ in range(n):
        G = node_branch(G, "l")
    assert isinstance(G, GEnd)
