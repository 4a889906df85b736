import random
import sys

import pytest

from mpst.core import (NodeStore, PEnd, Session, TermError, bisimilar,
                       participants)
from mpst.parser import parse_global, parse_process
from mpst.typecheck import (DepthValue, IllFormedGlobalType, Mode,
                            ProjectionError, ProjectionErrorKind, _typing_faults,
                            depth, leq, leq_plus, project, typecheck,
                            well_formed)

import randgen
from oracles import ref_depth_raw, ref_leq, ref_leq_plus


# ---------------------------------------------------------------------------
# Depth.

def test_depth_values_on_running_example(cx):
    G = cx.gt("relay.gt")
    assert depth(G, "p") == DepthValue.finite(0)
    assert depth(G, "q") == DepthValue.finite(0)
    assert depth(G, "h") == DepthValue.finite(1)
    assert str(depth(G, "h")) == "1"


def test_depth_of_absent_participant_is_zero(cx):
    assert depth(cx.gt("relay.gt"), "zz") == DepthValue.finite(0)


def test_unbounded_depth(cx):
    G = cx.gt("unbounded.gt")
    d = depth(G, "r")
    assert not d.is_finite
    assert str(d) == "inf"
    assert DepthValue.finite(10 ** 9) < d


def test_depth_has_no_recursion_limit(store):
    # 10^4 communications between p and q, then the only one involving r
    G = store.comm("q", "r", [("l", store.end_global)])
    for _ in range(10 ** 4):
        G = store.comm("p", "q", [("l", G)])
    assert depth(G, "r") == DepthValue.finite(10 ** 4)
    assert depth(G, "p") == DepthValue.finite(0)


def test_depth_matches_the_reference_on_random_types():
    # every reachable node of random globals over 2-5 participants, for each
    # participant and one that never occurs
    rng = random.Random(8)
    names = ("a", "b", "c", "d", "e")
    pairs = infinite = deep = 0
    for _ in range(1000):
        store = NodeStore()
        pts = names[:rng.randint(2, 5)]
        G = randgen.random_global(rng, store, participants=pts, max_nodes=14,
                                  branchiness=rng.random())
        seen, stack = {G}, [G]
        while stack:
            n = stack.pop()
            for p in pts + ("zz",):
                want = ref_depth_raw(n, p)
                assert depth(n, p) == want, (n, p)
                pairs += 1
                infinite += not want.is_finite
                deep += want.is_finite and want.value >= 2
            for _, c in getattr(n, "branches", ()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
    assert pairs >= 10000 and infinite >= 100 and deep >= 200, (pairs, infinite, deep)


def test_depth_value_ordering():
    assert DepthValue.finite(1) < DepthValue.finite(2) < DepthValue.infinite()
    assert DepthValue.infinite() <= DepthValue.infinite()
    assert DepthValue.finite(3).to_json() == 3
    assert DepthValue.infinite().to_json() == "inf"


@pytest.mark.parametrize("other", [3, None])
def test_depth_value_does_not_order_against_other_types(other):
    with pytest.raises(TypeError):
        DepthValue.finite(1) < other
    with pytest.raises(TypeError):
        other >= DepthValue.infinite()
    with pytest.raises(TypeError):
        sorted([DepthValue.finite(1), other])


# ---------------------------------------------------------------------------
# Projection.

def test_projection_reproduces_golden_processes(cx):
    G = cx.gt("relay.gt")
    assert project(G, "p") is cx.proc("relay_p.proc")
    assert project(G, "q") is cx.proc("relay_q.proc")
    assert project(G, "h") is cx.proc("relay_h.proc")
    assert project(G, "zz") is cx.store.end_process


@pytest.mark.parametrize("text,who,kind", [
    ("p -> q : {l1 . r -> s : a . end, l2 . end}", "r",
     ProjectionErrorKind.MixedShapes),
    ("p -> q : {l1 . s -> r : a . end, l2 . t -> r : a . end}", "r",
     ProjectionErrorKind.DifferentInputSenders),
    ("p -> q : {l1 . s -> r : a . end, l2 . s -> r : {b . end, a . s -> r : c . end}}",
     "r", ProjectionErrorKind.OverlappingInputLabels),
    ("p -> q : {l1 . r -> s : a . end, l2 . r -> s : b . end}", "r",
     ProjectionErrorKind.UnequalContinuations),
    ("p -> q : {l1 . s -> r : a . end, l2 . s -> r : {a . s -> r : b . end}}",
     "r", ProjectionErrorKind.UnequalContinuations),
    # the x1 and x2 members project alike but are distinct members, so the
    # labels overlap: a merge is told its members by node, not by projection
    ("let A = s -> r : a . end\nq -> p : {x1 . p -> q : y . A, x2 . A, x3 . s -> r : b . end}",
     "r", ProjectionErrorKind.OverlappingInputLabels),
])
def test_projection_error_kinds(store, text, who, kind):
    G = parse_global(text, store=store)
    err = project(G, who)
    assert isinstance(err, ProjectionError)
    assert err.kind is kind
    assert who in str(err)
    assert err.to_json()["error"] == kind.value


@pytest.mark.parametrize("name", ["", "1p", "end", "p q", None, ["p"]])
def test_projection_checks_the_name_after_a_memo_hit(cx, name):
    G = cx.gt("relay.gt")
    assert project(G, "p") is cx.proc("relay_p.proc")  # G's projections are cached
    with pytest.raises(TermError):
        project(G, name)


def test_projection_merges_disjoint_inputs(store):
    G = parse_global(
        "p -> q : {l1 . s -> r : a . end, l2 . s -> r : b . end}", store=store)
    assert project(G, "r") is parse_process("s?{a . 0, b . 0}", store=store)


def test_projection_through_inflight_merge_cycle(store):
    # the merge for r feeds off cells that are still being projected; the
    # consistent reading resolves to a plain output loop
    G = parse_global("rec X . p -> q : {a . r -> q : m . X, b . X}",
                     store=store)
    P = project(G, "r")
    assert P is parse_process("rec X . q!m . X", store=store)
    assert not well_formed(G).ok  # the b-cycle never involves r


def test_projection_rejects_contradictory_merge_cycle(store):
    # regression: this used to crash the deferred-merge resolution
    G = parse_global("""
    h -> p : {a . q -> h : a . end,
              b . rec X0 . p -> h : {b . rec X1 .
                    p -> q : {a . X0, b . p -> q : a . X1, c . q -> h : a . end},
                  c . end}}
    """, store=store)
    err = project(G, "h")
    assert isinstance(err, ProjectionError)


def _merge_chain(k, last="x"):
    """k merges for p, each waiting on the next, the last on itself."""
    eqs = [f"let M{i} = q -> r : {{a{i} . p -> q : x . M{i - 1 if i > 1 else k}, "
           f"b{i} . {f'p -> q : {last} . M{k}' if i == k else f'M{i + 1}'}}}\n"
           for i in range(1, k + 1)]
    return "".join(eqs) + "M1\n"


def test_projection_decides_a_merge_chain_in_linear_work(store, monkeypatch):
    # Each merge waits on the next one, which a list-order sweep of the
    # pending merges meets one sweep later: k sweeps, k^2/2 tries to decide
    # a merge, each one call of `_merge`.
    reads = []
    module = sys.modules["mpst.typecheck"]
    merge = module._merge
    monkeypatch.setattr(module, "_merge",
                        lambda *args: reads.append(1) or merge(*args))
    k = 300
    G = parse_global(_merge_chain(k), store=store)
    assert project(G, "p") is parse_process("rec X . q!x . X", store=store)
    assert len(reads) <= 10 * k
    # the failing merge named is the one the sweeps meet first: Mk
    err = project(parse_global(_merge_chain(k, last="y"), store=store), "p")
    assert err.kind is ProjectionErrorKind.UnequalContinuations
    assert [label for label, _ in err.node.branches] == [f"a{k}", f"b{k}"]


def test_projection_never_crashes_on_arbitrary_types(store):
    rng = random.Random(12)
    for _ in range(500):
        G = randgen.random_global(rng, store, max_nodes=10)
        for who in ("p", "q", "h", "zz"):
            res = project(G, who)
            assert isinstance(res, (ProjectionError, PEnd)) or res.store is store


def test_projection_totality_on_well_formed_corpus(cx):
    for name in cx.names(".gt"):
        G = cx.gt(name)
        report = well_formed(G)
        if not report.ok:
            continue
        for p in sorted(participants(G)) + ["fresh"]:
            assert not isinstance(project(G, p), ProjectionError)


def test_projection_commutes_with_unfolding(cx):
    # a fresh store re-interns the same regular tree; projections agree
    for name in cx.names(".gt"):
        G = cx.gt(name)
        other = NodeStore()
        H = other.adopt(G)
        for p in participants(G):
            a, b = project(G, p), project(H, p)
            if isinstance(a, ProjectionError):
                assert isinstance(b, ProjectionError) and a.kind is b.kind
            else:
                assert bisimilar(a, b)


def test_the_package_attribute_typecheck_is_the_function():
    # the package imports the function `typecheck`, which rebinds the
    # attribute that would name the module; the module stays reachable
    # through sys.modules and `from mpst.typecheck import ...`
    import mpst
    import mpst.typecheck as T
    module = sys.modules["mpst.typecheck"]
    assert T is mpst.typecheck is typecheck
    assert not hasattr(T, "_merge")
    assert module.typecheck is typecheck and module.project is project
    assert callable(module._merge)


# ---------------------------------------------------------------------------
# Preorders.

def test_leq_examples(store):
    wide_in = parse_process("q?{a . 0, b . 0}", store=store)
    narrow_in = parse_process("q?a . 0", store=store)
    one_out = parse_process("q!a . 0", store=store)
    two_out = parse_process("q!{a . 0, b . 0}", store=store)
    assert leq(wide_in, narrow_in)
    assert not leq(narrow_in, wide_in)
    assert not leq(one_out, two_out)
    assert not leq(two_out, one_out)
    assert leq_plus(one_out, two_out)
    assert not leq_plus(two_out, one_out)
    assert leq(store.end_process, store.end_process)
    assert not leq(store.end_process, one_out)
    assert not leq(one_out, wide_in)


def test_leq_is_contained_in_leq_plus(store):
    rng = random.Random(13)
    for _ in range(300):
        P = randgen.random_process(rng, store)
        Q = randgen.weaken(rng, store, P)
        assert leq(P, Q) and leq_plus(P, Q)
        R = randgen.random_process(rng, store)
        if leq(P, R):
            assert leq_plus(P, R)


@pytest.mark.parametrize("seed", [1, 2])
def test_leq_relations_match_the_reference(seed):
    # related pairs (weaken, widen_plus), unrelated ones, and unrelated ones
    # over one peer and two labels so that some hold; each pair both ways,
    # within one store and with one side copied into another store
    rng = random.Random(seed)
    store, other = NodeStore(), NodeStore()

    def small():
        return randgen.random_process(rng, store, peers=("q",), labels=("a", "b"),
                                      max_nodes=3)

    verdicts = {}
    for _ in range(120):
        P = randgen.random_process(rng, store, max_nodes=6)
        for a, b in ((P, randgen.weaken(rng, store, P)),
                     (P, randgen.widen_plus(rng, store, P)),
                     (P, randgen.random_process(rng, store, max_nodes=6)),
                     (small(), small())):
            for x, y in ((a, b), (b, a), (a, other.adopt(b)), (other.adopt(a), b)):
                for lib, ref in ((leq, ref_leq), (leq_plus, ref_leq_plus)):
                    got = lib(x, y)
                    assert got == ref(x, y), (lib.__name__, print_process(x),
                                              print_process(y))
                    key = lib.__name__, got
                    verdicts[key] = verdicts.get(key, 0) + 1
    assert len(verdicts) == 4 and min(verdicts.values()) >= 100, verdicts


def test_leq_recurses_through_cycles(store):
    P = parse_process("rec X . q?{a . X, b . X}", store=store)
    Q = parse_process("rec X . q?a . X", store=store)
    assert leq(P, Q)
    assert not leq(Q, P)


# ---------------------------------------------------------------------------
# Well-formedness and typing.

def test_well_formed_reports(cx):
    good = well_formed(cx.gt("relay.gt"))
    assert good.ok and good.failures() == []
    bad = well_formed(cx.gt("unbounded.gt"))
    assert not bad.ok
    assert any(p == "r" and "depth" in cause for p, cause in bad.failures())
    js = bad.to_json()
    assert set(js) == {"ok", "depths", "projections", "failures"}
    assert js["depths"]["r"] == "inf"


def test_self_typing_of_corpus_pairs(cx):
    for sess_name, gt_name in (("relay.sess", "relay.gt"),
                               ("right.sess", "right.gt"),
                               ("right.sess", "right.gt"),
                               ("composed.sess", "composed.gt")):
        if not cx.path(sess_name).exists():
            continue
        report = typecheck(cx.sess(sess_name), cx.gt(gt_name))
        assert report.ok, (sess_name, report.failures, report.missing)


def test_typing_tolerates_finished_extras(cx):
    M = cx.sess("relay.sess").rebind({"z": cx.store.end_process})
    assert typecheck(M, cx.gt("relay.gt")).ok


def test_typing_reports_missing_participant(cx):
    M = cx.sess("relay.sess")
    smaller = Session({p: M[p] for p in M.participants if p != "h"})
    report = typecheck(smaller, cx.gt("relay.gt"))
    assert not report.ok
    assert report.missing == ["h"]


def test_typing_failure_lists_offender(cx, store):
    M = cx.sess("relay.sess")
    broken = M.rebind({"p": parse_process("q?zzz . 0", store=cx.store)})
    report = typecheck(broken, cx.gt("relay.gt"))
    assert not report.ok
    offenders = [p for p, _, _ in report.failures]
    assert offenders == ["p"]
    js = report.to_json()
    assert set(js) == {"ok", "mode", "failures", "missing"}


def test_typing_modes_differ_on_width_example(cx):
    M, G = cx.sess("plus_only.sess"), cx.gt("plus_only.gt")
    assert not typecheck(M, G, Mode.Standard).ok
    assert typecheck(M, G, Mode.Plus).ok


def test_typing_requires_a_session(cx):
    M = cx.sess("relay.sess")
    with pytest.raises(TypeError, match="expected a Session"):
        typecheck(dict(M.items()), cx.gt("relay.gt"))


def test_typing_rejects_ill_formed_type(cx):
    with pytest.raises(IllFormedGlobalType) as info:
        typecheck(cx.sess("relay.sess"), cx.gt("unbounded.gt"))
    assert info.value.report.ok is False


def test_relaxed_typing_ignores_unbounded_depth(cx):
    # every projection of unbounded.gt is defined; only r's depth is unbounded
    G = cx.gt("unbounded.gt")
    wf = well_formed(G)
    assert [p for p, _ in wf.failures()] == ["r"]
    assert not any(isinstance(v, ProjectionError) for v in wf.projections.values())
    M = Session({"p": wf.projections["p"],
                 "q": parse_process("p?l1 . 0", store=cx.store)})
    with pytest.raises(IllFormedGlobalType):
        typecheck(M, G)
    for mode in Mode:
        assert list(_typing_faults(M, G, mode)) == [
            ("q", wf.projections["q"], M["q"]), ("r", wf.projections["r"], None)]


def test_relaxed_typing_rejects_an_undefined_projection(store):
    G = parse_global("p -> q : {l1 . r -> s : a . end, l2 . end}", store=store)
    M = Session({"p": parse_process("q!{l1 . 0, l2 . 0}", store=store)})
    with pytest.raises(IllFormedGlobalType) as strict:
        typecheck(M, G)
    with pytest.raises(IllFormedGlobalType) as relaxed:
        next(_typing_faults(M, G, Mode.Standard))
    for info in (strict, relaxed):
        assert info.value.report == well_formed(G)
        assert str(info.value) == "global type is not well formed (offending: r, s)"


def test_depth_decrease_under_root_steps(cx):
    # communications strictly lower the depth of uninvolved participants
    G = cx.gt("relay.gt")
    for label, cont in G.branches:
        for r in participants(G) - {G.sender, G.receiver}:
            after = depth(cont, r) if not isinstance(cont, PEnd) else DepthValue.finite(0)
            assert depth(G, r) > after
