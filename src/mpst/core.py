"""Canonical graph representations of processes, global types, and sessions.

Behaviours here are regular trees: possibly infinite trees with finitely many
distinct subtrees, encoded as finite node graphs with back-edges.  A NodeStore
hash-conses every node it hands out, so two nodes obtained from the same store
are bisimilar exactly when they are the same object, and all the structural
algorithms in the package lean on that identity.

Interning rests on one fact: the nodes already in a store are canonical.
`NodeStore.map` turns a graph into nodes: the drafts of a `GraphBuilder`,
or the keys of a map from graph to graph, such as a gateway or a global
step.  Keys are resolved children first, one strongly connected component
at a time, by one depth-first search from the roots that keeps Tarjan's
lowlinks (Tarjan, 1972).  A key that is its own component and has no edge to
itself then has canonical children, so it is bisimilar to an existing node
exactly when that node has the same shape and the same child nids; one
store-wide table maps (shape, child nids) to its node (hash-consing after
Filliatre and Conchon, 2006), in O(1) per key.  Any other component
is cyclic.  Shapes are ranked by their per-store code: the store numbers
each distinct shape once, when a cyclic component first meets it.  Most
cyclic components are closed loops of distinct shapes: no child lies
outside the component, and bisimilar units share a shape, so each unit is
its own class, numbered by the rank of its code.  Only a component that
reaches an existing node or repeats a shape is minimised by partition
refinement together with the existing nodes it reaches, which merges each
class bisimilar to one of those; refinement starts from the codes, and
each round numbers its blocks by the rank of their signature, a flat tuple
of ints, among the sorted distinct signatures, so a block id depends only
on which bisimulation classes occur among the units.  A component that
does not merge is looked up by one key, a flat tuple of ints: its new
classes in block order, each as its shape's code and its children's
blocks, a child outside the component by its nid.  An isomorphic copy
already in the store has the same children outside it, so its refinement
met the same classes, with the same codes, and gave them the same blocks:
the same key.  Both paths number blocks by rank, so a closed loop and an
unrolled copy of it, which repeats shapes and is refined, share one key.
The codes are canonical within a store, which is all a key needs.  Nothing
recurses on the size of a term, and only a component that is refined
walks the nodes below it.

A node keeps its hash-cons key and nothing more: its shape, ("pend", ()),
("gend", ()), ("pin" | "pout", peer, labels) or ("gcomm", sender, receiver,
labels), and `kids`, its children in label order.  The labels live only in
the shape, as its last item; `peer`, `sender`, `receiver` and `branches` are
views of the two fields, and a map from graph to graph may hand a node's own
shape to `NodeStore.map`.  Every node also gets its participant set when it
is made: its own names and its children's sets, or for the new classes of a
cyclic component one set they all share, so `participants` reads a field.
"""

from __future__ import annotations

import re
from bisect import bisect_left

Label = str
Participant = str

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = frozenset({"rec", "let", "end"})


class TermError(ValueError):
    """A term violates a structural invariant."""


class UnboundVariable(TermError):
    def __init__(self, name):
        super().__init__(f"unbound recursion variable {name!r}")
        self.name = name


class UnguardedRecursion(TermError):
    def __init__(self, name):
        super().__init__(f"recursion on {name!r} never passes an input or output prefix")
        self.name = name


def check_ident(name, what="identifier"):
    if not isinstance(name, str) or not _IDENT_RE.match(name) or name in _KEYWORDS:
        raise TermError(f"{what} must be an identifier, got {name!r}")
    return name


# ---------------------------------------------------------------------------
# Nodes.  Plain classes with identity semantics; instances are created by the
# store only and are immutable afterwards by convention.  A node's fields are
# its hash-cons key: `shape`, labels last, and `kids`, in label order.  The
# named fields and `branches` ((label, child) pairs, built per read) are views.

class Node:
    __slots__ = ("store", "nid", "_participants", "shape", "kids")
    branches = property(lambda n: tuple(zip(n.shape[-1], n.kids)))


class Process(Node):
    __slots__ = ()


class PEnd(Process):
    __slots__ = ()

    def __repr__(self):
        return "<proc 0>"


class PIn(Process):
    __slots__ = ()
    peer = property(lambda n: n.shape[1])

    def __repr__(self):
        return f"<proc {self.peer}?{{{','.join(self.shape[-1])}}}#{self.nid}>"


class POut(Process):
    __slots__ = ()
    peer = property(lambda n: n.shape[1])

    def __repr__(self):
        return f"<proc {self.peer}!{{{','.join(self.shape[-1])}}}#{self.nid}>"


class GlobalType(Node):
    __slots__ = ()


class GEnd(GlobalType):
    __slots__ = ()

    def __repr__(self):
        return "<global end>"


class GComm(GlobalType):
    __slots__ = ()
    sender = property(lambda n: n.shape[1])
    receiver = property(lambda n: n.shape[2])

    def __repr__(self):
        labels = ",".join(self.shape[-1])
        return f"<global {self.sender}->{self.receiver}:{{{labels}}}#{self.nid}>"


_KINDS = {"pend": PEnd, "pin": PIn, "pout": POut, "gend": GEnd, "gcomm": GComm}


def node_labels(n):
    return n.shape[-1]


def label_index(labels, label):
    """The position of `label` in a node's sorted labels, or None."""
    i = bisect_left(labels, label)
    return i if i < len(labels) and labels[i] == label else None


def node_branch(n, label):
    i = label_index(n.shape[-1], label)
    if i is None:
        raise KeyError(label)
    return n.kids[i]


def branch_pairs(x, y, labels):
    """[(x's child, y's child)] for each of `labels`, in their order; None
    when x or y has no branch for one of them.  One walk: all are sorted."""
    xl, yl = x.shape[-1], y.shape[-1]
    out, i, j = [], 0, 0
    for l in labels:
        while i < len(xl) and xl[i] < l:
            i += 1
        while j < len(yl) and yl[j] < l:
            j += 1
        if i == len(xl) or j == len(yl) or xl[i] != l or yl[j] != l:
            return None
        out.append((x.kids[i], y.kids[j]))
    return out


def _split(n):
    """(shape, children) of a node, its two fields.  Its hash-cons key is the
    shape with the children's nids."""
    return n.shape, n.kids


_NO_NAMES = frozenset()


def _participants_of(names, kids):
    """Participant set of a new node: its own names and its children's sets.

    A child's set that already holds the others and the names is returned
    itself, not copied, so a chain of nodes shares a handful of sets.
    """
    acc = _NO_NAMES
    for c in kids:
        s = c._participants
        if s is not acc and not s <= acc:
            acc = s if acc <= s else acc | s
    return acc if acc.issuperset(names) else acc.union(names)


def _sccs(starts, succ):
    """Strongly connected components of the vertices reachable from
    `starts`, each listed only after every component it reaches (Tarjan,
    1972, with an explicit stack); `succ(v)` lists the successors of v."""
    order = {}               # discovery index; inf once v is in a component
    low = {}
    stack = []
    sccs = []
    inf = float("inf")
    for start in starts:
        if start in order:
            continue
        order[start] = low[start] = len(order)
        stack.append(start)
        work = [(start, iter(succ(start)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in order:
                    order[w] = low[w] = len(order)
                    stack.append(w)
                    work.append((w, iter(succ(w))))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        order[w] = inf
                        scc.append(w)
                        if w == v:
                            break
                    sccs.append(scc)
    return sccs


def _ranks(sigs):
    """Each signature's rank among the sorted distinct signatures, and how
    many distinct signatures there are."""
    rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
    return [rank[s] for s in sigs], len(rank)


def _refine(shapes, children):
    """Block of each unit in the coarsest bisimulation partition: refine the
    partition by shape until the signatures (own block, children's blocks)
    stop splitting it.  Shapes may be any sortable values; `_intern_cycle`
    passes each shape's per-store code.  Each round numbers its blocks by
    the rank of their signature, a flat tuple of ints (units of one block
    share a shape, so the same number of children), so a block id depends
    only on the unit's bisimulation class and on which classes occur among
    the units, not on the units' order.  Once every block is one unit no
    round can split it, and the next would only rank the blocks as they
    are, so that round is not run."""
    block, count = _ranks(shapes)
    while count < len(shapes):
        new, n = _ranks([(block[u], *[block[c] for c in kids])
                         for u, kids in enumerate(children)])
        if n == count:
            break
        block, count = new, n
    return block


# ---------------------------------------------------------------------------
# Store and interning.

class NodeStore:
    """Interning arena for process and global-type nodes.

    Built by a single owner; safe to read from many threads afterwards.
    Besides the hash-cons table it keeps the nodes of each cyclic component
    under the component's key, and the code of each shape that a cyclic
    component has met: shapes are ranked by these per-store codes in
    refinement and in the keys.  The store also hosts memo tables for the
    coinductive relations and for analyses keyed by node identity.
    """

    def __init__(self):
        self._cons = {}           # (shape, child nids) -> node, for every node
        self._cycles = {}         # key of a cyclic component -> its nodes
        self._codes = {}          # shape met in a cyclic component -> its code
        self._count = 0
        self._memos = {}
        self.end_process = self._cons_node(("pend", ()), ())
        self.end_global = self._cons_node(("gend", ()), ())

    def memo(self, name):
        """A named per-store memo table: every cache of the store, keyed by
        node ids, lives in one of these (each coinductive relation's, and the
        analyses' own).  Participant sets need none: each node carries its
        own from creation."""
        table = self._memos.get(name)
        if table is None:
            table = self._memos[name] = {}
        return table

    def builder(self):
        return GraphBuilder(self)

    def comm(self, sender, receiver, branches):
        """One-shot communication node; the children must be nodes already."""
        b = self.builder()
        return b.intern([b.add_comm(sender, receiver, branches)])[0]

    def adopt(self, node):
        """Re-intern a node from another store into this one."""
        if node.store is self:
            return node
        return self.map([node], _split)[0]

    # -- interning pipeline -------------------------------------------------

    def map(self, roots, expand):
        """The node of each of `roots`, keys of a graph that `expand` gives.

        `expand(key)` gives the key's node, a node of this store, or (shape,
        child keys): the key's node then has that shape, laid out as a
        node's (it may be a node's own `shape`; its names must come from
        canonical nodes, as nothing checks them), and the nodes of the
        child keys, in label order, as its children.  It runs once per key
        reached, on the key's first visit.

        Nodes of the store are canonical already, so keys are resolved
        children first, one strongly connected component at a time, by one
        depth-first search from the roots that keeps Tarjan's lowlinks.  A
        key that is not the first of its component waits on a stack with
        its discovery index (Pearce, 2016), so an acyclic key costs what a
        post-order search costs: alone in its component and with no edge to
        itself, it is bisimilar to an existing node exactly when that node
        has the same shape and child nids, one lookup in the hash-cons
        table.  Any other component goes through `_intern_cycle`, listed as
        `_sccs` lists it: by discovery index, last first.
        """
        done = {}        # key -> its lowlink while unresolved, then its node
        waiting = []     # (index, (key, shape, child keys)) finished, in an open component
        cyclic = set()   # keys with an edge to an unresolved key
        frames = [(None, 0, None, None, iter(roots))]
        while frames:
            k, i, shape, kids, it = frames[-1]
            for t in it:
                if t in done:
                    low = done[t]
                    if low.__class__ is int:      # t is unresolved: a cycle
                        done[k] = min(done[k], low)
                        cyclic.add(k)
                    continue
                got = expand(t)
                if got.__class__ is tuple:
                    done[t] = j = len(done)
                    frames.append((t, j, *got, iter(got[1])))
                    break
                done[t] = got
            else:
                frames.pop()
                if not frames:
                    break
                low = done[k]
                if low < i:
                    waiting.append((i, (k, shape, kids)))
                    parent = frames[-1][0]
                    done[parent] = min(done[parent], low)
                elif (waiting and waiting[-1][0] > i) or k in cyclic:
                    j = len(waiting)
                    while j and waiting[j - 1][0] > i:
                        j -= 1
                    scc = [w for _, w in sorted(waiting[j:], reverse=True)]
                    del waiting[j:]
                    self._intern_cycle(scc + [(k, shape, kids)], done)
                elif len(kids) == 1:
                    done[k] = self._cons_node(shape, [done[kids[0]]])
                else:
                    done[k] = self._cons_node(shape, [done[c] for c in kids])
        return [done[t] for t in roots]

    def _cons_node(self, shape, kids):
        """The node of this shape with these children, all nodes of the
        store: found by its shape and child nids, or made.

        Most nodes of a long protocol have one child, so that case builds
        its key without a loop and takes the child's own participant set
        when it already holds the shape's names (its second and its next
        to last item, one name twice for a process).
        """
        if len(kids) == 1:
            kid = kids[0]
            key = (shape, (kid.nid,))
            node = self._cons.get(key)
            if node is not None:
                return node
            names = kid._participants
            if shape[1] not in names or shape[-2] not in names:
                names = names.union(shape[1:-1])
            kids = (kid,)
        else:
            key = (shape, tuple([c.nid for c in kids]))
            node = self._cons.get(key)
            if node is not None:
                return node
            names = _participants_of(shape[1:-1], kids)
            kids = tuple(kids)
        node = self._cons[key] = object.__new__(_KINDS[shape[0]])
        node.store = self
        node.nid = self._count
        self._count += 1
        node._participants = names
        node.shape = shape
        node.kids = kids
        return node

    def _intern_cycle(self, scc, done):
        """Resolve one cyclic component, (key, shape, child keys) triples,
        into `done`.

        A unit's shape is ranked by its code in the store's table, numbered
        once when the store first meets the shape.  Most components are a
        closed loop of distinct shapes: no child lies outside the component,
        and bisimilar units share a shape, so each unit is its own class and
        `_intern_closed` looks the component up by its key alone.  Only a
        component that reaches existing nodes or repeats a shape is refined:
        partition refinement over it and the existing nodes it reaches
        merges every class bisimilar to one of those nodes; the component is
        strongly connected, so either every class merges or none does.  Any
        other existing node bisimilar to a class lies on a cycle that the
        class does not reach; its component is then a copy of the remaining
        classes, with the same children outside it.  Those children reach
        the same existing nodes, so the copy's refinement met the same
        bisimulation classes and, with the same codes, numbered them with
        the same blocks.  The component is therefore looked up by one key, a
        flat tuple of ints: its new classes in block order, each as its
        shape's code and then its children's blocks, an existing child as
        ~nid (a code fixes its shape, so how many children follow it); the
        key maps to the component's nodes in the same order.  Both paths
        number blocks as refinement does, by rank, so a closed loop and an
        unrolled copy of it, which repeats shapes, build one key.  A miss
        makes the nodes in the order of their first unit.
        """
        codes = self._codes
        sigs = [codes.setdefault(shape, len(codes)) for _, shape, _ in scc]
        k = len(scc)
        if len(set(sigs)) == k and self._intern_closed(scc, sigs, done):
            return
        unit = {}
        for u, entry in enumerate(scc):
            unit[entry[0]] = u
        children = []              # unit -> its children's units
        existing = []              # unit k + i -> node, for the existing units
        node_unit = {}             # existing node -> its unit
        for _, _, kids in scc:
            row = []
            for t in kids:
                u = unit.get(t)
                if u is None:
                    n = done[t]
                    u = node_unit.get(n)
                    if u is None:
                        u = node_unit[n] = k + len(existing)
                        existing.append(n)
                row.append(u)
            children.append(row)
        for n in existing:         # grows while it is read
            sigs.append(codes.setdefault(n.shape, len(codes)))
            row = []
            for c in n.kids:
                u = node_unit.get(c)
                if u is None:
                    u = node_unit[c] = k + len(existing)
                    existing.append(c)
                row.append(u)
            children.append(row)
        block = _refine(sigs, children)

        image = {}                 # block -> its node
        for u in range(k, len(block)):
            image[block[u]] = existing[u - k]
        rep = {}                   # block of no existing node -> its first unit
        for u in range(k):
            b = block[u]
            if b not in image and b not in rep:
                rep[b] = u
        if rep:
            order = sorted(rep)
            key = []
            for b in order:
                u = rep[b]
                key.append(sigs[u])
                for c in children[u]:
                    c = block[c]
                    key.append(c if c in rep else ~image[c].nid)
            key = tuple(key)
            nodes = self._cycles.get(key)
            if nodes is None:
                own = []               # the classes' own names
                below = []             # their children outside the component
                for u in rep.values():
                    own += scc[u][1][1:-1]
                    for c in children[u]:
                        if block[c] not in rep:
                            below.append(image[block[c]])
                names = _participants_of(own, below)
                for b, u in rep.items():   # made first, linked once every class has a node
                    shape = scc[u][1]
                    node = image[b] = object.__new__(_KINDS[shape[0]])
                    node.store = self
                    node.nid = self._count
                    self._count += 1
                    node._participants = names
                    node.shape = shape
                cons = self._cons
                for b, u in rep.items():
                    node = image[b]
                    node.kids = kids = tuple([image[block[c]] for c in children[u]])
                    cons[(node.shape, tuple([c.nid for c in kids]))] = node
                nodes = self._cycles[key] = tuple([image[b] for b in order])
            else:
                image.update(zip(order, nodes))
        for u, entry in enumerate(scc):
            done[entry[0]] = image[block[u]]

    def _intern_closed(self, scc, sigs, done):
        """Resolve a component of pairwise distinct shape codes `sigs` into
        `done` if no child lies outside it, and say whether it did.

        Each unit is its own class and reaches no existing node, so it
        merges into none; its blocks are the ranks of the codes, which
        refinement would give it too, and one lookup of the key finds an
        existing copy.  A miss makes the nodes in unit order, with one
        participant set: the units' own names.
        """
        order = sorted(range(len(sigs)), key=sigs.__getitem__)
        block = {}                 # key -> its unit's block
        for b, u in enumerate(order):
            block[scc[u][0]] = b
        key = []
        for u in order:
            key.append(sigs[u])
            for t in scc[u][2]:
                b = block.get(t)
                if b is None:
                    return False
                key.append(b)
        key = tuple(key)
        nodes = self._cycles.get(key)
        if nodes is None:
            names = frozenset([n for _, shape, _ in scc for n in shape[1:-1]])
            made = []
            for _, shape, _ in scc:    # made first, linked once every unit has a node
                node = object.__new__(_KINDS[shape[0]])
                node.store = self
                node.nid = self._count
                self._count += 1
                node._participants = names
                node.shape = shape
                made.append(node)
            nodes = self._cycles[key] = tuple([made[u] for u in order])
            cons = self._cons
            for node, (_, shape, kids) in zip(made, scc):
                node.kids = kids = tuple([nodes[block[t]] for t in kids])
                cons[(shape, tuple([c.nid for c in kids]))] = node
        for t, _, _ in scc:
            done[t] = nodes[block[t]]
        return True


class GraphBuilder:
    """Accumulates a draft node graph, then interns it in one batch.

    Branch targets may be draft indices (for cycles), nodes of the target
    store, or nodes of a foreign store (adopted as they are given).  `intern`
    hands the drafts to `NodeStore.map`, a draft index as its key.
    """

    def __init__(self, store):
        self.store = store
        self._drafts = []

    def reserve(self):
        self._drafts.append(None)
        return len(self._drafts) - 1

    def _ref(self, target):
        """The draft index or node of this store that stands for `target`:
        a foreign node is adopted, and a bool is no draft index."""
        if target.__class__ is int:
            if not 0 <= target < len(self._drafts):
                raise TermError(f"draft reference {target} out of range")
            return target
        if isinstance(target, Node):
            return self.store.adopt(target)
        raise TypeError(f"branch target must be a draft index or node, got {target!r}")

    def fill_in(self, i, peer, branches):
        return self._fill(i, "pin", (peer,), branches)

    def fill_out(self, i, peer, branches):
        return self._fill(i, "pout", (peer,), branches)

    def fill_comm(self, i, sender, receiver, branches):
        return self._fill(i, "gcomm", (sender, receiver), branches)

    def _fill(self, i, kind, names, branches):
        """Fill draft i with the shape (kind, *names, labels), the labels
        sorted and each branch target a node of the kind's sort or a draft."""
        for name in names:
            check_ident(name, "participant")
        if len(names) == 2 and names[0] == names[1]:
            raise TermError(f"{names[0]!r} cannot communicate with itself")
        want = GlobalType if kind == "gcomm" else Process
        out = []
        seen = set()
        for label, target in branches:
            check_ident(label, "label")
            if label in seen:
                raise TermError(f"duplicate branch label {label!r}")
            seen.add(label)
            ref = self._ref(target)
            if ref.__class__ is not int and not isinstance(ref, want):
                raise TermError(f"branch {label!r} targets a node of the wrong kind")
            out.append((label, ref))
        if not out:
            raise TermError("a choice needs at least one branch")
        out.sort(key=lambda item: item[0])
        labels, refs = zip(*out)
        self._drafts[i] = ((kind, *names, labels), refs)
        return i

    def fill_copy(self, i, target):
        """Give draft i the same description as another draft or node."""
        ref = self._ref(target)
        desc = self._drafts[ref] if ref.__class__ is int else _split(ref)
        if desc is None:
            raise TermError("cannot copy an unfilled draft")
        self._drafts[i] = desc
        return i

    def add_in(self, peer, branches):
        return self.fill_in(self.reserve(), peer, branches)

    def add_out(self, peer, branches):
        return self.fill_out(self.reserve(), peer, branches)

    def add_comm(self, sender, receiver, branches):
        return self.fill_comm(self.reserve(), sender, receiver, branches)

    def intern(self, roots):
        drafts = self._drafts

        def expand(t):
            if t.__class__ is not int:
                return t
            if drafts[t] is None:
                raise RuntimeError("interning a reserved but unfilled draft node")
            return drafts[t]

        return self.store.map([self._ref(r) for r in roots], expand)


# ---------------------------------------------------------------------------
# Participants, relations and bisimilarity.

def participants(node):
    """Every participant named anywhere in the regular tree of a node.

    Interning gives each node this set when it makes the node.
    """
    return node._participants


def coinductive_closure(rel, a, b, step, reflexive):
    """Decide a coinductive binary relation on nodes.

    `step(x, y)` returns the child pairs a pair requires, or None if the pair
    fails its structural side conditions.  The required pairs of a pair are
    unique, so membership in the greatest fixpoint is equivalent to local
    consistency of the requirement closure.  When both nodes live in one
    store the verdicts are cached in its memo table `rel`, which maps
    (nid, nid) to a bool; the child pairs stay in the stores of a and b.
    A reflexive relation holds at once when `a is b`.
    """
    if reflexive and a is b:
        return True
    known = a.store.memo(rel) if a.store is b.store else {}
    seen = {(a, b)}
    work = [(a, b)]
    while work:
        x, y = work.pop()
        if reflexive and x is y:
            continue
        hit = known.get((x.nid, y.nid))
        if hit:
            continue
        reqs = None if hit is False else step(x, y)
        if reqs is None:
            known[(x.nid, y.nid)] = known[(a.nid, b.nid)] = False
            return False
        for pair in reqs:
            if pair not in seen:
                seen.add(pair)
                work.append(pair)
    for x, y in seen:
        known[(x.nid, y.nid)] = True
    return True


def bisimilar(a, b):
    """True iff the infinite tree unfoldings of two nodes are identical.

    Within one store that is identity.  Nodes of two stores are adopted into
    a fresh scratch store and compared there, so no store is changed.
    """
    if a.store is b.store:
        return a is b
    scratch = NodeStore()
    return scratch.adopt(a) is scratch.adopt(b)


# ---------------------------------------------------------------------------
# Sessions.

class Session:
    """Finite map from participants to processes (a parallel composition)."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings):
        items = dict(bindings)
        for p, proc in items.items():
            check_ident(p, "participant")
            if not isinstance(proc, Process):
                raise TermError(f"binding for {p!r} is not a process")
            if p in participants(proc):
                raise TermError(f"participant {p!r} communicates with itself")
        self._bindings = dict(sorted(items.items()))

    @classmethod
    def _trusted(cls, bindings):
        """Wrap `bindings` without validating them.

        Only for a session derived from a validated one by moving
        participants to children of their own processes, or by dropping
        bindings: the names were checked already, and a child's participants
        are a subset of its parent's, so no check could fail.  `bindings` is
        a dict sorted by participant and is not copied.
        """
        M = object.__new__(cls)
        M._bindings = bindings
        return M

    @property
    def participants(self):
        return tuple(self._bindings)

    def items(self):
        return tuple(self._bindings.items())

    def __getitem__(self, p):
        return self._bindings[p]

    def get(self, p, default=None):
        return self._bindings.get(p, default)

    def __contains__(self, p):
        return p in self._bindings

    def __len__(self):
        return len(self._bindings)

    def __iter__(self):
        return iter(self._bindings)

    def __eq__(self, other):
        return isinstance(other, Session) and self.items() == other.items()

    def __hash__(self):
        return hash(self.items())

    def __repr__(self):
        inner = " || ".join(f"{p}[{proc!r}]" for p, proc in self.items())
        return f"<session {inner}>"

    def mentioned(self):
        """All participants occurring in the session, bound or as peers."""
        out = set(self._bindings)
        for proc in self._bindings.values():
            out |= participants(proc)
        return frozenset(out)

    def is_final(self):
        return all(isinstance(p, PEnd) for p in self._bindings.values())

    def rebind(self, updates):
        merged = dict(self._bindings)
        merged.update(updates)
        return Session(merged)


def normalize_session(M):
    """Drop terminated bindings; the result is congruent to the input."""
    return Session._trusted({p: proc for p, proc in M.items()
                             if not isinstance(proc, PEnd)})


def sessions_bisimilar(M, N):
    """Equal domains and pairwise bisimilar processes."""
    if M.participants != N.participants:
        return False
    return all(bisimilar(M[p], N[p]) for p in M.participants)
