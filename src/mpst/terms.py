"""Surface terms: names, binders, and the graph drafts a term fills.

A term is read front to back, one binder, prefix or variable at a time: from
text by `mpst.parser`, or from nested tuples by `intern_term`.  Both drive a
_TermDrafts, the one place where `let` and `rec` names are resolved; it fills
the draft list of a `core.GraphBuilder` of the store it is given, directly.
This module imports nothing from the rest of the package, and `mpst.core`
re-exports its public names.
"""

from __future__ import annotations

import re

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
# Binder slots and drafts.

class _Slot:
    """A `let` name and its draft."""

    __slots__ = ("name", "draft", "state", "alias", "use")
    # state: 0 = not yet defined, 1 = body being read, 2 = done

    def __init__(self, name, draft, use):
        self.name = name
        self.draft = draft
        self.state = 0
        self.alias = None   # (name, slot) while the body is a bare pending name
        self.use = use      # resolution order of a use before the `let`


class _TermDrafts:
    """The drafts of one term and its `let` equations, filled as they are read.

    Every body is read with a *target*: the draft its binder reserved.  A
    prefix at the head of the body fills the target itself, and a `rec` at
    the head binds its name to the same draft; a branch continuation has no
    target (None), so its prefix reserves a draft of its own.  Values are
    the refs `NodeStore._intern` takes: a draft index, or the end node.

    A `let` name gets its slot at its `let` or at its first use, whichever
    comes first.  A body that is a bare name not yet defined, `let A = B`,
    leaves an alias; `close_defs` chases each alias chain once, in
    definition order.  Unbound variables and unguarded recursion are found
    in resolution order (the equations in order, then the alias chains,
    then the terms), and `error` keeps the first as (order, exception).
    When the `let` names are given up front every failure is raised at
    once, since nothing read later can precede it.
    """

    def __init__(self, store, glob, names=None):
        self.glob = glob
        self.builder = store.builder()
        self.drafts = self.builder._drafts
        self.end = store.end_global if glob else store.end_process
        self._recs = {}         # rec name in scope -> its draft
        self._lets = {}         # let name -> _Slot
        self._aliased = []      # let slots left with an alias, in definition order
        self._current = None    # slot of the `let` whose body is being read
        self._order = 0         # resolution order of the last variable
        self.error = None
        self._eager = names is not None
        self._closed = self._eager   # no `let` can follow
        for name in names or ():
            self._lets[name] = _Slot(name, self.builder.reserve(), None)

    def _fail(self, exc, order=None):
        if self._eager:
            raise exc
        order = self._order if order is None else order
        if self.error is None or order < self.error[0]:
            self.error = (order, exc)
        return self.end

    def let(self, name):
        """Open `let name =`: the draft its body fills, or None when `name`
        is defined already."""
        slot = self._lets.get(name)
        if slot is None:
            slot = self._lets[name] = _Slot(name, self.builder.reserve(), None)
        elif slot.state:
            return None
        slot.state = 1
        self._current = slot
        return slot.draft

    def let_done(self):
        slot, self._current = self._current, None
        slot.state = 2
        if slot.alias is not None:
            self._aliased.append(slot)

    def close_defs(self):
        """No `let` follows: a name used but never defined is unbound, and
        each alias takes the description at the end of its chain."""
        self._closed = True
        for slot in self._lets.values():
            if slot.state == 0:
                self._fail(UnboundVariable(slot.name), slot.use)
        if self.error is not None:
            return
        for slot in self._aliased:
            seen = {slot.name}
            name, target = slot.alias
            while target.alias is not None:
                if name in seen:
                    self._fail(UnguardedRecursion(name))
                    return
                seen.add(name)
                name, target = target.alias
            self.drafts[slot.draft] = self.drafts[target.draft]
            slot.alias = None

    def rec(self, name, target):
        """Open `rec name .`: the draft its body fills, and the binding of
        `name` it shadows, for `unrec`."""
        if target is None:
            target = self.builder.reserve()
        shadowed = self._recs.get(name)
        self._recs[name] = target
        return target, shadowed

    def unrec(self, name, shadowed):
        if shadowed is None:
            del self._recs[name]
        else:
            self._recs[name] = shadowed

    def end_at(self, target):
        if target is None:
            return self.end
        self.builder.fill_copy(target, self.end)
        return target

    def var(self, name, target):
        """Value of a variable read with `target` (None: guarded).

        At the head of a body a variable is unguarded for every `rec` open
        around it, even one that a prefix separates from it, and for the
        `let` being read.
        """
        self._order += 1
        d = self._recs.get(name)
        if d is not None:
            if target is None:
                return d
            return self._fail(UnguardedRecursion(name))
        slot = self._lets.get(name)
        if slot is None:
            if self._closed:
                return self._fail(UnboundVariable(name))
            slot = self._lets[name] = _Slot(name, self.builder.reserve(), self._order)
        if target is None:
            return slot.draft
        if slot is self._current:
            return self._fail(UnguardedRecursion(name))
        if slot.state == 2 and slot.alias is None:   # defined: copy its description
            self.drafts[target] = self.drafts[slot.draft]
            return target
        # not defined yet, or an alias itself: the `let` being read becomes an
        # alias, and a `rec` in a branch stands for the aliased name's draft
        alias = slot.alias or (name, slot)
        cur = self._current
        if cur is not None and cur.draft == target:
            cur.alias = alias
            return target
        return alias[1].draft


def _walk(t, term, target):
    """Drive `t` over a tuple term, depth first with an explicit stack;
    returns the term's value."""
    kinds = ("comm",) if t.glob else ("in", "out")
    frames = []   # (name, shadowed) of an open rec; [term, draft, values] of a prefix
    while True:
        while True:
            tag = term[0]
            if tag == "end":
                value = t.end_at(target)
                break
            if tag == "var":
                value = t.var(term[1], target)
                break
            if tag == "rec":
                _, name, body = term
                target, shadowed = t.rec(name, target)
                frames.append((name, shadowed))
                term = body
                continue
            if tag not in kinds:
                raise TermError(f"unexpected term {term!r}")
            frames.append([term, t.builder.reserve() if target is None else target, []])
            value = None
            break
        while frames:
            frame = frames[-1]
            if frame.__class__ is tuple:
                t.unrec(*frames.pop())
                continue
            term, d, values = frame
            if value is not None:
                values.append(value)
            branches = term[-1]
            if len(values) < len(branches):
                term, target = branches[len(values)][1], None
                break
            frames.pop()
            # fill_in, fill_out or fill_comm, with the names between tag and branches
            getattr(t.builder, "fill_" + term[0])(
                d, *term[1:-1], [(label, v) for (label, _), v in zip(branches, values)])
            value = d
        else:
            return value


def intern_term(store, term, defs=None, glob=False):
    """Tie a surface term (with optional named equations) into a canonical
    graph: a global type if `glob`, else a process.

    Terms are nested tuples:
      ("end",) | ("var", name) | ("rec", name, body)
      | ("in", peer, [(label, term), ...]) | ("out", peer, [(label, term), ...])
      | ("comm", sender, receiver, [(label, term), ...])
    and `defs` maps names to mutually recursive equations (the `let` form).
    """
    defs = defs or {}
    for name in defs:
        check_ident(name, "definition name")
    t = _TermDrafts(store, glob, names=defs)
    for name, body in defs.items():
        _walk(t, body, t.let(name))
        t.let_done()
    t.close_defs()
    return t.builder.intern([_walk(t, term, t.builder.reserve())])[0]
