import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpst.core import NodeStore, TermError, bisimilar
from mpst.parser import (DiagKind, ParseDiagnostic, ParseError, SourceSpan, _scan,
                         _tokens, parse_global, parse_process, parse_session,
                         print_global, print_process, print_session)

import randgen
from conftest import CORPUS
from oracles import ref_parse_global, ref_parse_process, ref_parse_session, ref_print_node


def test_round_trip_whole_corpus(cx):
    other = NodeStore()
    for name in cx.names(".proc"):
        P = cx.proc(name)
        assert bisimilar(parse_process(print_process(P), store=other), P)
    for name in cx.names(".gt"):
        G = cx.gt(name)
        assert bisimilar(parse_global(print_global(G), store=other), G)
    for name in cx.names(".sess"):
        M = cx.sess(name)
        N = parse_session(print_session(M), store=other)
        assert M.participants == N.participants
        for p in M.participants:
            assert bisimilar(M[p], N[p])


def test_corpus_parses_without_diagnostics(cx):
    # loading every file through the fixture is the assertion
    for suffix, load in ((".proc", cx.proc), (".gt", cx.gt), (".sess", cx.sess)):
        for name in cx.names(suffix):
            load(name)


def test_print_is_deterministic(cx):
    G = cx.gt("composed.gt")
    text = print_global(G)
    assert text == print_global(G)
    again = parse_global(text, store=NodeStore())
    assert print_global(again) == text
    assert "X0" in text  # stable recursion-variable naming


@pytest.mark.parametrize("bad", [
    "",
    "p!",
    "p -> p : l . end",
    "rec X . X",
    "rec X . rec Y . X",
    "p!{l . 0, l . 0}",
    "q?{} ",
    "p!{l} . 0",            # continuations belong inside the braces
    "let A = 0",            # missing final term
    "p |> 0 || p |> 0",     # duplicate binding
    "p |> q!l . 0 |",
    "X",                    # unbound variable
    "p -> q : l . X",
])
def test_rejects_with_spanned_diagnostic(bad):
    for parse in (parse_process, parse_global, parse_session):
        try:
            parse(bad, store=NodeStore())
        except ParseError as exc:
            d = exc.diagnostic
            assert isinstance(d.kind, DiagKind)
            assert d.message
            assert 1 <= d.span.line <= bad.count("\n") + 1
            assert d.span.column >= 1
            assert str(d.span) in str(exc)
        else:
            continue
        return
    pytest.fail(f"no parser rejected {bad!r}")


def test_unguarded_recursion_has_its_own_kind():
    with pytest.raises(ParseError) as info:
        parse_process("rec X . X", store=NodeStore())
    assert "guard" in str(info.value).lower() or "rec" in str(info.value).lower()


@pytest.mark.parametrize("text, expected", [
    ("rec X . p!a . rec Y . X", "rec X0 . p!a . X0"),
    ("let A = p!a . rec Y . A\nA", "rec X0 . p!a . X0"),
    ("rec X . p!a . rec Y . q!b . rec Z . Y", "p!a . rec X0 . q!b . X0"),
    ("rec X . rec Y . X",
     "<proc>:1:5: UnguardedRec: recursion on 'X' never passes an input or output prefix"),
    ("let A = rec Y . A\nA",
     "<proc>:1:5: UnguardedRec: recursion on 'A' never passes an input or output prefix"),
])
def test_a_prefix_guards_a_variable_from_every_binder_before_it(text, expected):
    # A variable at the head of a body is unguarded only for the binders
    # opened since the last prefix, in the reader and in its reference.
    for parse in (parse_process, ref_parse_process):
        try:
            got = print_process(parse(text, store=NodeStore()))
        except ParseError as exc:
            got = str(exc)
        assert got == expected, parse


def test_forward_references_between_lets(store):
    M = parse_session("""
    # forward use of B before its definition
    let A = q!go . B
    let B = q?back . A
    p |> A || q |> rec X . p?go . p!back . X
    """, store=store)
    assert M.participants == ("p", "q")


def test_comments_and_whitespace(store):
    P = parse_process("""
    # leading comment
    q ! { a . 0 ,   # trailing comment
          b . q?x . 0 }
    """, store=store)
    assert print_process(P) == "q!{a . 0, b . q?x . 0}"


def test_session_with_end_binding(store):
    M = parse_session("p |> 0 || q |> p!l . 0", store=store)
    assert M.participants == ("p", "q")


def test_print_parse_identity_on_random_nodes(store):
    rng = random.Random(11)
    for _ in range(300):
        P = randgen.random_process(rng, store)
        assert parse_process(print_process(P), store=store) is P
        G = randgen.random_global(rng, store)
        assert parse_global(print_global(G), store=store) is G


def test_printer_matches_the_recursive_reference(cx):
    nodes = [(cx.proc(name), False) for name in cx.names(".proc")]
    nodes += [(cx.gt(name), True) for name in cx.names(".gt")]
    rng = random.Random(13)
    store = NodeStore()
    for _ in range(500):
        nodes.append((randgen.random_process(rng, store, max_nodes=10), False))
        nodes.append((randgen.random_global(rng, store, max_nodes=10), True))
    for node, glob in nodes:
        text = (print_global if glob else print_process)(node)
        assert text == ref_print_node(node, glob)
        assert (parse_global if glob else parse_process)(text, store=node.store) is node


def test_printer_has_no_depth_limit(store):
    n = 10 ** 4
    G = store.end_global
    for i in range(n):
        G = store.comm("p", "q", [(f"l{i % 2}", G)])
    assert print_global(G) == "".join(
        f"p -> q : l{i % 2} . " for i in reversed(range(n))) + "end"
    # a loop at the bottom gets its binder after n frames
    loop = parse_process("rec X . q!{a . X, b . 0}", store=store)
    P = loop
    for i in range(n):
        b = store.builder()
        P = b.intern([b.add_out("q", [(f"l{i % 2}", P)])])[0]
    assert print_process(P) == "".join(
        f"q!l{i % 2} . " for i in reversed(range(n))) + "rec X0 . q!{a . X0, b . 0}"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="pqrs!?{}.,|<->_ \n\trecletX0end:", max_size=60))
def test_parser_is_total_over_token_soup(text):
    for parse in (parse_process, parse_global, parse_session):
        try:
            parse(text, store=NodeStore())
        except ParseError:
            pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40))
def test_parser_is_total_over_bytes_decoded(raw):
    text = raw.decode("utf-8", "replace")
    try:
        parse_global(text, store=NodeStore())
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# Reference lexer: the character-at-a-time scanner that preceded the single
# regular expression, with identifiers narrowed to the documented ASCII
# `[A-Za-z_][A-Za-z0-9_]*`.  Returns the token list or raises ParseError.

_REF_PUNCT = ("->", "|>", "||", "!", "?", "{", "}", ".", ",", ":", "=", "0")


def _ref_scan(text, filename):
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while pos < len(text) and text[pos] != "\n":
                pos += 1
            continue
        start_line, start_col = line, col
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            end = pos
            while end < len(text) and text[end].isascii() and (
                    text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            tokens.append((word if word in ("rec", "let", "end") else "ident",
                           word, start_line, start_col))
            col += end - pos
            pos = end
            continue
        for p in _REF_PUNCT:
            if text.startswith(p, pos):
                tokens.append((p, p, start_line, start_col))
                pos += len(p)
                col += len(p)
                break
        else:
            raise ParseError(ParseDiagnostic(SourceSpan(filename, start_line, start_col),
                                             DiagKind.Syntax, f"unexpected character {ch!r}"))
    tokens.append(("eof", "", line, col))
    return tokens


def _lex_both(text, filename="<fuzz>"):
    """The outcomes of `_scan` and of the reference scanner, as (token,
    line, column) lists or error messages; also checks that the tokens a
    parse reads, without positions, are the ones `_scan` finds."""
    outcomes = []
    for lex in (lambda: _scan(text, filename),
                lambda: [tok[1:] for tok in _ref_scan(text, filename)]):
        try:
            outcomes.append(lex())
        except ParseError as exc:
            outcomes.append(str(exc))
    tokens = _tokens(text)
    if isinstance(outcomes[0], str):
        assert "" in tokens[:-1]  # the parse stops at the unexpected character
    else:
        assert tokens == [tok for tok, _, _ in outcomes[0]]
    return outcomes


def test_lexer_matches_reference_on_corpus():
    for path in sorted(CORPUS.iterdir()):
        new, ref = _lex_both(path.read_text(), path.name)
        assert new == ref, path.name


_FUZZ_PIECES = (
    " ", "  ", "\t", "\r", "\n", "\r\n", "# note", "#", "# ->{}\t",
    "p", "q", "rec", "let", "end", "X0", "_x", "a_1", "recx", "0abc", "00",
    "é", "ñ_2", "²", "x²", "٣", "x٣", "一", "Ⅻ", "1", "9x", "$", "\x0b", " ",
    "->", "|>", "||", "!", "?", "{", "}", ".", ",", ":", "=", "0", "-", "|", ">", "<",
)


def test_lexer_matches_reference_on_fuzz():
    rng = random.Random(23)
    errors = 0
    for _ in range(50000):
        text = "".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.2:
            text += rng.choice(("#", "# tail", "\n# tail", "#\n"))
        new, ref = _lex_both(text)
        assert new == ref, repr(text)
        errors += isinstance(ref, str)
    assert 5000 < errors < 45000  # both outcomes are well represented


# ---------------------------------------------------------------------------
# The one-pass reader against the parser that preceded it (tests/oracles.py).
# Both give the same node, or the same diagnostic: kind, span, message and
# subject.  The one documented difference: identifiers are ASCII, so a
# non-ASCII letter or digit, which the old lexer took into a name, is now an
# unexpected character at its own line and column.

_PARSERS = ((parse_process, ref_parse_process), (parse_global, ref_parse_global),
            (parse_session, ref_parse_session))


def _outcome(parse, text, store, filename):
    try:
        return parse(text, store=store, filename=filename)
    except ParseError as exc:
        return exc.diagnostic
    except TermError as exc:  # the old parser, on a participant such as "é"
        return str(exc)


def _same_parse(text, store, filename="<fuzz>", parsers=_PARSERS):
    """Check each parser against its reference on `text`; returns a Counter
    of "parsed", the diagnostic kinds, and "non-ASCII" (the documented
    difference)."""
    seen = Counter()
    for parse, ref in parsers:
        new = _outcome(parse, text, store, filename)
        old = _outcome(ref, text, store, filename)
        if new == old:
            seen[new.kind.value if isinstance(new, ParseDiagnostic) else "parsed"] += 1
            continue
        assert isinstance(new, ParseDiagnostic) and new.kind is DiagKind.Syntax, (text, new, old)
        ch = new.message.removeprefix("unexpected character ")[1:-1]
        assert len(ch) == 1 and ch in text and not ch.isascii() and ch.isalnum(), \
            (text, new, old)
        seen["non-ASCII"] += 1
    return seen


def test_reader_matches_the_reference_parser_on_corpus():
    store = NodeStore()
    for path in sorted(CORPUS.iterdir()):
        assert not _same_parse(path.read_text(), store, path.name)["non-ASCII"], path.name


def test_reader_matches_the_reference_parser_on_fuzz():
    rng = random.Random(23)
    store = NodeStore()
    seen = Counter()
    for _ in range(50000):
        text = "".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.2:
            text += rng.choice(("#", "# tail", "\n# tail", "#\n"))
        seen += _same_parse(text, store)
    assert seen["parsed"] > 100 and seen["UnboundVar"] > 1000 and seen["non-ASCII"] > 1000


def test_reader_matches_the_reference_parser_on_random_terms():
    rng = random.Random(29)
    store = NodeStore()
    for _ in range(500):
        P = randgen.random_process(rng, store, max_nodes=8)
        Q = randgen.random_process(rng, store, max_nodes=8)
        G = randgen.random_global(rng, store, max_nodes=8)
        for text in (print_process(P), print_global(G),
                     f"a |> {print_process(P)} || b |> {print_process(Q)}"):
            assert not _same_parse(text, store)["non-ASCII"]


def _random_source(rng, kind):
    """Random text in the grammar, over few names, so that binders shadow,
    definitions repeat, and variables are often unbound or unguarded."""
    names = ("A", "B", "X")
    stop = "end" if kind == "gt" else "0"

    def term(depth):
        r = rng.random()
        if depth > 3 or r < 0.3:
            return rng.choice((*names, stop))
        if r < 0.45:
            return f"rec {rng.choice(names)} . {term(depth + 1)}"
        if kind == "gt":
            sender, receiver = rng.sample("pqr", 2) if rng.random() < 0.95 else "pp"
            head = f"{sender} -> {receiver} : "
        else:
            head = rng.choice("pqr") + rng.choice("!?")
        labels = rng.sample("abc", rng.choice((1, 1, 2, 3)))
        if rng.random() < 0.05:
            labels.append(labels[0])
        branches = [label + (f" . {term(depth + 1)}" if rng.random() < 0.8 else "")
                    for label in labels]
        return head + (branches[0] if len(branches) == 1 and rng.random() < 0.7
                       else "{" + ", ".join(branches) + "}")

    defined = rng.sample(names, rng.randint(0, 3))
    if defined and rng.random() < 0.05:
        defined.append(defined[0])
    lets = "".join(f"let {name} = {term(0)}\n" for name in defined)
    if kind == "sess":
        return lets + " || ".join(f"{rng.choice('pqr')} |> {term(0)}"
                                  for _ in range(rng.randint(1, 3)))
    return lets + term(0)


def test_reader_matches_the_reference_parser_on_grammar_fuzz():
    rng = random.Random(31)
    store = NodeStore()
    seen = Counter()
    for _ in range(3000):
        for kind, parsers in zip(("proc", "gt", "sess"), _PARSERS):
            seen += _same_parse(_random_source(rng, kind), store, parsers=[parsers])
    assert seen["parsed"] > 500
    assert all(seen[kind.value] > 100 for kind in DiagKind), seen


def test_non_ascii_identifier_is_an_unexpected_character():
    with pytest.raises(ParseError) as info:
        parse_global("p -> q : go .\nq -> p : {ok, é}\n", filename="FILE")
    assert str(info.value) == "FILE:2:15: Syntax: unexpected character 'é'"


def test_session_interns_all_bindings_in_one_batch(monkeypatch):
    store = NodeStore()
    batches = []
    search = NodeStore.map

    def counted(self, roots, expand):
        batches.append(len(roots))
        return search(self, roots, expand)

    monkeypatch.setattr(NodeStore, "map", counted)
    M = parse_session("""
    let A = b!x . B
    let B = c?y . A
    let C = rec X . d!{x . X, y . A}
    p |> A || q |> B || r |> C || s |> rec Y . A || t |> d!z . C || u |> 0
    """, store=store)
    assert batches == [6]
    assert M.participants == ("p", "q", "r", "s", "t", "u")
    assert M["p"] is M["s"] and M["u"] is store.end_process
