import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpst.core import NodeStore, bisimilar
from mpst.parser import (DiagKind, ParseDiagnostic, ParseError, SourceSpan,
                         _Lexer, parse_global, parse_process, parse_session,
                         print_global, print_process, print_session)

import randgen
from conftest import CORPUS
from oracles import ref_print_node


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
# regular expression.  Returns the token list or raises ParseError.

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
        if ch.isalpha() or ch == "_":
            end = pos
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
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
    outcomes = []
    for lex in (lambda: _Lexer(text, filename).tokens, lambda: _ref_scan(text, filename)):
        try:
            outcomes.append(lex())
        except ParseError as exc:
            outcomes.append(str(exc))
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
