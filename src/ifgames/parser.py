"""Concrete syntax: formulas, structures, chance strategies, games, profiles,
events.

Formula grammar (ASCII, ``#`` comments):

    forall x BODY          exists y/{x,t} BODY      chance x BODY
    A \\/ B    A \\/{x} B    A /\\ B    A /\\{x} B    A >< B    A -> B
    ~A         R(t1,...,tk)    x = y    x != y    x = y = z    z = x != y

``->`` desugars to ``~A \\/ B`` and ``~`` is pushed to literals immediately,
so parsed formulas are always in negation normal form.  Quantifier scope is
greedy (extends as far right as possible); a parenthesized quantifier like
``(exists y/{x})`` acts as a prefix to the formula after it.  Equality
chains of up to three terms are single literals.  Numerals always denote
universe elements; an alphabetic name is a variable when it is quantified
or slashed somewhere in the sentence, and a constant symbol otherwise,
which the structure reads as a constant, a 0-ary function or an element
(``Structure.element``).  An application takes at least one argument, so
``c()`` is not a term.

Conditioning events (``not``, ``and``, ``or`` over relation atoms and
equality chains of any length) are compiled by ``parse_event`` as they are
parsed, into a test of a terminal's quantifier moves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EventError,
    GameError,
    NatureStrategyError,
    ParseError,
    ProfileError,
    StructureError,
)
from .formula import (
    And,
    App,
    ChainAtom,
    ChanceOr,
    ChanceQ,
    Const,
    Exists,
    Forall,
    Formula,
    Literal,
    Or,
    RelAtom,
    Term,
    Var,
    implies,
    negate,
)
from .game import (
    DEFAULT_NODE_CAP,
    EXIST,
    NATURE,
    UNIV,
    ExtensiveGame,
    build_semantic_game,
)
from .strategy import (
    BehavioralStrategy,
    MixedStrategy,
    ReducedStrategy,
    embedded_nature,
    own_reachable_closure,
    uniform_dists,
)
from .structure import Structure, chain_test, relation_test

_QUANT_KEYWORDS = ("forall", "exists", "chance")


# ----------------------------------------------------------------- tokens

@dataclass(frozen=True)
class _Token:
    kind: str  # op | name | num | eof
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<op>\\/|/\\|->|><|!=|[()\{\},/=~\#\[\]@]|\|)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<num>[0-9]+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, hash_is_op: bool = False) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "comment" and hash_is_op:
            # in event syntax '#' is the binding-index marker, not a comment
            kind, chunk = "op", "#"
            m_end = pos + 1
        else:
            m_end = m.end()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = text.count("\n", pos, m_end)
        if newlines:
            line += newlines
            col = m_end - text.rfind("\n", pos, m_end)
        else:
            col += m_end - pos
        pos = m_end
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token], variables: frozenset[str] = frozenset()):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables  # the names a sentence's terms read as Var

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text and self.peek().kind != "eof":
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def error(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)


# --------------------------------------------------------- formula parsing

def parse_formula(src: str) -> Formula:
    """Parse one sentence; implications desugared, negation pushed inward."""
    tokens = _tokenize(src)
    ts = _TokenStream(tokens, _bound_variables(tokens))
    phi = _implication(ts)
    if ts.peek().kind != "eof":
        ts.error(f"trailing input starting at {ts.peek().text!r}")
    return phi


def _bound_variables(tokens: list[_Token]) -> frozenset[str]:
    """The names a quantifier binds or a slash set lists, anywhere in the
    sentence.  The name after a quantifier keyword is its variable, even
    when it is itself a keyword (``forall chance ...``)."""
    bound: set[str] = set()
    in_slash = after_keyword = False
    for tok in tokens:
        if tok.kind != "name":
            # braces occur only around slash sets
            in_slash = tok.text == "{" or (in_slash and tok.text != "}")
            after_keyword = False
        elif in_slash or after_keyword:
            bound.add(tok.text)
            after_keyword = False
        else:
            after_keyword = tok.text in _QUANT_KEYWORDS
    return frozenset(bound)


def _implication(ts: _TokenStream) -> Formula:
    left = _disjunction(ts)
    if ts.accept("->"):
        right = _implication(ts)
        return implies(left, right)
    return left


def _disjunction(ts: _TokenStream) -> Formula:
    left = _conjunction(ts)
    while True:
        if ts.peek().text == "\\/":
            ts.next()
            slash = _slash_set(ts, after_connective=True)
            right = _conjunction(ts)
            left = Or(left, right, slash)
        elif ts.peek().text == "><":
            ts.next()
            right = _conjunction(ts)
            left = ChanceOr(left, right)
        else:
            return left


def _conjunction(ts: _TokenStream) -> Formula:
    left = _prefix(ts)
    while ts.peek().text == "/\\":
        ts.next()
        slash = _slash_set(ts, after_connective=True)
        right = _prefix(ts)
        left = And(left, right, slash)
    return left


def _slash_set(ts: _TokenStream, after_connective: bool = False) -> frozenset[str]:
    if after_connective:
        if ts.peek().text != "{":
            return frozenset()
    else:
        if not ts.accept("/"):
            return frozenset()
    ts.expect("{")
    names: set[str] = set()
    if ts.peek().text != "}":
        while True:
            tok = ts.next()
            if tok.kind != "name":
                raise ParseError("slash sets hold variable names", tok.line, tok.col)
            names.add(tok.text)
            if not ts.accept(","):
                break
    ts.expect("}")
    return frozenset(names)


def _quantifier_head(ts: _TokenStream) -> tuple[str, str, frozenset[str]]:
    kw = ts.next().text
    var_tok = ts.next()
    if var_tok.kind != "name":
        raise ParseError("quantifier needs a variable name", var_tok.line, var_tok.col)
    if kw == "chance":
        if ts.peek().text == "/":
            ts.error("chance quantifiers take no slash set")
        return kw, var_tok.text, frozenset()
    return kw, var_tok.text, _slash_set(ts)


def _make_quantifier(kw: str, var: str, slash: frozenset[str], body: Formula) -> Formula:
    if kw == "forall":
        return Forall(var, slash, body)
    if kw == "exists":
        return Exists(var, slash, body)
    return ChanceQ(var, body)


def _prefix(ts: _TokenStream) -> Formula:
    tok = ts.peek()
    if tok.text == "~":
        ts.next()
        return negate(_prefix(ts))
    if tok.kind == "name" and tok.text in _QUANT_KEYWORDS:
        kw, var, slash = _quantifier_head(ts)
        return _make_quantifier(kw, var, slash, _implication(ts))
    if tok.text == "(":
        if ts.peek(1).kind == "name" and ts.peek(1).text in _QUANT_KEYWORDS:
            ts.next()
            kw, var, slash = _quantifier_head(ts)
            if ts.accept(")"):
                # prefix form: (exists y/{x}) BODY
                return _make_quantifier(kw, var, slash, _implication(ts))
            body = _implication(ts)
            ts.expect(")")
            return _make_quantifier(kw, var, slash, body)
        ts.next()
        inner = _implication(ts)
        ts.expect(")")
        return inner
    return _atom(ts)


def _term(ts: _TokenStream) -> Term:
    tok = ts.next()
    if tok.kind == "num":
        return Const(tok.text)
    if tok.kind != "name":
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)
    if ts.peek().text == "(":
        ts.next()
        args: list[Term] = [_term(ts)]
        while ts.accept(","):
            args.append(_term(ts))
        ts.expect(")")
        return App(tok.text, tuple(args))
    return Var(tok.text) if tok.text in ts.variables else Const(tok.text)


def _atom(ts: _TokenStream) -> Formula:
    tok = ts.peek()
    if tok.kind not in ("name", "num"):
        ts.error(f"expected a formula, found {tok.text or 'end of input'!r}")
    terms = [_term(ts)]
    if isinstance(terms[0], App) and ts.peek().text not in ("=", "!="):
        # an application that opens no equality chain is a relation atom
        return Literal(RelAtom(terms[0].func, terms[0].args))
    rels: list[str] = []
    while ts.peek().text in ("=", "!="):
        if len(terms) == 3:
            ts.error("chain literals hold at most three terms")
        rels.append(ts.next().text)
        terms.append(_term(ts))
    if not rels:
        ts.error("a bare term is not a formula")
    return Literal(ChainAtom(tuple(terms), tuple(rels)))


# ------------------------------------------------------- formula formatting

def _format_term(term: Term) -> str:
    if isinstance(term, (Var, Const)):
        return term.name
    return f"{term.func}({','.join(_format_term(a) for a in term.args)})"


def _format_atom(lit: Literal) -> str:
    atom = lit.atom
    if isinstance(atom, RelAtom):
        body = f"{atom.name}({','.join(_format_term(a) for a in atom.args)})"
        return body if lit.positive else f"~{body}"
    parts = [_format_term(atom.terms[0])]
    for rel, term in zip(atom.rels, atom.terms[1:]):
        parts.append(rel)
        parts.append(_format_term(term))
    body = " ".join(parts)
    return body if lit.positive else f"~({body})"


def _slash_text(slash: frozenset[str]) -> str:
    if not slash:
        return ""
    return "/{" + ",".join(sorted(slash)) + "}"


def format_formula(phi: Formula) -> str:
    """Canonical text; ``parse_formula(format_formula(phi))`` equals ``phi``."""
    return _fmt(phi, "top")


def _fmt(phi: Formula, ctx: str) -> str:
    if isinstance(phi, Literal):
        body = _format_atom(phi)
        return body if ctx == "top" else f"({body})"
    if isinstance(phi, (Exists, Forall, ChanceQ)):
        if isinstance(phi, ChanceQ):
            head = f"chance {phi.var}"
        else:
            kw = "exists" if isinstance(phi, Exists) else "forall"
            head = f"{kw} {phi.var}{_slash_text(phi.slash)}"
            if phi.slash:
                head = f"({head})"
        text = f"{head} {_fmt(phi.body, 'qbody')}"
        return f"({text})" if ctx == "left" else text
    if isinstance(phi, ChanceOr):
        return f"({_fmt(phi.left, 'left')} >< {_fmt(phi.right, 'right')})"
    op = "\\/" if isinstance(phi, Or) else "/\\"
    slash = "" if not phi.slash else "{" + ",".join(sorted(phi.slash)) + "}"
    return f"({_fmt(phi.left, 'left')} {op}{slash} {_fmt(phi.right, 'right')})"


# --------------------------------------------------------------- structures

def _data_lines(src: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _parse_tuples(body: str, lineno: int) -> list[tuple[str, ...]]:
    tuples = []
    rest = body.strip()
    while rest:
        m = re.match(r"\(([^)]*)\)\s*", rest)
        if not m:
            raise ParseError(f"expected a tuple, found {rest!r}", lineno, 1)
        items = tuple(x.strip() for x in m.group(1).split(",")) if m.group(1).strip() else ()
        tuples.append(items)
        rest = rest[m.end():]
    return tuples


def parse_structure(src: str) -> Structure:
    """Read a ``.struct`` file: universe, relations, constants, functions."""
    universe: tuple[str, ...] | None = None
    relations: dict[str, tuple[int, frozenset[tuple[str, ...]]]] = {}
    constants: dict[str, str] = {}
    functions: dict[str, tuple[int, dict[tuple[str, ...], str]]] = {}
    for lineno, line in _data_lines(src):
        head, _, rest = line.partition(" ")
        if head == "universe":
            if universe is not None:
                raise ParseError("universe declared twice", lineno, 1)
            universe = tuple(rest.split())
            if len(set(universe)) != len(universe):
                raise ParseError("duplicate universe element", lineno, 1)
        elif head == "rel":
            m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)/([0-9]+)\s*:\s*(.*)$", rest)
            if not m:
                raise ParseError("malformed rel line (want rel Name/k: (a,b) ...)",
                                 lineno, 1)
            name, arity = m.group(1), int(m.group(2))
            if name in relations:
                raise ParseError(f"relation {name} declared twice", lineno, 1)
            tuples = _parse_tuples(m.group(3), lineno)
            for tup in tuples:
                if len(tup) != arity:
                    raise ParseError(
                        f"relation {name}/{arity} given a {len(tup)}-tuple", lineno, 1)
            relations[name] = (arity, frozenset(tuples))
        elif head == "const":
            m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)$", rest)
            if not m:
                raise ParseError("malformed const line (want const name = element)",
                                 lineno, 1)
            name = m.group(1)
            if name in constants:
                raise ParseError(f"constant {name} declared twice", lineno, 1)
            if name in functions and functions[name][0] == 0:
                raise ParseError(
                    f"{name} is both a constant and a 0-ary function", lineno, 1)
            constants[name] = m.group(2)
        elif head == "func":
            m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)/([0-9]+)\s*:\s*(.*)$", rest)
            if not m:
                raise ParseError("malformed func line", lineno, 1)
            name, arity = m.group(1), int(m.group(2))
            if name in functions:
                raise ParseError(f"function {name} declared twice", lineno, 1)
            if arity == 0 and name in constants:
                raise ParseError(
                    f"{name} is both a constant and a 0-ary function", lineno, 1)
            table: dict[tuple[str, ...], str] = {}
            for entry in m.group(3).split(";"):
                entry = entry.strip()
                if not entry:
                    continue
                em = re.match(r"(\([^)]*\))\s*->\s*(\S+)$", entry)
                if not em:
                    raise ParseError("malformed func entry (want (a,b) -> c)", lineno, 1)
                [key] = _parse_tuples(em.group(1), lineno)
                if key in table:
                    raise ParseError(
                        f"function {name} maps ({','.join(key)}) twice", lineno, 1)
                table[key] = em.group(2)
            functions[name] = (arity, table)
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno, 1)
    if universe is None:
        raise ParseError("structure has no universe line", 1, 1)
    try:
        return Structure(universe, relations, constants, functions)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


# ------------------------------------------------------- chance strategies

def _parse_fraction(text: str, lineno: int) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad probability {text!r}", lineno, 1) from exc
    if value < 0:
        raise ParseError(f"negative probability {text}", lineno, 1)
    return value


@dataclass
class _NatureRule:
    key: str  # variable name or occurrence label for chance-or points
    guard: dict[str, str]
    masses: dict[str, Fraction]
    lineno: int


def _parse_nature_rules(src: str) -> list[_NatureRule]:
    rules = []
    for lineno, line in _data_lines(src):
        for part in line.split(";"):
            part = part.strip()
            if not part:
                continue
            head, sep, body = part.partition(":")
            if not sep:
                raise ParseError("malformed rule (want var [| guard] : v -> p, ...)",
                                 lineno, 1)
            key, _, guard_text = head.partition("|")
            key = key.strip()
            guard: dict[str, str] = {}
            if guard_text.strip():
                for conj in re.split(r"[,&]", guard_text):
                    gm = re.match(r"\s*([A-Za-z_][A-Za-z0-9_']*)\s*=\s*(\S+)\s*$", conj)
                    if not gm:
                        raise ParseError(f"malformed guard {conj.strip()!r}", lineno, 1)
                    guard[gm.group(1)] = gm.group(2)
            masses: dict[str, Fraction] = {}
            for item in body.split(","):
                im = re.match(r"\s*(\S+)\s*->\s*(\S+)\s*$", item)
                if not im:
                    raise ParseError(f"malformed mass entry {item.strip()!r}", lineno, 1)
                if im.group(1) in masses:
                    raise ParseError(f"value {im.group(1)} listed twice", lineno, 1)
                masses[im.group(1)] = _parse_fraction(im.group(2), lineno)
            rules.append(_NatureRule(key, guard, masses, lineno))
    return rules


def parse_nature_strategy(src: str, game: ExtensiveGame):
    """Read a ``.nat`` file against a built game.

    Each rule fixes the distribution of one chance variable (or, keyed by
    ``@occurrence``, one chance-or point; in a ``.game`` file, one chance
    node's ``info=`` label), optionally guarded by values of variables
    assigned earlier in the history.  A rule whose key names no chance
    point of the game raises :class:`NatureStrategyError`; a guard that
    matches no history is allowed.  Decision points no rule covers default
    to the uniform distribution.
    """
    rules = _parse_nature_rules(src)
    keys = {node: game.info_label[node] for node in game.chance_nodes()}
    known = set(keys.values())
    for rule in rules:
        if rule.key not in known:
            raise NatureStrategyError(
                f"rule at line {rule.lineno} is keyed by {rule.key!r}, which "
                f"names no chance point of the game"
            )
    dists = uniform_dists(game)
    for node, key in keys.items():
        actions = game.actions(node)
        assignment = dict(game.bindings(node))
        chosen: _NatureRule | None = None
        for rule in rules:
            if rule.key != key:
                continue
            for var in rule.guard:
                if var not in assignment:
                    raise NatureStrategyError(
                        f"rule at line {rule.lineno} tests {var}, which is not yet "
                        f"assigned at that decision point"
                    )
            if all(assignment[v] == val for v, val in rule.guard.items()):
                chosen = rule
                break
        if chosen is None:
            continue
        for value in chosen.masses:
            if value not in actions:
                raise NatureStrategyError(
                    f"rule at line {chosen.lineno} mentions {value!r}, not an "
                    f"available action at that decision point"
                )
        probs = tuple(chosen.masses.get(a, Fraction(0)) for a in actions)
        if sum(probs, Fraction(0)) != 1:
            raise NatureStrategyError(
                f"rule at line {chosen.lineno}: probabilities do not sum to 1"
            )
        dists[node] = probs
    return BehavioralStrategy(game, dists)


# ------------------------------------------------------------- game files

def parse_extensive_game(src: str, node_cap: int = DEFAULT_NODE_CAP) -> ExtensiveGame:
    """Read a ``.game`` file: one node per line, two-space indentation.

    Internal nodes carry ``player=`` and ``info=``; non-root nodes carry the
    ``action=`` that leads to them; terminals carry ``win=``; children of
    chance nodes carry ``p=``.  A node of I or II joins the set ``@info[]``,
    and a node past ``node_cap`` raises :class:`BudgetError`.
    """
    game = ExtensiveGame(node_cap=node_cap)
    player_codes = {"I": EXIST, "II": UNIV, "chance": NATURE}
    # stack of (depth, node id); node ids per depth
    stack: list[tuple[int, int]] = []
    chance_probs: dict[int, list[Fraction]] = {}
    declared: set[tuple[int, str]] = set()  # (parent, action) pairs
    for lineno, raw in enumerate(src.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        if indent % 2:
            raise ParseError("indentation must be a multiple of two spaces", lineno, 1)
        depth = indent // 2
        fields = {}
        for item in stripped.split():
            key, sep, value = item.partition("=")
            if not sep:
                raise ParseError(f"malformed field {item!r}", lineno, indent + 1)
            if key in fields:
                raise ParseError(f"field {key} repeated", lineno, indent + 1)
            fields[key] = value
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 0:
            if len(game) > 0:
                raise ParseError("multiple root nodes", lineno, 1)
            parent = -1
            if "action" in fields:
                raise ParseError("root cannot carry an action", lineno, 1)
        else:
            if not stack or stack[-1][0] != depth - 1:
                raise ParseError("node has no parent at the previous depth", lineno, 1)
            parent = stack[-1][1]
            if game.is_terminal(parent):
                raise ParseError("unreachable node declared under a terminal",
                                 lineno, 1)
            if "action" not in fields:
                raise ParseError("non-root node needs action=", lineno, 1)
        move = fields.pop("action", "")
        if (parent, move) in declared:
            raise ParseError(f"action {move} declared twice at one node",
                             lineno, indent + 1)
        declared.add((parent, move))
        if "win" in fields:
            win = fields.pop("win")
            if win not in ("I", "II"):
                raise ParseError("win must be I or II", lineno, 1)
            if "player" in fields or "info" in fields:
                raise ParseError("terminal lines carry only action/win/p", lineno, 1)
            node = game.add_node(parent, move, -1, winner=player_codes[win])
        else:
            if "player" not in fields:
                raise ParseError("internal node needs player=", lineno, 1)
            player = fields.pop("player")
            if player not in player_codes:
                raise ParseError("player must be I, II or chance", lineno, 1)
            info = fields.pop("info", None)
            if info is None:
                raise ParseError("internal node needs info=", lineno, 1)
            node = game.add_node(parent, move, player_codes[player],
                                 info_label=info, label=f"@{info}[]")
        if parent >= 0 and game.owner[parent] == NATURE:
            if "p" not in fields:
                raise ParseError("children of chance nodes need p=", lineno, 1)
            chance_probs.setdefault(parent, []).append(
                _parse_fraction(fields.pop("p"), lineno))
        if fields:
            raise ParseError(f"unknown fields {sorted(fields)}", lineno, 1)
        stack.append((depth, node))
    if len(game) == 0:
        raise ParseError("empty game file", 1, 1)
    for parent, probs in chance_probs.items():
        game.embedded_chance[parent] = tuple(probs)
    try:
        game.validate()
    except GameError as exc:
        raise ParseError(str(exc)) from exc
    return game


# ----------------------------------------------------------- game inputs

def load_game(source: str, structure: str | None, nature: str | None = None,
              node_cap: int = DEFAULT_NODE_CAP):
    """The (game, chance strategy) pair described by input texts.

    ``source`` is a formula played on ``structure``, or a ``.game`` file when
    ``structure`` is None, each refused past ``node_cap`` nodes.  ``nature``
    is a ``.nat`` text; without one, chance is as a game file declares it,
    and uniform where nothing is declared, as in every semantic game.
    """
    if structure is None:
        game = parse_extensive_game(source, node_cap)
    else:
        phi = parse_formula(source)
        game = build_semantic_game(parse_structure(structure), phi, node_cap)
    lam = embedded_nature(game) if nature is None else parse_nature_strategy(nature, game)
    return game, lam


# ---------------------------------------------------------------- profiles

def parse_profile(src: str, game: ExtensiveGame):
    """Read a profile file into a (row, column) pair of mixed strategies.

    Blocks look like ``row 1/3 { <infoset label> -> <action> ... }``; the
    labels are exactly the strategy pretty-printer's canonical lines.  A
    side with no blocks defaults to its single empty strategy, which exists
    only when that player has no decision points.
    """
    text = "\n".join(line for _, line in _data_lines(src))
    pattern = re.compile(r"(row|col)\s+(\S+)\s*\{([^}]*)\}", re.S)
    pos = 0
    blocks: list[tuple[str, Fraction, str]] = []
    for m in pattern.finditer(text):
        if text[pos:m.start()].strip():
            raise ProfileError(f"unexpected text {text[pos:m.start()].strip()!r}")
        try:
            mass = Fraction(m.group(2))
        except (ValueError, ZeroDivisionError) as exc:
            raise ProfileError(f"bad mass {m.group(2)!r}") from exc
        blocks.append((m.group(1), mass, m.group(3)))
        pos = m.end()
    if text[pos:].strip():
        raise ProfileError(f"unexpected text {text[pos:].strip()!r}")

    def build_side(player: int, side: str) -> MixedStrategy:
        infosets = game.information_partition(player)
        label_to_infoset = {info.label: info for info in infosets}
        support = []
        for kind, mass, body in blocks:
            if kind != side:
                continue
            chosen: dict[int, int] = {}
            for line in body.splitlines():
                line = line.strip()
                if not line:
                    continue
                head, sep, action = line.partition("->")
                if not sep:
                    raise ProfileError(f"malformed strategy line {line!r}")
                label, action = head.strip(), action.strip()
                info = label_to_infoset.get(label)
                if info is None:
                    raise ProfileError(f"unknown information set {label!r}")
                if action not in info.actions:
                    raise ProfileError(f"unknown action {action!r} at {label}")
                if info.index in chosen:
                    raise ProfileError(f"information set {label} listed twice")
                chosen[info.index] = info.actions.index(action)
            # validate the domain is exactly the own-reachable closure
            def listed(info):
                if info.index not in chosen:
                    raise ProfileError(
                        f"strategy line missing for reachable set {info.label}")
                return chosen[info.index]

            extra = set(chosen) - set(own_reachable_closure(game, player, listed))
            if extra:
                labels = [infosets[k].label for k in sorted(extra)]
                raise ProfileError(f"lines for unreachable information sets {labels}")
            support.append((ReducedStrategy(game, player, chosen), mass))
        if not support:
            if infosets:
                raise ProfileError(
                    f"profile gives no {side} strategies but that player has "
                    f"decision points")
            return MixedStrategy(player, [(ReducedStrategy(game, player, {}),
                                           Fraction(1))])
        total = sum(w for _, w in support)
        if total != 1:
            raise ProfileError(f"{side} masses sum to {total}, not 1")
        return MixedStrategy(player, support)

    return build_side(EXIST, "row"), build_side(UNIV, "col")


# ------------------------------------------------------------------ events

class _EventMiss(Exception):
    """A referenced binding does not exist in this history."""


class EventPredicate:
    """Quantifier-free condition over a terminal history.

    :func:`parse_event` compiles the event into a test of the terminal's
    quantifier moves (:meth:`ExtensiveGame.bindings`); a history in which a
    referenced binding is missing fails the event.
    """

    def __init__(self, test, text: str):
        self._test = test
        self.text = text

    def holds(self, game: ExtensiveGame, node: int) -> bool:
        try:
            return self._test(game.bindings(node))
        except _EventMiss:
            return False

    def __repr__(self):
        return f"EventPredicate({self.text!r})"


def parse_event(src: str, game: ExtensiveGame) -> EventPredicate:
    """Parse and compile a conditioning event over terminal histories.

    Atoms are relation applications and equality/inequality chains; terms
    may be plain variables (their final value), history-indexed variables
    ``y#1`` / ``y#last`` (the k-th or last value assigned along the play),
    or bare names that the game's structure resolves as a sentence's are
    (``Structure.element``).  Boolean structure via
    ``and``/``or``/``not``, evaluated left to right: a binding the history
    lacks fails the event unless an ``and``/``or`` was already decided by
    its left side.
    """
    structure = game.structure
    variables = set(game.variables())
    ts = _TokenStream(_tokenize(src, hash_is_op=True))

    def parse_or():
        tests = [parse_and()]
        while ts.accept("or"):
            tests.append(parse_and())
        return tests[0] if len(tests) == 1 else lambda s: any(t(s) for t in tests)

    def parse_and():
        tests = [parse_not()]
        while ts.accept("and"):
            tests.append(parse_not())
        return tests[0] if len(tests) == 1 else lambda s: all(t(s) for t in tests)

    def parse_not():
        if ts.accept("not"):
            test = parse_not()
            return lambda s: not test(s)
        if ts.accept("("):
            test = parse_or()
            ts.expect(")")
            return test
        return parse_atom()

    def reader(name: str, k: int):
        def value(bindings: tuple[tuple[str, str], ...]) -> str:
            try:
                return [x for v, x in bindings if v == name][k]
            except IndexError:
                raise _EventMiss(name) from None
        return value

    def parse_eterm():
        tok = ts.next()
        if tok.kind not in ("name", "num"):
            raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        name = tok.text
        if ts.peek().text == "#":
            if tok.kind == "num":
                raise ParseError("only variables take #indices", tok.line, tok.col)
            ts.next()
            idx_tok = ts.next()
            if name not in variables:
                raise EventError(f"{name} is not a game variable")
            if idx_tok.text == "last":
                return reader(name, -1)
            if idx_tok.kind == "num" and int(idx_tok.text) >= 1:
                return reader(name, int(idx_tok.text) - 1)
            raise ParseError("variable index must be a positive number or 'last'",
                             idx_tok.line, idx_tok.col)
        if name in variables:
            return reader(name, -1)
        # a game with no structure has no elements to name
        element = None if structure is None else structure.element(name)
        if element is None:
            raise EventError(f"{name!r} is neither a game variable, a constant, "
                             f"nor a universe element")
        return lambda s: element

    def parse_atom():
        tok = ts.peek()
        if tok.kind == "name" and ts.peek(1).text == "(" and tok.text not in variables:
            name = ts.next().text
            if structure is None or name not in structure.relations:
                raise EventError(f"unknown relation {name} in event")
            ts.next()
            args = [parse_eterm()]
            while ts.accept(","):
                args.append(parse_eterm())
            ts.expect(")")
            arity, tuples = structure.relations[name]
            if len(args) != arity:
                raise EventError(f"relation {name} expects {arity} arguments")
            return relation_test(tuples, args)
        terms = [parse_eterm()]
        equal = []
        while ts.peek().text in ("=", "!="):
            equal.append(ts.next().text == "=")
            terms.append(parse_eterm())
        if not equal:
            ts.error("expected a comparison or relation atom")
        return chain_test(terms, equal)

    test = parse_or()
    if ts.peek().kind != "eof":
        ts.error(f"trailing input starting at {ts.peek().text!r}")
    return EventPredicate(test, src.strip())
