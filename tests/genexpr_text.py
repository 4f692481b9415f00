"""A text form of series expression trees, for writing and reading them in tests.

Trees print canonically and parse back to the same tree
(parse_genexpr(to_text(e)) == e).  Text may divide constants, as in (1/2),
and nothing else.  The library builds its trees in code and never reads or
writes this form.
"""

from dualcount.series import (Avg, Binom, LinForm, Num, Prod, QPow, Root, Sum,
                              make_lin, mknum, mkprod, mksum)

# -- parsing --------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_PUNCT = {"(": "LP", ")": "RP", "^": "CARET", "+": "PLUS", "-": "MINUS", "/": "SLASH"}


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        if text.startswith("..", i):
            toks.append(("DOTDOT", "..", i))
            i += 2
            continue
        if ch in _PUNCT:
            toks.append((_PUNCT[ch], ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("EOF", None, len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what or kind}, found {tok[1]!r}", tok[2])
        return tok

    # expr := ['-'] term { ('+'|'-') term }
    def parse_expr(self):
        terms = []
        sign = 1
        if self.peek()[0] == "MINUS":
            self.next()
            sign = -1
        terms.append((sign, self.parse_term()))
        while self.peek()[0] in ("PLUS", "MINUS"):
            sign = 1 if self.next()[0] == "PLUS" else -1
            terms.append((sign, self.parse_term()))
        return mksum(*terms)

    # term := avg-header term | fprod { '/' fprod }
    def parse_term(self):
        if self.peek() == ("NAME", "avg", self.peek()[2]):
            return self.parse_avg()
        node = self.parse_fprod()
        while self.peek()[0] == "SLASH":
            self.next()
            rhs = self.parse_fprod()
            if not (isinstance(node, Num) and isinstance(rhs, Num)):
                raise ParseError("only constants divide", self.peek()[2])
            if rhs.value == 0:
                raise ParseError("division by zero", self.peek()[2])
            node = mknum(node.value / rhs.value)
        return node

    def parse_avg(self):
        self.next()  # 'avg'
        self.expect("LP", "'('")
        var = self.expect("NAME", "variable name")[1]
        if var in ("q", "i", "avg", "in"):
            raise ParseError(f"{var!r} cannot be an avg variable", self.peek()[2])
        tok = self.expect("NAME", "'in'")
        if tok[1] != "in":
            raise ParseError("expected 'in'", tok[2])
        lo = self.expect("INT", "range start")
        if lo[1] != 0:
            raise ParseError("avg ranges start at 0", lo[2])
        self.expect("DOTDOT", "'..'")
        hi = self.expect("INT", "range end")[1]
        self.expect("RP", "')'")
        body = self.parse_term()
        return Avg(var, hi, body)

    def parse_fprod(self):
        factors = [self.parse_factor()]
        while self.peek()[0] in ("INT", "LP") or (
                self.peek()[0] == "NAME" and self.peek()[1] in ("q", "i")):
            factors.append(self.parse_factor())
        return mkprod(*factors)

    def parse_factor(self):
        kind, value, pos = self.peek()
        if kind == "INT":
            self.next()
            return mknum(value)
        if kind == "NAME" and value == "q":
            self.next()
            k = 1
            if self.peek()[0] == "CARET":
                self.next()
                ktok = self.expect("INT", "integer exponent")
                k = ktok[1]
                if k < 1:
                    raise ParseError("q exponent must be positive", ktok[2])
            return QPow(k)
        if kind == "NAME" and value == "i":
            return self._root_from_lin(self.parse_phase_atom())
        if kind == "LP":
            saved = self.i
            try:
                return self.parse_binom()
            except ParseError:
                self.i = saved
            try:
                return self._root_from_lin(self.parse_phase_atom())
            except ParseError:
                self.i = saved
            self.next()
            inner = self.parse_expr()
            self.expect("RP", "')'")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)

    def _root_from_lin(self, lin: LinForm):
        if lin.terms:
            return Root(lin)
        if lin.const == 0:
            return mknum(1)
        if lin.const == 2:
            # (-1) constant phase: fold into a signed sum
            return mksum((-1, mknum(1)))
        return Root(lin)

    # phase atoms: i, i^X, (-1)^X with X = [-] [INT] [NAME] | INT
    def parse_phase_atom(self) -> LinForm:
        kind, value, pos = self.peek()
        if kind == "NAME" and value == "i":
            self.next()
            scale = 1
        elif kind == "LP":
            if not (self.peek(1)[0] == "MINUS" and self.peek(2)[0] == "INT"
                    and self.peek(2)[1] == 1 and self.peek(3)[0] == "RP"):
                raise ParseError("not a phase atom", pos)
            for _ in range(4):
                self.next()
            self.expect("CARET", "'^' after (-1)")
            return self._parse_phase_exponent(2, required=True)
        else:
            raise ParseError("not a phase atom", pos)
        if self.peek()[0] != "CARET":
            return make_lin(scale)
        self.next()
        return self._parse_phase_exponent(scale, required=True)

    def _parse_phase_exponent(self, scale: int, required: bool) -> LinForm:
        sign = 1
        if self.peek()[0] == "MINUS":
            self.next()
            sign = -1
        coeff = None
        if self.peek()[0] == "INT":
            coeff = self.next()[1]
        var = None
        if self.peek()[0] == "NAME" and self.peek()[1] not in ("q", "i", "avg", "in"):
            var = self.next()[1]
        if var is None and coeff is None:
            raise ParseError("expected an exponent", self.peek()[2])
        if var is None:
            return make_lin(scale * sign * coeff)
        return make_lin(0, [(var, scale * sign * (1 if coeff is None else coeff))])

    # binom := '(' 1 ('-'|'+') atoms q ')' ['^' ['-'] INT]
    def parse_binom(self) -> Binom:
        self.expect("LP", "'('")
        one = self.expect("INT", "literal 1")
        if one[1] != 1:
            raise ParseError("binomial factors start with 1", one[2])
        sgn = self.next()
        if sgn[0] == "MINUS":
            const = 0
        elif sgn[0] == "PLUS":
            const = 2
        else:
            raise ParseError("expected '+' or '-'", sgn[2])
        terms = []
        while not (self.peek()[0] == "NAME" and self.peek()[1] == "q"):
            lin = self.parse_phase_atom()
            const += lin.const
            terms.extend(lin.terms)
        self.next()  # 'q'
        k = 1
        if self.peek()[0] == "CARET":
            self.next()
            ktok = self.expect("INT", "integer exponent")
            k = ktok[1]
            if k < 1:
                raise ParseError("q exponent must be positive", ktok[2])
        self.expect("RP", "')'")
        e = 1
        if self.peek()[0] == "CARET":
            self.next()
            esign = 1
            if self.peek()[0] == "MINUS":
                self.next()
                esign = -1
            etok = self.expect("INT", "integer exponent")
            e = esign * etok[1]
            if e == 0:
                raise ParseError("binomial exponent must be nonzero", etok[2])
        return Binom(make_lin(const, terms), k, e)


def parse_genexpr(text: str):
    p = _Parser(text)
    node = p.parse_expr()
    tok = p.peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return node


# -- printing -----------------------------------------------------------------


def _phase_atoms(lin: LinForm) -> list[str]:
    out = []
    if lin.const == 1:
        out.append("i")
    elif lin.const == 3:
        out.append("i^3")
    for var, c in lin.terms:
        if c == 1:
            out.append(f"i^{var}")
        elif c == 2:
            out.append(f"(-1)^{var}")
        else:
            out.append(f"i^-{var}")
    return out


def to_text(node) -> str:
    if isinstance(node, Num):
        v = node.value
        if v.denominator == 1:
            return str(v.numerator)
        return f"({v.numerator}/{v.denominator})"
    if isinstance(node, QPow):
        return "q" if node.k == 1 else f"q^{node.k}"
    if isinstance(node, Root):
        atoms = _phase_atoms(node.lin)
        if len(atoms) != 1:
            raise ValueError("phase factors print as single atoms")
        return atoms[0]
    if isinstance(node, Binom):
        const = node.phase.const
        sign = "-"
        shown = node.phase
        if const == 2:
            sign = "+"
            shown = make_lin(0, node.phase.terms)
        atoms = _phase_atoms(shown)
        qtxt = "q" if node.k == 1 else f"q^{node.k}"
        body = f"(1 {sign} {' '.join(atoms + [qtxt]) if atoms else qtxt})"
        return body if node.e == 1 else f"{body}^{node.e}"
    if isinstance(node, Prod):
        parts = []
        for f in node.factors:
            txt = to_text(f)
            if isinstance(f, (Sum, Avg)):
                txt = f"({txt})"
            parts.append(txt)
        return " ".join(parts)
    if isinstance(node, Sum):
        parts = []
        for idx, (sign, term) in enumerate(node.terms):
            txt = to_text(term)
            if isinstance(term, Sum):
                txt = f"({txt})"
            if idx == 0:
                parts.append(txt if sign > 0 else f"-{txt}")
            else:
                parts.append(f"{'+' if sign > 0 else '-'} {txt}")
        return " ".join(parts)
    if isinstance(node, Avg):
        body = to_text(node.body)
        if isinstance(node.body, Sum):
            body = f"({body})"
        return f"avg({node.var} in 0..{node.hi}) {body}"
    raise TypeError(f"not an expression node: {node!r}")
