"""Expression language for immersion components and coefficient functions.

A small real-valued language parsed by hand (recursive descent).  Tuples of
expressions compile into straight-line programs (:func:`compile_program`)
that run either on plain floats or on :class:`~biharm.jets.Jet` values,
which is how every derivative in the engine is obtained.

Grammar, loosest binding first::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above unary minus
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are parameter names (declared at parse time), named constants
(bound at evaluation time; ``pi`` is preset), or one of the functions
``sin cos tan exp log sqrt atan``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Union

import numpy as np

from .jets import DomainError, Jet, seed_point, stack

# a constant's value: a float, or an array over the rows of a block, one
# value per row (see "compilation and evaluation" below)
Bindings = dict[str, "float | np.ndarray"]

DEFAULT_BINDINGS: Bindings = {"pi": math.pi}

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class UnboundConstantError(ExprError):
    pass


# -- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Param:
    name: str
    index: int


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Param, Const, Call, Neg, BinOp]


# -- tokenizer / parser ------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens, pos = [], 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None or m.end() == pos:
            bad = pos + len(source[pos:]) - len(source[pos:].lstrip())
            raise ExprSyntaxError(f"unknown token {source[bad]!r}", bad + 1)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num") + 1))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    tokens.append(("end", None, len(source) + 1))
    return tokens


class _Parser:
    def __init__(self, source: str, params):
        self.tokens = _tokenize(source)
        self.i = 0
        self.params = {name: k for k, name in enumerate(params)}

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            what = "end of input" if kind == "end" else repr(val)
            raise ExprSyntaxError(f"expected {op!r}, found {what}", pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.advance()
        if kind == "num":
            return Lit(val)
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {val!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val in self.params:
                return Param(val, self.params[val])
            if val in FUNCTIONS:
                raise ExprSyntaxError(f"function {val!r} needs an argument list", pos)
            return Const(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        what = "end of input" if kind == "end" else repr(val)
        raise ExprSyntaxError(f"expected a value, found {what}", pos)


def parse_expression(source: str, params) -> Expr:
    """Parse ``source`` over the given parameter names (distinct identifiers).

    Trees are immutable, so an equal ``(source, params)`` pair returns the
    tree already parsed; reloading a model then parses nothing.
    """
    return _parse_cached(source, tuple(params))


@lru_cache(maxsize=4096)
def _parse_cached(source: str, params: tuple) -> Expr:
    if len(set(params)) != len(params):
        raise ExprError(f"duplicate parameter names in {list(params)}")
    for p in params:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", p) or p in FUNCTIONS:
            raise ExprError(f"invalid parameter name {p!r}")
    return _Parser(source, list(params)).parse()


# -- compilation and evaluation ---------------------------------------------
#
# A tuple of expressions (a metric, a structure tensor, the components of an
# immersion) compiles into one straight-line program, a tape in the sense of
# Griewank & Walther, *Evaluating Derivatives* (SIAM 2008): structurally equal
# subtrees become one instruction, so a shared subexpression is computed once
# per run.  The same program runs on floats or on jets; constants are looked
# up at every run, so rebinding them never needs a recompile.
#
# A constant bound to an array runs a block of rows at once, each row with
# its own value.  Sums, differences, products and quotients of arrays are
# numpy's elementwise IEEE operations, so each element equals the float
# operation; functions and powers on arrays apply their float path to each
# element, domain checks included (numpy's own sin or tan may differ from
# libm by an ulp).

def _elementwise(fn, *args) -> np.ndarray:
    """``fn`` on the floats of each element of the broadcast ``args``."""
    arrays = np.broadcast_arrays(*args)
    out = [fn(*xs) for xs in zip(*(a.ravel().tolist() for a in arrays))]
    return np.array(out, dtype=float).reshape(arrays[0].shape)


def _call(fn: str, x):
    if isinstance(x, Jet):
        return getattr(x, fn)()
    if isinstance(x, np.ndarray):
        return _elementwise(partial(_call, fn), x)
    if not math.isfinite(x):
        raise DomainError(f"{fn} of non-finite value {x}")
    if fn == "log":
        if x <= 0.0:
            raise DomainError(f"log of non-positive value {x:.6g}")
        return math.log(x)
    if fn == "sqrt":
        if x < 0.0:
            raise DomainError(f"sqrt of negative value {x:.6g}")
        return math.sqrt(x)
    return getattr(math, fn)(x)


def _power(base, expo):
    if isinstance(expo, np.ndarray):
        if isinstance(base, Jet):  # each row raises its jet to its own exponent
            return stack([_power(base[i], e) for i, e in enumerate(expo.tolist())])
        return _elementwise(_power, base, expo)
    if isinstance(base, np.ndarray) and not isinstance(expo, Jet):
        return _elementwise(_power, base, expo)
    if isinstance(expo, Jet):
        # parameter-dependent exponent: b^e = exp(e log b), positive base only
        logb = base.log() if isinstance(base, Jet) else _call("log", base)
        return (expo * logb).exp()
    if not math.isfinite(expo):
        raise DomainError(f"non-finite exponent {expo}")
    if expo == int(expo):
        n = int(expo)
        if isinstance(base, Jet):
            return base.powi(n)
        if base == 0.0 and n < 0:
            raise DomainError("0 raised to a negative power")
        return float(base) ** n
    if isinstance(base, Jet):
        return base.powr(float(expo))
    if base <= 0.0:
        raise DomainError(f"x^{expo:.6g} needs positive base, got {base:.6g}")
    return math.pow(base, expo)


# a / b compiles to a / inv(b): a jet divisor becomes its reciprocal, which
# is what Jet division multiplies by, so every quotient over one divisor
# shares a single reciprocal; a float divisor passes through unchanged.

def _inverse(b):
    return b.reciprocal() if isinstance(b, Jet) else b


def _divide(a, inv_b):
    if isinstance(inv_b, Jet):
        return a * inv_b
    if not isinstance(a, Jet) and (
            (inv_b == 0.0).any() if isinstance(inv_b, np.ndarray) else inv_b == 0.0):
        raise DomainError("division by zero")
    return a / inv_b


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power}
_UNARY = {fn: partial(_call, fn) for fn in FUNCTIONS}
_UNARY["neg"] = operator.neg
_UNARY["inv"] = _inverse


def _constant(name: str, bindings: Bindings | None):
    try:
        value = bindings[name] if bindings and name in bindings else DEFAULT_BINDINGS[name]
    except KeyError:
        raise UnboundConstantError(f"constant {name!r} is not bound") from None
    return value if isinstance(value, np.ndarray) else float(value)


class Program:
    """Straight-line program computing a (nested) tuple of expressions.

    A run fills a list of slots: the literals, then the parameters, then the
    constants, then one slot per instruction ``(fn, a, b)``, which applies
    ``fn`` to slot ``a`` (and slot ``b`` when ``b >= 0``).  ``outputs``
    names the slot of every expression, in row-major order of ``shape``.
    """

    __slots__ = ("literals", "params", "consts", "code", "outputs", "shape")

    def __init__(self, literals, params, consts, code, outputs, shape):
        self.literals = tuple(literals)
        self.params = tuple(params)
        self.consts = tuple(consts)
        self.code = tuple(code)
        self.outputs = tuple(outputs)
        self.shape = tuple(shape)

    def __len__(self):
        return len(self.code)

    def run(self, env, bindings: Bindings | None = None) -> list:
        """Every output over parameter values ``env`` (floats or jets).

        An output that is not finite (a float, an array row or a jet
        coefficient), or a float operation that overflows, raises
        :class:`DomainError`.
        """
        slots = list(self.literals)
        slots += [env[k] for k in self.params]
        slots += [_constant(name, bindings) for name in self.consts]
        append = slots.append
        try:
            for fn, a, b in self.code:
                append(fn(slots[a]) if b < 0 else fn(slots[a], slots[b]))
        except OverflowError as e:
            raise DomainError(f"float overflow ({e})") from None
        out = [slots[k] for k in self.outputs]
        for v in out:
            if isinstance(v, float):
                if not math.isfinite(v):
                    raise DomainError(f"non-finite value {v}")
            elif isinstance(v, np.ndarray) and not np.isfinite(v).all():
                raise DomainError(f"non-finite value {v[~np.isfinite(v)][0]}")
            elif isinstance(v, Jet) and not np.isfinite(v.coeffs).all():
                raise DomainError("non-finite jet coefficient")
        return out

    def values(self, point, bindings: Bindings | None = None) -> np.ndarray:
        """Float outputs at ``point``, as an array of the compiled shape;
        points of shape S + (n,) run once on arrays over S, with S in front
        of the outputs, and each element is the float run at its point."""
        point = np.asarray(point, dtype=float)
        batch = point.shape[:-1]
        # one point runs on Python floats, so that its powers are the float path's
        env = list(np.moveaxis(point, -1, 0)) if batch else point.tolist()
        out = [np.broadcast_to(v, batch) for v in self.run(env, bindings)]
        return np.stack(out, axis=-1, dtype=float).reshape(batch + self.shape)

    def jets(self, env, bindings: Bindings | None = None) -> Jet:
        """Jet outputs over the jet parameters ``env``, as one jet array of
        the compiled shape; float outputs become constant jets.

        Parameters that are jet arrays of one batch shape S run the program
        once for the whole batch, and the result has shape S + the compiled
        shape; a constant bound to an array of shape S gives each sample its
        own value."""
        ref = next(v for v in env if isinstance(v, Jet))
        batch, k = ref.shape, len(self.shape)
        out = stack([v if isinstance(v, Jet) else ref.space.constant(np.full(batch, v))
                     for v in self.run(env, bindings)])
        coeffs = out.coeffs.reshape(self.shape + batch + out.coeffs.shape[-1:])
        return Jet(out.space, np.moveaxis(coeffs, range(k), range(len(batch), len(batch) + k)))


def compile_program(exprs) -> Program:
    """Compile an expression, or a nested tuple of them, into one program."""
    tree = np.array(exprs, dtype=object)
    ids: dict = {}      # structural key -> node number, children first
    sigs: list = []     # node number -> nested tuple ordering subtrees by structure alone
    literal: dict = {}  # node number -> literal value

    def node(key, sig) -> int:
        n = ids.setdefault(key, len(ids))
        if n == len(sigs):
            sigs.append(sig)
        return n

    def visit(e) -> int:
        if isinstance(e, BinOp):
            a, b = visit(e.left), visit(e.right)
            if e.op == "/":
                b = node(("inv", b), ("inv", sigs[b]))
            elif e.op in "+*" and a != b and sigs[b] < sigs[a]:
                a, b = b, a  # commutative: one operand order, whatever the context
            return node((e.op, a, b), (e.op, sigs[a], sigs[b]))
        if isinstance(e, Call):
            a = visit(e.arg)
            return node((e.fn, a), (e.fn, sigs[a]))
        if isinstance(e, Neg):
            a = visit(e.arg)
            return node(("neg", a), ("neg", sigs[a]))
        if isinstance(e, Param):
            key = ("param", e.index)
        elif isinstance(e, Const):
            key = ("const", e.name)
        elif isinstance(e, Lit):
            key = ("lit", repr(e.value))  # repr keeps -0.0 apart from 0.0
            n = node(key, key)
            literal.setdefault(n, e.value)
            return n
        else:
            raise TypeError(f"not an expression node: {e!r}")
        return node(key, key)

    outputs = [visit(e) for e in tree.ravel()]
    slot: dict = {}
    leaves = {"lit": [], "param": [], "const": []}
    for kind, items in leaves.items():
        for key, n in ids.items():
            if key[0] == kind:
                slot[n] = len(slot)
                items.append(literal[n] if kind == "lit" else key[1])
    code = []
    for key, n in ids.items():
        if key[0] in leaves:
            continue
        slot[n] = len(slot)
        if len(key) == 3:
            code.append((_BINARY[key[0]], slot[key[1]], slot[key[2]]))
        else:
            code.append((_UNARY[key[0]], slot[key[1]], -1))
    return Program(leaves["lit"], leaves["param"], leaves["const"], code,
                   [slot[n] for n in outputs], tree.shape)


# Fields are nested tuples of frozen trees, so they hash and compare by
# structure; the bound keeps the programs of a few dozen models.
_compile_field = lru_cache(maxsize=256)(compile_program)


class CompiledFields:
    """Mixin for models whose attributes hold (nested tuples of) expressions
    and whose ``bindings`` attribute holds their constants.

    ``program(name)`` compiles attribute ``name`` on first use and keeps the
    program on the instance; a new tuple assigned to the attribute is
    compiled on its next use.  A field equal to one compiled before (as on
    every reload of a model) reuses that program: programs hold no state
    between runs, and constants come from the model at each run.
    """

    def program(self, name: str) -> Program:
        source = getattr(self, name)
        cache = self.__dict__.setdefault("_programs", {})
        hit = cache.get(name)
        if hit is None or hit[0] is not source:
            hit = cache[name] = (source, _compile_field(source))
        return hit[1]

    def values(self, name: str, point) -> np.ndarray:
        """Field ``name`` at ``point`` (floats), shaped like the field."""
        return self.program(name).values(point, self.bindings)

    def jets(self, name: str, env) -> Jet:
        """Field ``name`` over jet parameter values ``env``, as a jet array
        (batch axes of the parameters first, see :meth:`Program.jets`)."""
        return self.program(name).jets(env, self.bindings)


def evaluate_jet(expr: Expr, point, order: int, bindings: Bindings | None = None) -> Jet:
    """Exact partial derivatives of ``expr`` at ``point``, up to ``order``."""
    out = compile_program(expr).run(seed_point(point, order), bindings)[0]
    if isinstance(out, Jet):
        return out
    return Jet.constant(len(point), order, float(out))


def evaluate_jet_env(expr: Expr, env, bindings: Bindings | None = None):
    """Evaluate against prebuilt jet (or float) parameter values."""
    return compile_program(expr).run(env, bindings)[0]


def evaluate_expr(expr: Expr, point, bindings: Bindings | None = None) -> float:
    """Plain (order-0) evaluation on floats."""
    return float(compile_program(expr).run([float(x) for x in point], bindings)[0])


def expr_constants(expr: Expr) -> set[str]:
    """Names of all constants referenced by ``expr``."""
    if isinstance(expr, Const):
        return {expr.name}
    if isinstance(expr, Call):
        return expr_constants(expr.arg)
    if isinstance(expr, Neg):
        return expr_constants(expr.arg)
    if isinstance(expr, BinOp):
        return expr_constants(expr.left) | expr_constants(expr.right)
    return set()
