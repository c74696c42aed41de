"""Truncated multivariate Taylor jets.

A :class:`Jet` carries the value and every partial derivative of a smooth
quantity up to a fixed order, at one point.  Entries are stored as raw
partial-derivative values (factorials folded out), indexed by dense
multi-indices in graded lexicographic order, so truncation to a lower order
is a prefix slice.  Sums, products, quotients and the elementary functions
propagate derivatives exactly at the retained order, so downstream geometry
never needs finite differencing.

Coefficients have shape ``(..., size)``: the leading axes hold a whole
vector field, matrix or tensor of jets (Neidinger's multivariate Taylor
arrays, SIAM Review 52, 2010), and a scalar jet is the 0-d case.  Arithmetic
broadcasts over the leading axes like numpy, and every product of two jets,
whatever its shape, is one call of the kernel :meth:`_JetSpace.mul`.

Jets over different variable counts never mix; mixing orders truncates to
the lower order (the product of two truncated expansions is only exact to
the smaller order).

A space may keep the variables past ``lead`` first-order (degree <= 1 in
them): a quotient of the full jet ring, so every entry it keeps is exact,
and bitwise the full space's (its indices and product terms are the full
space's, in order).  It never mixes with the full space.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np


class DomainError(ArithmeticError):
    """Evaluation left the domain of a partial function (log, sqrt, /, ^),
    or produced a non-finite value."""


def n_entries(nvars: int, order: int) -> int:
    return math.comb(nvars + order, order)


class _JetSpace:
    """Index tables shared by every jet with the same (nvars, order, lead)."""

    def __init__(self, nvars: int, order: int, lead: int):
        self.nvars = nvars
        self.order = order
        self.lead = lead
        self.indices = []
        for total in range(order + 1):
            for combo in combinations_with_replacement(range(nvars), total):
                idx = tuple(combo.count(v) for v in range(nvars))
                if sum(idx[lead:]) <= 1:  # first-order past lead
                    self.indices.append(idx)
        self.size = len(self.indices)
        self.position = {m: i for i, m in enumerate(self.indices)}
        self.ends = [sum(sum(m) <= k for m in self.indices) for k in range(order + 1)]
        self._mul = None
        self._offsets = np.empty(0, dtype=np.intp)
        self._diff = {}
        self._restrict = {}

    def mul_table(self):
        """Product terms ``(out, ia, ib, w)``: entry ``out`` of a product sums
        ``a[ia] * b[ib] * w``, in table order."""
        if self._mul is None:
            out, ia, ib, w = [], [], [], []
            for i, mi in enumerate(self.indices):
                # indices are graded, so partners of degree <= order - |mi| are a prefix
                for j, mj in enumerate(self.indices[: self.ends[self.order - sum(mi)]]):
                    k = self.position.get(tuple(a + b for a, b in zip(mi, mj)))
                    if k is not None:  # else quadratic past lead, not kept
                        out.append(k)
                        ia.append(i)
                        ib.append(j)
                        w.append(math.prod(math.comb(a + b, a) for a, b in zip(mi, mj)))
            self._mul = (
                np.array(out, dtype=np.intp),
                np.array(ia, dtype=np.intp),
                np.array(ib, dtype=np.intp),
                np.array(w, dtype=float),
            )
        return self._mul

    def diff_map(self, var: int):
        """Source positions of gamma + e_var for every gamma of degree < order."""
        if var not in self._diff:
            if var >= self.lead:
                raise ValueError(f"no derivative in variable {var}, kept first-order")
            sub = _space(self.nvars, self.order - 1, self.lead)
            self._diff[var] = np.array([self.position[m[:var] + (m[var] + 1,) + m[var + 1:]]
                                        for m in sub.indices], dtype=np.intp)
        return self._diff[var]

    def restrict_map(self, nvars: int, order: int, pad: tuple):
        """Source positions of ``m + pad`` for every multi-index m of (nvars, order)."""
        key = (nvars, order, pad)
        if key not in self._restrict:
            sub = _space(nvars, order)
            self._restrict[key] = np.array(
                [self.position[m + pad] for m in sub.indices], dtype=np.intp)
        return self._restrict[key]

    def constant(self, value) -> "Jet":
        """Constant jets of this space at ``value`` (an array over the leading axes)."""
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (self.size,))
        c[..., 0] = value
        return Jet(self, c)

    def variable(self, var: int, value) -> "Jet":
        c = self.constant(value).coeffs
        if self.order >= 1:  # first-degree entries follow the value, in variable order
            c[..., 1:1 + self.nvars] = np.eye(self.nvars)[var]
        return Jet(self, c)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of coefficient arrays ``(..., >= size)``, broadcast over the
        leading axes, truncated to this space's order.

        One ``bincount`` over the terms of every product at once: each
        output entry is summed in table order, so every element of a batch
        is bitwise the product of its own pair.  A batch of more than
        :data:`_CHUNK_TERMS` terms runs in row chunks written into one
        output array; each chunk gathers its operand rows through a row
        index of the broadcast, so the pass allocates the result plus one
        chunk's temporaries, never the operands at full broadcast size.
        The bin offsets of r rows prefix those of more rows: a space keeps
        one array of them, grown to the most rows (up to a chunk) in use.
        """
        out, ia, ib, w = self.mul_table()
        shape = np.broadcast(a[..., 0], b[..., 0]).shape  # twice as fast as broadcast_shapes
        rows = math.prod(shape)
        step = max(1, _CHUNK_TERMS // len(out))
        r = min(rows, step)
        if len(self._offsets) < r * len(out):  # term t of row i sums into i size + out[t]
            self._offsets = (np.arange(0, r * self.size, self.size)[:, None] + out).ravel()
        offsets = self._offsets[:r * len(out)]
        if rows > step:  # bound the temporaries: chunks of ``step`` rows
            res = np.empty(rows * self.size)
            chunk_a, chunk_b = _chunks(a, shape, step), _chunks(b, shape, step)
            for i in range(0, rows, step):
                terms = chunk_a(i).take(ia, axis=-1)
                terms *= chunk_b(i).take(ib, axis=-1)
                terms *= w
                k = len(terms) * self.size
                res[i * self.size:i * self.size + k] = np.bincount(
                    offsets[:terms.size], weights=terms.ravel(), minlength=k)
            return res.reshape(shape + (self.size,))
        terms = a.take(ia, axis=-1) * b.take(ib, axis=-1)
        terms *= w
        return np.bincount(offsets, weights=terms.ravel(), minlength=rows * self.size
                           ).reshape(shape + (self.size,))


def _chunks(x, shape, step):
    """Chunk ``i`` of coefficients ``x`` broadcast over ``shape``: rows
    ``i:i + step``, as an array (rows, width).  An operand of the full shape
    is sliced; any other gathers its rows through the flat row index of the
    broadcast, so it is never copied at full size."""
    flat = x.reshape(-1, x.shape[-1])
    if x.shape[:-1] == shape:
        return lambda i: flat[i:i + step]
    index = np.broadcast_to(np.arange(len(flat)).reshape(x.shape[:-1]), shape).ravel()
    return lambda i: flat.take(index[i:i + step], axis=0)


# products per kernel pass: larger batches run in row chunks of this many terms
_CHUNK_TERMS = 1 << 13


def _space(nvars: int, order: int, lead: int | None = None) -> _JetSpace:
    """The space whose variables past ``lead`` (default: none) are first-order."""
    return _cached_space(nvars, order, nvars if lead is None else min(lead, nvars))


_cached_space = lru_cache(maxsize=None)(_JetSpace)


def _checked(values, what):
    if not np.isfinite(values).all():
        raise DomainError(f"non-finite {what}")
    return values


class Jet:
    """Dense truncated jets: values plus partials up to ``order``, with
    coefficients of shape ``(..., size)``."""

    __slots__ = ("space", "coeffs")
    __array_ufunc__ = None  # ndarray (op) Jet defers to the Jet operators

    def __init__(self, space: _JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------
    @staticmethod
    def constant(nvars: int, order: int, value) -> "Jet":
        return _space(nvars, order).constant(value)

    @staticmethod
    def variable(nvars: int, order: int, var: int, value: float) -> "Jet":
        return _space(nvars, order).variable(var, value)

    # -- inspection ------------------------------------------------------
    @property
    def nvars(self) -> int:
        return self.space.nvars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def shape(self) -> tuple:
        return self.coeffs.shape[:-1]

    @property
    def value(self):
        """Point values: a float for a scalar jet, else an array of ``shape``."""
        v = self.coeffs[..., 0]
        return float(v) if v.ndim == 0 else v.copy()

    def partial(self, alpha):
        """Partial derivative for the multi-index ``alpha``."""
        alpha = tuple(alpha)
        if alpha not in self.space.position:
            raise ValueError(f"multi-index {alpha} outside the jet space (order {self.order})")
        v = self.coeffs[..., self.space.position[alpha]]
        return float(v) if v.ndim == 0 else v

    def __repr__(self):
        if self.shape:
            return f"Jet(nvars={self.nvars}, order={self.order}, shape={self.shape})"
        return f"Jet(nvars={self.nvars}, order={self.order}, value={self.value:.6g})"

    # -- leading axes ----------------------------------------------------
    def __getitem__(self, key) -> "Jet":
        if not isinstance(key, tuple):
            key = (key,)
        return Jet(self.space, self.coeffs[key + (slice(None),)])

    def __iter__(self):
        if not self.shape:
            raise TypeError("iteration over a scalar jet")
        return (self[i] for i in range(self.shape[0]))

    def sum(self, axis) -> "Jet":
        axes = axis if isinstance(axis, tuple) else (axis,)
        return Jet(self.space, self.coeffs.sum(tuple(a - 1 if a < 0 else a for a in axes)))

    def transpose(self, *axes) -> "Jet":
        """Permute the last ``len(axes)`` leading axes; any axes before them
        (sample axes) stay in place."""
        lead = len(self.shape) - len(axes)
        perm = tuple(range(lead)) + tuple(lead + a for a in axes) + (len(self.shape),)
        return Jet(self.space, self.coeffs.transpose(perm))

    # -- structure -------------------------------------------------------
    def truncate(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot extend a jet to higher order")
        sp = _space(self.nvars, order, self.space.lead)
        return Jet(sp, self.coeffs[..., : sp.size])

    def derivative(self, var: int) -> "Jet":
        """The jet of the partial derivative in variable ``var`` (one order lower)."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        src = self.space.diff_map(var)
        sp = _space(self.nvars, self.order - 1, self.space.lead)
        return Jet(sp, self.coeffs.take(src, axis=-1))

    def gradient(self, axis: int = 0) -> "Jet":
        """Every first partial, stacked on a new leading axis at position
        ``axis`` (see :func:`stack`), one order lower."""
        return stack([self.derivative(q) for q in range(self.nvars)], axis=axis)

    # -- arithmetic ------------------------------------------------------
    def _pair(self, other: "Jet"):
        """Coefficient arrays of two jets in their common space."""
        if other.space is self.space:
            return self.space, self.coeffs, other.coeffs
        if (other.nvars, other.space.lead) != (self.nvars, self.space.lead):
            raise ValueError("jets over different variable counts or jet spaces")
        sp = self.space if self.order <= other.order else other.space
        return sp, self.coeffs[..., : sp.size], other.coeffs[..., : sp.size]

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.space is self.space:
                return Jet(self.space, self.coeffs + other.coeffs)
            sp, a, b = self._pair(other)
            return Jet(sp, a + b)
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
        elif isinstance(other, np.ndarray):  # an array of constants, over the leading axes
            c = np.empty(np.broadcast_shapes(self.shape, other.shape) + self.coeffs.shape[-1:])
            c[...] = self.coeffs
        else:
            return NotImplemented
        c[..., 0] += other  # a constant moves the values only
        return Jet(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            sp, a, b = self._pair(other)
            if not (a.any() and b.any()):
                shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                return Jet(sp, np.zeros(shape + (sp.size,)))
            return Jet(sp, sp.mul(a, b))
        if isinstance(other, (int, float)):
            return Jet(self.space, self.coeffs * other)
        if isinstance(other, np.ndarray):  # an array of constants, over the leading axes
            return Jet(self.space, self.coeffs * other[..., None])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if isinstance(other, (int, float)):
            if other == 0.0:
                raise DomainError("division by zero")
            return Jet(self.space, self.coeffs / other)
        if isinstance(other, np.ndarray):  # an array of constants, over the leading axes
            if (other == 0.0).any():
                raise DomainError("division by zero")
            return Jet(self.space, self.coeffs / other[..., None])
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, int) or (
            isinstance(exponent, float) and exponent == int(exponent)
        ):
            return self.powi(int(exponent))
        if isinstance(exponent, float):
            return self.powr(exponent)
        return NotImplemented

    # -- composition with univariate functions ---------------------------
    def _series(self, derivs, name) -> "Jet":
        """Compose with a univariate f given f^(j) at the values, j = 0..order."""
        k = self.order
        coeffs = [_checked(derivs[j], f"{name} value") / math.factorial(j)
                  for j in range(k + 1)]
        delta = Jet(self.space, self.coeffs.copy())
        delta.coeffs[..., 0] = 0.0
        acc = self.space.constant(coeffs[k])
        for j in range(k - 1, -1, -1):
            acc = acc * delta + coeffs[j]
        _checked(acc.coeffs, f"{name} jet")
        return acc

    def _values(self):
        return self.coeffs[..., 0]

    def reciprocal(self) -> "Jet":
        x = self._values()
        if (x == 0.0).any():
            raise DomainError("division by zero")
        with np.errstate(over="ignore"):
            derivs = [(-1.0) ** j * math.factorial(j) / x ** (j + 1)
                      for j in range(self.order + 1)]
        return self._series(derivs, "reciprocal")

    def exp(self) -> "Jet":
        with np.errstate(over="ignore"):
            e = np.exp(self._values())
        return self._series([e] * (self.order + 1), "exp")

    def log(self) -> "Jet":
        x = self._values()
        if (x <= 0.0).any():
            raise DomainError(f"log of non-positive value {x.min():.6g}")
        derivs = [np.log(x)]
        derivs += [(-1.0) ** (j - 1) * math.factorial(j - 1) / x**j
                   for j in range(1, self.order + 1)]
        return self._series(derivs, "log")

    def sqrt(self) -> "Jet":
        x = self._values()
        if (x < 0.0).any() or ((x == 0.0).any() and self.order >= 1):
            raise DomainError(f"sqrt at non-positive value {x.min():.6g}")
        if self.order == 0 and (x == 0.0).any():
            return Jet(self.space, np.sqrt(self.coeffs))
        return self.powr(0.5)

    def powr(self, r: float) -> "Jet":
        x = self._values()
        if (x <= 0.0).any():
            raise DomainError(f"x^{r:.6g} needs positive base, got {x.min():.6g}")
        derivs, fall = [], 1.0
        with np.errstate(over="ignore"):
            for j in range(self.order + 1):
                derivs.append(fall * x ** (r - j))
                fall *= r - j
        return self._series(derivs, "power")

    def powi(self, n: int) -> "Jet":
        if n < 0:
            return self.reciprocal().powi(-n)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        if result is None:
            return self.space.constant(np.ones(self.shape))
        return result

    def sin(self) -> "Jet":
        x = self._values()
        s, c = np.sin(x), np.cos(x)
        cycle = [s, c, -s, -c]
        return self._series([cycle[j % 4] for j in range(self.order + 1)], "sin")

    def cos(self) -> "Jet":
        x = self._values()
        s, c = np.sin(x), np.cos(x)
        cycle = [c, -s, -c, s]
        return self._series([cycle[j % 4] for j in range(self.order + 1)], "cos")

    def tan(self) -> "Jet":
        return self.sin() / self.cos()

    def atan(self) -> "Jet":
        # Taylor coefficients of atan at x0, from the reciprocal power series
        # of 1 + (x0 + t)^2 integrated term by term.
        x = self._values()
        k = self.order
        den = [1.0 + x * x, 2.0 * x, 1.0]
        rec = [1.0 / den[0]]
        for j in range(1, k):
            acc = 0.0
            for i in range(1, min(j, 2) + 1):
                acc = acc + den[i] * rec[j - i]
            rec.append(-acc / den[0])
        derivs = [np.arctan(x)]
        for j in range(1, k + 1):
            derivs.append(rec[j - 1] / j * math.factorial(j))
        return self._series(derivs, "atan")


# -- arrays of jets ----------------------------------------------------------

def stack(items, nvars: int | None = None, order: int | None = None, axis: int = 0) -> Jet:
    """One jet array from a (nested) sequence of jets over the same variables,
    at the lowest order among them; plain numbers become constant jets of
    (``nvars``, ``order``).  The outermost new axis sits at leading position
    ``axis`` of the result; a negative ``axis`` counts from its last leading
    axis, so fields with sample axes in front stack with ``axis=-k``."""
    if isinstance(items, Jet):
        return items
    if not isinstance(items, (list, tuple)):
        return Jet.constant(nvars, order, float(items))
    parts = [stack(x, nvars, order) for x in items]
    sp = min((p.space for p in parts), key=lambda s: s.order)
    if len({(p.nvars, p.space.lead) for p in parts}) > 1:
        raise ValueError("jets over different variable counts or jet spaces")
    return Jet(sp, np.stack([p.coeffs[..., : sp.size] for p in parts],
                            axis=axis - 1 if axis < 0 else axis))


# -- cross-space plumbing -------------------------------------------------

def embed(jet: Jet, sp: _JetSpace) -> Jet:
    """View an m-variable jet inside the larger jet space ``sp`` (new vars inert)."""
    if sp.order != jet.order or min(sp.lead, jet.space.lead) < jet.nvars:
        raise ValueError("target space does not contain the source")
    dst = sp.restrict_map(jet.nvars, jet.order, (0,) * (sp.nvars - jet.nvars))
    out = np.zeros(jet.shape + (sp.size,))
    out[..., dst] = jet.coeffs
    return Jet(sp, out)


def extract(jet: Jet, nvars: int, order: int, extra: int | None = None) -> Jet:
    """Restrict an augmented jet back to its first ``nvars`` variables.

    With ``extra`` set, returns the jet of the first partial derivative in
    augmented variable ``extra`` (an index >= nvars), i.e. the slice of
    entries whose extra-variable part is exactly e_extra.
    """
    pad = [0] * (jet.nvars - nvars)
    if extra is not None:
        pad[extra - nvars] = 1
    src = jet.space.restrict_map(nvars, order, tuple(pad))
    return Jet(_space(nvars, order), jet.coeffs.take(src, axis=-1))


def seed_point(point, order: int) -> list[Jet]:
    """Variable jets for every coordinate of ``point``, an array of shape
    S + (n,): the jets carry the sample axes S, and a single point is the
    case S = ()."""
    point = np.asarray(point, dtype=float)
    sp = _space(point.shape[-1], order)
    return [sp.variable(i, point[..., i]) for i in range(sp.nvars)]


def jet_matrix_inverse(mat) -> Jet:
    """Invert a square matrix of jets (a jet array or nested rows of jets),
    or one per sample when the array has sample axes in front.

    With A = A0 + N, N free of constant terms, the inverse is the Neumann
    series sum_j (-A0^-1 N)^j A0^-1, which terminates at the jet order;
    it is summed in Horner form, one jet matrix product per order.
    """
    a = stack(mat)
    a0 = a.value
    if not np.isfinite(a0).all():
        raise DomainError("non-finite matrix of jets")
    try:
        inv0 = np.linalg.inv(a0)
    except np.linalg.LinAlgError:
        raise DomainError("singular matrix of jets") from None
    step = Jet(a.space, -np.einsum("...ij,...jkz->...ikz", inv0, a.coeffs))
    step.coeffs[..., 0] = 0.0
    head = a.space.constant(inv0)
    out = head
    for _ in range(a.order):
        out = head + (step[..., :, :, None] * out[..., None, :, :]).sum(-2)
    return out
