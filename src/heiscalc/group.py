"""Heisenberg group structure: points, the gauge norm, the conformal
generators, and maps of the group, words of generators among them.

A map is held as its evaluation function, a function of (x, y, t) that
runs on complex scalars, on jets (single or batched) and on expressions: an
expression map's tape, a generator's `apply` (written once with the
arithmetic operators), or a composite's chain. Composition is the chain
rule on jets: f.compose(g) runs f's function on g's values, and at a single
point on g's reading there, which every other diagnostic of g at that point
shares. A word of generators chains its letters' `apply` as `compose`
would, so its jets run them from the seeds: no expression is built and no
tape is compiled for it. Each map evaluation takes the one guard of
`expr.guarded`. The three coordinate expressions of a map held as a
function are built only when asked for (`HeisMap.exprs`), as the
substituted-DAG route the tests check the chain against.

A map keeps one reading: its jets at the last single point asked for, to
the highest order asked there so far and to order 3 at least, the order
both Schwarzians read. Every diagnostic of the map at that point takes the
truncation to the order its formula consumes, so the CR and classical
Schwarzians, the preschwarzian, the contact gates and the pushforwards of
one (map, point) share one evaluation, whichever comes first. The reading
also holds what they derive alike: the Jacobian jet and its reciprocal and
log (`horizontal.jacobian`), Z F and Z conj(F) (`horizontal.zf`), and the
contact assessment. An `(N, 3)` batch of points bypasses it.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .errors import DomainError, NotPositive, ParseError
from .expr import Expr
from .jets import Jet, is_batch, jet_seed


class Point(NamedTuple):
    x: float
    y: float
    t: float


def _not_a_point(p) -> DomainError:
    return DomainError(f"a point has three real coordinates, got {p!r}")


def as_point(p, what: str = "the point") -> Point:
    """p as a Point of three finite floats, or a DomainError: for a point of
    another length, a coordinate that is no real number, or one that is NaN,
    infinite or an int beyond the float range."""
    try:
        q = Point(*map(float, p))
    except (TypeError, ValueError, OverflowError):
        raise _not_a_point(p) from None
    if not all(map(math.isfinite, q)):
        raise DomainError(f"{what} {tuple(q)} is not finite")
    return q


def group_mul(p, q) -> Point:
    p, q = Point(*p), Point(*q)
    return Point(p.x + q.x, p.y + q.y,
                 p.t + q.t + 2.0 * (p.y * q.x - p.x * q.y))


def group_inv(p) -> Point:
    p = Point(*p)
    return Point(-p.x, -p.y, -p.t)


def koranyi_norm(p) -> float:
    p = Point(*p)
    return ((p.x * p.x + p.y * p.y) ** 2 + p.t * p.t) ** 0.25


def koranyi_dist(p, q) -> float:
    return koranyi_norm(group_mul(group_inv(p), q))


def dilate_point(r: float, p) -> Point:
    p = Point(*p)
    return Point(r * p.x, r * p.y, r * r * p.t)


def radial_curve(r: float, p) -> Point:
    """Radius-r point of the horizontal curve through p that scales the
    gauge norm linearly: the complex part spirals while t scales by r^2."""
    p = Point(*p)
    if r <= 0:
        raise DomainError("radial curve needs r > 0")
    zsq = p.x * p.x + p.y * p.y
    if zsq == 0:
        raise DomainError("radial curve undefined on the t-axis (|z| = 0)")
    z = complex(p.x, p.y) * r * complex(math.cos(-(p.t / zsq) * math.log(r)),
                                        math.sin(-(p.t / zsq) * math.log(r)))
    return Point(z.real, z.imag, r * r * p.t)


# --- generators ---------------------------------------------------------------

def _require_finite(gen, values):
    """A DomainError when a generator's parameter is NaN or infinite, so the
    map is refused when built and not at its first evaluation."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{type(gen).__name__} parameters must be finite, got {values}")


class _Generator:
    """A generator's `apply(x, y, t)` is written once with the arithmetic
    operators, so it runs on complex scalars, on jets (single or batched)
    and on expressions alike; its expressions are its run on the
    coordinates."""

    def exprs(self):
        return self.apply(ex.X, ex.Y, ex.T)


@dataclass(frozen=True)
class Translate(_Generator):
    p: tuple

    def __post_init__(self):
        _require_finite(self, self.p)

    def apply(self, x, y, t):
        px, py, pt = (float(c) for c in self.p)
        return px + x, py + y, pt + t + 2 * (py * x - px * y)

    def label(self):
        return f"trans({self.p[0]},{self.p[1]},{self.p[2]})"


@dataclass(frozen=True)
class Dilate(_Generator):
    r: float

    def __post_init__(self):
        _require_finite(self, (self.r,))
        if not self.r > 0:
            raise NotPositive(f"dilation factor must be positive, got {self.r}")

    def apply(self, x, y, t):
        r = float(self.r)
        return r * x, r * y, (r * r) * t

    def label(self):
        return f"dil({self.r})"


@dataclass(frozen=True)
class Rotate(_Generator):
    phi: float

    def __post_init__(self):
        _require_finite(self, (self.phi,))

    def apply(self, x, y, t):
        c, s = math.cos(self.phi), math.sin(self.phi)
        return c * x - s * y, s * x + c * y, t

    def label(self):
        return f"rot({self.phi})"


@dataclass(frozen=True)
class Invert(_Generator):
    def apply(self, x, y, t):
        # on jets the three divisions multiply by den's one reciprocal
        rho = x * x + y * y
        den = t * t + rho * rho
        return (y * t - x * rho) / den, -(x * t + y * rho) / den, -t / den

    def label(self):
        return "inv"


@dataclass(frozen=True)
class Reflect(_Generator):
    def apply(self, x, y, t):
        return x, -y, -t

    def label(self):
        return "refl"


@dataclass(frozen=True)
class LinearSL2(_Generator):
    """(z, t) -> (a x + b y + i(c x + d y), t) with a d - b c = 1.

    Contact with unit Jacobian but conformal only for rotations; kept as a
    word letter because it separates the two Schwarzians."""
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not abs(self.a * self.d - self.b * self.c - 1.0) <= 1e-12:   # a NaN fails too
            raise DomainError("linear letter needs determinant one")

    def apply(self, x, y, t):
        return self.a * x + self.b * y, self.c * x + self.d * y, t

    def label(self):
        return f"sl2({self.a},{self.b},{self.c},{self.d})"


class Reading:
    """A map's jets at one point, to the highest order asked there so far,
    and the values derived from them that diagnostics share, each made on
    first use. Every coefficient array is read-only: the jets are handed
    out, not copied, so a caller that writes to one raises."""
    __slots__ = ("key", "jets", "derived")

    def __init__(self, key: bytes, jets: tuple):
        for j in jets:
            j.coef.flags.writeable = False
        self.key, self.jets, self.derived = key, jets, {}

    def shared(self, name: str, make):
        """The value make() gives, made on the first call for this name and
        handed out shared: a jet is made read-only, any other value must be
        immutable. A jet that overflows, or a division by an underflowed
        power in make, is a DomainError, as inside an evaluation."""
        v = self.derived.get(name)
        if v is None:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    v = make()
                    at = ex._not_finite_at((v,)) if isinstance(v, Jet) else None
            except (OverflowError, ZeroDivisionError) as e:
                raise DomainError(f"the {name} at {self.jets[0].base} "
                                  f"leaves the float range: {e}") from None
            if at is not None:
                raise DomainError(f"the {name} jet is not finite at {at}")
            if isinstance(v, Jet):
                v.coef.flags.writeable = False
            self.derived[name] = v
        return v


class _Exprs:
    """An expression map's evaluation function: on values, a run of its
    tape, compiled on the first run and held here; on expressions, the
    substitution (`expr.subs`), so an expression map composed after
    another has expressions too."""
    __slots__ = ("roots", "tape")

    def __init__(self, roots: tuple):
        self.roots, self.tape = roots, None

    def __call__(self, x, y, t):
        if isinstance(x, Expr):
            return ex.subs(self.roots, x, y, t)
        if self.tape is None:
            self.tape = ex.Tape(self.roots)
        return self.tape.run(x, y, t)


def _chain(outer, inner):
    """The evaluation function of outer after inner."""
    def chained(x, y, t):
        return outer(*inner(x, y, t))
    return chained


class HeisMap:
    """A map of the group, held as its evaluation function: a function of
    (x, y, t) that runs unguarded on complex scalars, on jets and on
    expressions. An expression map's is its tape; a generator's, its
    `apply`; a composite's, the chain of its outer map's function after
    its inner map's. Every evaluation takes the one guard of
    `expr.guarded`. The three coordinate expressions of a map held as a
    function are built on first use (`exprs`), and only for the
    substituted-DAG reference route; no evaluation reads them."""

    def __init__(self, e1: Expr, e2: Expr, e3: Expr, name: str = ""):
        self._setup(_Exprs((e1, e2, e3)), name)
        self._exprs = (e1, e2, e3)

    @classmethod
    def of(cls, fn, name: str = "", outer=None, inner: "HeisMap | None" = None) -> "HeisMap":
        """The map whose evaluation function is fn, such as a generator's
        `apply`; a composite also names its outer map's function and its
        inner map, whose reading it reads."""
        m = cls.__new__(cls)
        m._setup(fn, name, outer, inner)
        return m

    def _setup(self, fn, name, outer=None, inner=None):
        self._fn, self._outer, self._inner, self.name = fn, outer, inner, name
        self._exprs = self._reading = None
        self._composed = None   # (inner, self after inner), the last composite

    @property
    def exprs(self) -> tuple:
        """The three coordinate expressions: an expression map's own; a
        composite's, its outer map's function run on its inner map's
        expressions (a generator's `apply` builds on them, an expression
        map substitutes them); any other map's, its function run on the
        coordinates."""
        if self._exprs is None:
            inner = self._inner
            self._exprs = (self._outer(*inner.exprs) if inner is not None
                           else self._fn(ex.X, ex.Y, ex.T))
        return self._exprs

    def __call__(self, p) -> Point:
        """f(p), for a point p of three coordinates."""
        try:
            x, y, t = p
        except (TypeError, ValueError):
            raise _not_a_point(p) from None
        out = ex.guarded(self._fn, complex(x), complex(y), complex(t))
        return Point(*(v.real for v in out))

    def _evaluate(self, p, order: int) -> tuple:
        """The three jets to `order` at p, a single point or an (N, 3)
        batch: the one place a map's jets are made. A composite at a single
        point runs its outer map's function on its inner map's reading
        there, so the inner map is evaluated once for both; every other
        evaluation runs the map's function on the seeds."""
        inner = self._inner
        if inner is not None and not is_batch(p):
            return ex.guarded(self._outer,
                              *(j.truncate(order) for j in inner.reading(p, order).jets))
        return ex.guarded(self._fn, *jet_seed(p, order))

    def reading(self, p, order: int) -> Reading:
        """The map's reading at the single point p, evaluated again only
        for a new point or a higher order, and to order 3 at least, the
        order both Schwarzians read, so a gate that reads a lower order
        first does not cost a second evaluation. Points are told apart by
        their bits, so -0.0 and 0.0 are two points; a point that is not
        three real numbers is a DomainError."""
        try:
            key = struct.pack("3d", *p)
        except struct.error:
            raise _not_a_point(p) from None
        r = self._reading
        if r is None or r.key != key or r.jets[0].order < order:
            r = self._reading = Reading(key, self._evaluate(p, max(order, 3)))
        return r

    def jets(self, p, order: int):
        """The three component jets to `order` at p, from the reading; at
        an (N, 3) array of points, batched jets, evaluated afresh."""
        if is_batch(p):
            return self._evaluate(p, order)
        return tuple(j.truncate(order) for j in self.reading(p, order).jets)

    def compose(self, inner: "HeisMap") -> "HeisMap":
        """self after inner: (self.compose(g))(p) = self(g(p)).

        The composite holds this map's function, not this map, so this map
        can keep it without a reference cycle. The last composite is kept,
        keyed by the inner map object, so the laws that read one pair's
        composite share it and its reading."""
        c = self._composed
        if c is None or c[0] is not inner:
            c = self._composed = (inner, HeisMap.of(
                _chain(self._fn, inner._fn), f"{self.name or '?'}∘{inner.name or '?'}",
                outer=self._fn, inner=inner))
        return c[1]

    def __repr__(self):
        return f"HeisMap({self.name or 'anonymous'})"


IDENTITY = HeisMap(ex.X, ex.Y, ex.T, name="id")


def word_to_map(word) -> HeisMap:
    """Compose a generator word, rightmost generator applied first: the
    map whose function chains the letters' `apply` from the last letter
    out, as `compose` would chain them, so its jets run the letters from
    the seeds under one guard and read no letter's reading."""
    word = list(word)
    if not word:
        return HeisMap(ex.X, ex.Y, ex.T, "id")
    fn = word[-1].apply
    for gen in reversed(word[:-1]):
        fn = _chain(gen.apply, fn)
    return HeisMap.of(fn, "∘".join(gen.label() for gen in word))


def word_orientation(word) -> int:
    """+1 or -1: sign of the Jacobian of the composed word."""
    sign = 1
    for gen in word:
        if isinstance(gen, Reflect):
            sign = -sign
    return sign


def is_conformal_word(word) -> bool:
    """Reflections break conformality (orientation); linear letters break it
    unless they are rotations."""
    for gen in word:
        if isinstance(gen, Reflect):
            return False
        if isinstance(gen, LinearSL2) and not (
                abs(gen.a - gen.d) < 1e-15 and abs(gen.b + gen.c) < 1e-15):
            return False
    return True


def make_type1(p, phi: float, r: float, q) -> list:
    return [Translate(tuple(p)), Rotate(phi), Dilate(r), Translate(tuple(q))]


def make_type2(p, phi: float, r: float, q) -> list:
    return [Translate(tuple(p)), Invert(), Rotate(phi), Dilate(r), Translate(tuple(q))]


def random_word(rng, length: int = 3, allow_invert: bool = True) -> list:
    """Deterministic pseudo-random generator word for sampling suites."""
    kinds = ["trans", "dil", "rot"]
    if allow_invert:
        kinds.append("inv")
    out = []
    for _ in range(length):
        k = rng.choice(kinds)
        if k == "trans":
            out.append(Translate((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                                  rng.uniform(-1.5, 1.5))))
        elif k == "dil":
            out.append(Dilate(rng.uniform(0.5, 2.0)))
        elif k == "rot":
            out.append(Rotate(rng.uniform(0.0, 2.0 * math.pi)))
        else:
            out.append(Invert())
    return out


# --- word grammar for the CLI --------------------------------------------------

# each word letter's generator and the number of arguments it takes
_LETTERS = {"inv": (Invert, 0), "refl": (Reflect, 0), "trans": (lambda *p: Translate(p), 3),
            "dil": (Dilate, 1), "rot": (Rotate, 1), "sl2": (LinearSL2, 4)}


def parse_word(text: str) -> list:
    """'trans(1,0,2) o inv o dil(0.5)' -> generator list. 'id' is empty.

    Separators: 'o', '*', or the ring operator, between any two letters;
    arguments are plain finite floats.
    """
    text = text.strip()
    if text in ("", "id"):
        return []
    parts = [p.strip() for p in text.replace("∘", " o ").replace("*", " o ").split(" o ")]
    word = []
    for part in parts:
        if not part:
            raise ParseError(f"empty word letter in {text!r}")
        if part in ("inv", "refl"):
            word.append(_LETTERS[part][0]())
            continue
        if "(" not in part or not part.endswith(")"):
            raise ParseError(f"bad word letter {part!r}")
        head, argtext = part.split("(", 1)
        try:
            args = [float(a) for a in argtext[:-1].split(",")]
        except ValueError as exc:
            raise ParseError(f"bad arguments in {part!r}") from exc
        if not all(map(math.isfinite, args)):
            raise ParseError(f"an argument in {part!r} is not a finite number")
        if head not in _LETTERS:
            raise ParseError(f"unknown word letter {part!r}")
        make, arity = _LETTERS[head]
        if len(args) != arity:
            raise ParseError(f"{head} takes {arity} argument{'' if arity == 1 else 's'}, "
                             f"got {len(args)}")
        word.append(make(*args))
    return word
