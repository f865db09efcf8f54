"""Heisenberg group structure: points, the gauge norm, the conformal
generators, and words of generators compiled to coordinate maps.

A map is held as three expression trees (e1, e2, e3) in the source
coordinates. Composition is one substitution over the three components
together, so subtrees they share (the common denominator of the inversion,
for one) stay shared, and a word of generators, folded through `compose`,
becomes a single DAG. Its values and jets come from one run of the three
roots' tape.

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
from .expr import Expr, eval_at, jet_eval
from .jets import Jet


class Point(NamedTuple):
    x: float
    y: float
    t: float


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


@dataclass(frozen=True)
class Translate:
    p: tuple

    def __post_init__(self):
        _require_finite(self, self.p)

    def exprs(self):
        px, py, pt = (float(c) for c in self.p)
        e3 = ex.const(pt) + ex.T + 2 * (py * ex.X - px * ex.Y)
        return ex.const(px) + ex.X, ex.const(py) + ex.Y, e3

    def label(self):
        return f"trans({self.p[0]},{self.p[1]},{self.p[2]})"


@dataclass(frozen=True)
class Dilate:
    r: float

    def __post_init__(self):
        _require_finite(self, (self.r,))
        if not self.r > 0:
            raise NotPositive(f"dilation factor must be positive, got {self.r}")

    def exprs(self):
        r = float(self.r)
        return r * ex.X, r * ex.Y, (r * r) * ex.T

    def label(self):
        return f"dil({self.r})"


@dataclass(frozen=True)
class Rotate:
    phi: float

    def __post_init__(self):
        _require_finite(self, (self.phi,))

    def exprs(self):
        c, s = math.cos(self.phi), math.sin(self.phi)
        return c * ex.X - s * ex.Y, s * ex.X + c * ex.Y, ex.T

    def label(self):
        return f"rot({self.phi})"


@dataclass(frozen=True)
class Invert:
    def exprs(self):
        rho = ex.X * ex.X + ex.Y * ex.Y
        den = ex.T * ex.T + rho * rho
        e1 = (ex.Y * ex.T - ex.X * rho) / den
        e2 = -(ex.X * ex.T + ex.Y * rho) / den
        e3 = -ex.T / den
        return e1, e2, e3

    def label(self):
        return "inv"


@dataclass(frozen=True)
class Reflect:
    def exprs(self):
        return ex.X, -ex.Y, -ex.T

    def label(self):
        return "refl"


@dataclass(frozen=True)
class LinearSL2:
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

    def exprs(self):
        return (self.a * ex.X + self.b * ex.Y,
                self.c * ex.X + self.d * ex.Y,
                ex.T)

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


class HeisMap:
    """A map of the group held as three coordinate expressions."""

    def __init__(self, e1: Expr, e2: Expr, e3: Expr, name: str = ""):
        self.e1, self.e2, self.e3 = e1, e2, e3
        self.name = name
        self._reading = None
        self._composed = None   # (inner, self after inner), the last composite

    def __call__(self, p) -> Point:
        return Point(*(v.real for v in eval_at((self.e1, self.e2, self.e3), p)))

    def reading(self, p, order: int) -> Reading:
        """The map's reading at the single point p, evaluated again only
        for a new point or a higher order, and to order 3 at least, the
        order both Schwarzians read, so a gate that reads a lower order
        first does not cost a second evaluation. Points are told apart by
        their bits, so -0.0 and 0.0 are two points."""
        key = struct.pack("3d", *p)
        r = self._reading
        if r is None or r.key != key or r.jets[0].order < order:
            r = self._reading = Reading(key, jet_eval((self.e1, self.e2, self.e3), p,
                                                      max(order, 3)))
        return r

    def jets(self, p, order: int):
        """The three component jets to `order` at p, from the reading; at
        an (N, 3) array of points, batched jets, evaluated afresh."""
        if np.ndim(p) == 2:
            return jet_eval((self.e1, self.e2, self.e3), p, order)
        return tuple(j.truncate(order) for j in self.reading(p, order).jets)

    def compose(self, inner: "HeisMap") -> "HeisMap":
        """self after inner: (self.compose(g))(p) = self(g(p)).

        The last composite is kept, keyed by the inner map object, so the
        laws that read one pair's composite share it and its reading."""
        c = self._composed
        if c is None or c[0] is not inner:
            c = self._composed = (inner, HeisMap(
                *ex.subs((self.e1, self.e2, self.e3), inner.e1, inner.e2, inner.e3),
                name=f"{self.name or '?'}∘{inner.name or '?'}"))
        return c[1]

    def __repr__(self):
        return f"HeisMap({self.name or 'anonymous'})"


IDENTITY = HeisMap(ex.X, ex.Y, ex.T, name="id")


def word_to_map(word) -> HeisMap:
    """Compose a generator word, rightmost generator applied first."""
    word = list(word)
    m = HeisMap(ex.X, ex.Y, ex.T)
    for gen in reversed(word):
        m = HeisMap(*gen.exprs()).compose(m)
    # a map of its own, so the name goes on no composite that a map keeps
    return HeisMap(m.e1, m.e2, m.e3, "∘".join(gen.label() for gen in word) or "id")


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
        if part == "inv":
            word.append(Invert())
            continue
        if part == "refl":
            word.append(Reflect())
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
        if head == "trans" and len(args) == 3:
            word.append(Translate(tuple(args)))
        elif head == "dil" and len(args) == 1:
            word.append(Dilate(args[0]))
        elif head == "rot" and len(args) == 1:
            word.append(Rotate(args[0]))
        elif head == "sl2" and len(args) == 4:
            word.append(LinearSL2(*args))
        else:
            raise ParseError(f"unknown word letter {part!r}")
    return word
