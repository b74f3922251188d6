"""Finite commutative rings on a dense index domain.

Every ring here lives on the index set ``0 .. order-1``; ``add`` and ``mul``
are total functions on that domain.  Constructors cover modular integers,
prime fields and their extensions, boolean rings and direct products;
rings given by explicit Cayley tables live in ``tables.py``, which
``parse_ring_spec`` imports the first time it reads a ``table:`` spec.

The structured families state a ring's ``unit_counts`` and characteristic
from the order alone, with no ``units`` and no ``add``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate, compress, product, repeat
from operator import eq
from typing import Callable, Mapping, Sequence

DEFAULT_ORDER_CAP = 4096
# Deepest prod:( ... ) nesting parse_ring_spec accepts.  Parsing, the
# product unit-group hook and nested add/mul all recurse once per level,
# so this keeps every one of them far below Python's recursion limit.
MAX_PROD_NESTING = 64


class RingError(Exception):
    """Base class for ring construction and usage errors."""


class RingSpecError(RingError):
    """A ring family spec string or parameter set is invalid."""


class OrderCapError(RingError):
    """Requested ring order exceeds the configured cap.

    ``order`` is the order, or the text ``p^k`` for a power too large to
    build.
    """

    def __init__(self, order: int | str, cap: int):
        super().__init__(f"ring order {order} exceeds cap {cap}")
        self.order = order
        self.cap = cap


class RingAxiomError(RingError):
    """A Cayley-table ring violates a ring axiom.

    Carries the name of the first failed axiom and a witness tuple of
    element indices.
    """

    def __init__(self, axiom: str, witness: tuple[int, ...]):
        super().__init__(f"axiom violated: {axiom} at witness {witness}")
        self.axiom = axiom
        self.witness = witness


class NoUnityError(RingError):
    """The ring has no multiplicative identity, so units are undefined."""

    def __init__(self, label: str):
        super().__init__(f"ring {label} has no unity element")
        self.label = label


@dataclass(frozen=True)
class FiniteRing:
    """A finite commutative ring with elements indexed 0 .. order-1.

    ``unity`` is None for rings without a multiplicative identity; such
    rings can be built and inspected but have no unit group.

    ``element_name`` names an element index.  Names are made on demand:
    a ring of order n holds no n strings until its first name is asked
    for, and then the structured families build all n at once.
    ``unit_names``, when set, returns the units' names alone, in unit
    order, in bulk (GF(q) and products); ``bool:8`` names one unit, not
    256 elements.

    ``inverses``, when set, returns the unit group as a map from each unit
    to its inverse, computed from the ring family's structure.  ``units``
    calls it lazily and falls back to scanning products when it is None.

    ``counts``, when set, returns ``unit_counts`` with no unit group
    (Z/n, GF(q) and products).

    ``char``, when set, is the characteristic (Z/n, GF(q) and products);
    table rings leave it None and ``characteristic`` walks for it.
    """

    order: int
    add: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    zero: int
    unity: int | None
    label: str
    element_name: Callable[[int], str]
    inverses: Callable[[], dict[int, int]] | None = None
    counts: Callable[[], tuple[int, int]] | None = None
    char: int | None = None
    unit_names: Callable[[], Sequence[str]] | None = None


@dataclass(frozen=True)
class UnitGroup:
    """The units of a ring, ordered by element index.

    ``inverse_of`` maps each unit's element index to the index of its
    multiplicative inverse.
    """

    ring: FiniteRing
    units: tuple[int, ...]
    inverse_of: Mapping[int, int]

    def inverse(self, x: int) -> int:
        return self.inverse_of[x]

    def __len__(self) -> int:
        return len(self.units)

    def counts(self) -> tuple[int, int]:
        """(u, s): the number of units and of self-inverse units."""
        inverses = map(self.inverse_of.__getitem__, self.units)
        return len(self.units), sum(map(eq, self.units, inverses))


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise OrderCapError(order, cap)


def _check_power_cap(p: int, k: int, cap: int) -> None:
    """_check_cap(p**k, cap) for p >= 2 and k >= 1, deciding a base above
    the cap or an exponent above its bit length (so 2^k > cap) before the
    power is built; such an order is named as p or p^k."""
    if p > cap or k > cap.bit_length():
        raise OrderCapError(p if k == 1 else f"{p}^{k}", cap)
    _check_cap(p**k, cap)


def is_prime(n: int) -> bool:
    if n < 4:
        return n >= 2
    return n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def zmod(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Integers modulo n.  Rejects n < 1."""
    if n < 1:
        raise RingSpecError(f"zmod: modulus must be positive, got {n}")
    _check_cap(n, order_cap)
    return FiniteRing(
        order=n,
        add=lambda a, b: (a + b) % n,
        mul=lambda a, b: (a * b) % n,
        zero=0,
        unity=1 % n,
        label=f"Z/{n}",
        element_name=str,
        inverses=lambda: _zmod_inverses(n),
        counts=lambda: _zmod_counts(n),
        char=n,
    )


def _prime_factors(n: int) -> dict[int, int]:
    """Each prime factor of n >= 1, ascending, mapped to its exponent, by
    trial division."""
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = 1
    return factors


def _zmod_counts(n: int) -> tuple[int, int]:
    """(u, s) of Z/n: (Z/n)^x is the product of the (Z/p^e)^x, of order
    (p - 1) p^(e-1), with two square roots of 1 for odd p and one, two or
    four for 2, 4 or 2^e, e >= 3 (Ireland and Rosen, ch. 4)."""
    u = s = 1
    for p, e in _prime_factors(n).items():
        u *= (p - 1) * p ** (e - 1)
        s *= 2 if p > 2 else min(2 ** (e - 1), 4)
    return u, s


def _zmod_inverses(n: int) -> dict[int, int]:
    """Each unit of Z/n mapped to its inverse.

    The units are the residues that no prime factor of n divides: the
    multiples of each factor, found by trial division, are cleared from
    a bytearray by slice assignment, and the rest are picked and inverted
    in C.
    """
    coprime = bytearray(b"\x01") * n
    for p in _prime_factors(n):
        coprime[::p] = bytes((n - 1) // p + 1)
    units = list(compress(range(n), coprime))
    return dict(zip(units, map(pow, units, repeat(-1), repeat(n))))


def _poly_rem(num: Sequence[int], monic: Sequence[int], p: int) -> list[int]:
    """The remainder of num by a monic polynomial over GF(p), both low
    coefficients first, as its len(monic) - 1 coefficients."""
    num, d = list(num), len(monic) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            for j, m in enumerate(monic):
                num[i - d + j] = (num[i - d + j] - c * m) % p
    return num[:d]


def _monic_polys(p: int, degree: int):
    """Yield all monic polynomials of the given degree, low coeffs first,
    counting up the index sum(c_i * p^i)."""
    for high_first in product(range(p), repeat=degree):
        yield high_first[::-1] + (1,)


def _is_irreducible(f: Sequence[int], p: int, divisors: Sequence | None = None) -> bool:
    """Whether the monic f, of degree k >= 2, is irreducible over GF(p).

    A factor of degree 1 is a root, looked for by Horner evaluation at
    each point of GF(p); that settles k <= 3, where every factorization
    has one.  Factors of degree 2 .. k/2 are looked for by trial division
    by ``divisors``, the monic irreducibles of those degrees, which
    ``_irreducibles`` finds when they are not given.
    """
    for a in range(p):
        value = 0
        for c in reversed(f):
            value = (value * a + c) % p
        if value == 0:
            return False
    if divisors is None:
        divisors = _irreducibles(p, (len(f) - 1) // 2)
    return all(any(_poly_rem(f, g, p)) for g in divisors)


def _irreducibles(p: int, top: int) -> list[tuple[int, ...]]:
    """The monic irreducibles of degree 2 .. top over GF(p), in the order
    _monic_polys yields them, each tested against those of degree at most
    half its own found before it."""
    found: list[tuple[int, ...]] = []
    for d in range(2, top + 1):
        smaller = [g for g in found if 2 * len(g) - 2 <= d]
        found += [g for g in _monic_polys(p, d) if _is_irreducible(g, p, smaller)]
    return found


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    The first irreducible _monic_polys yields: it counts up the index
    sum(c_i * p^i), which orders the coefficient tuple (c_{k-1}, ..., c_0)
    read most-significant first.  Its trial divisors are found once.
    """
    divisors = _irreducibles(p, k // 2)
    for f in _monic_polys(p, k):
        if _is_irreducible(f, p, divisors):
            return f
    raise RingSpecError(f"no irreducible polynomial of degree {k} over GF({p})")


def gf(p: int, k: int = 1, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Galois field GF(p^k), elements encoded as base-p digit strings.

    Index sum(c_i * p^i) stands for the polynomial sum(c_i * x^i) in the
    quotient by the lexicographically smallest monic irreducible of
    degree k.  For k = 1 this is arithmetic mod p.

    For k >= 2 the ring builds its tables on first use from packed
    vectors: the digits of an index in one int, one w-bit field each, so
    that one fold reduces every digit of a sum of two mod p.  ``add`` is
    that sum; only the exp table needs the modulus, which is searched for
    then.  Multiplying by c is GF(p)-linear: it maps the low and the high
    digits through images spanned by the basis c * x^i, each got from the
    one before by a shift.  The generator g is the first index >= p whose
    powers, walked so, return to 1 only after q - 1 steps; a candidate
    among the powers of one that failed is skipped.  The walk of g is the
    exp table; mul adds logs mod q - 1 and g^i inverts to g^-i.  The
    first name asked for names every element: one ``"".join`` per element
    over its digits' terms, each ending in "+", then one ``replace`` drops
    the last "+" of every name.
    """
    if k < 1:
        raise RingSpecError(f"gf: extension degree must be >= 1, got {k}")
    # size first: trial division on a huge p would not finish
    if p >= 2:
        _check_power_cap(p, k, order_cap)
    if not is_prime(p):
        raise RingSpecError(f"gf: {p} is not prime")
    order = p**k
    if k == 1:
        return replace(zmod(p, order_cap=order_cap), label=f"GF({p})")

    # digit i of a packed vector sits in bits i*w onwards: adding 2^(w-1) - p
    # to a sum of two sets each field's top bit iff its digit sum is >= p
    w, h = p.bit_length() + 1, k // 2
    shifts = range(0, k * w, w)
    fields = sum(1 << s for s in shifts)
    fold, top, head = (2 ** (w - 1) - p) * fields, fields << (w - 1), k * w

    def plus(u: int, v: int) -> int:
        s = u + v
        return s - (((s + fold) & top) * p >> (w - 1))

    @cache
    def vectors() -> tuple[list[int], dict[int, int]]:
        columns = [[c << s for c in range(p)] for s in reversed(shifts)]
        packed = list(map(sum, product(*columns)))
        return packed, dict(zip(packed, range(order)))

    def images(c: int, wrap: list[int]) -> list[list[int]]:
        # c * lo for each value of the low h digits and c * x^h * hi of the
        # high k - h, spanned one basis vector c * x^i at a time
        basis = [vectors()[0][c]]
        for _ in range(k - 1):
            v = basis[-1] << w  # times x, the x^k digit wrapped round
            basis.append(plus(v & ((1 << head) - 1), wrap[v >> head]))
        spans = []
        for part in (basis[:h], basis[h:]):
            span = [0]
            for b in part:
                multiples = list(accumulate(repeat(b, p - 1), plus, initial=0))
                span = [plus(m, s) for m in multiples for s in span]
            spans.append(span)
        return spans

    @cache
    def tables() -> tuple[list[int], list[int]]:
        # exp[i] = g^i, walked as g * (lo + x^h * hi) = g * lo + (g * x^h) * hi
        # with plus inline (a call per step costs 15-30% more); log[exp[i]] = i;
        # wrap[c] = c * x^k mod the modulus, which is c times minus its lower terms
        modulus = _smallest_irreducible(p, k)
        wrap = [sum((-c * m % p) << s for m, s in zip(modulus, shifts)) for c in range(p)]
        index, split, failed = vectors()[1], p**h, set()
        for g in range(p, order):
            if g in failed:
                continue
            low, high = images(g, wrap)
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                v = low[x % split] + high[x // split]
                x = index[v - (((v + fold) & top) * p >> (w - 1))]
            if len(exp) == order - 1:
                break
            failed.update(exp)  # their orders divide this one's
        log = [0] * order
        for i, v in enumerate(exp):
            log[v] = i
        return exp, log

    def add(a: int, b: int) -> int:
        packed, index = vectors()
        return index[plus(packed[a], packed[b])]

    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        exp, log = tables()
        return exp[(log[a] + log[b]) % (order - 1)]

    def inverses() -> dict[int, int]:
        exp = tables()[0]
        return dict(zip(exp, exp[:1] + exp[:0:-1]))  # g^i -> g^-i

    @cache
    def names() -> list[str]:
        # per position, most significant first, the term "c x^i+" of each digit
        powers = ["", "x"] + [f"x^{i}" for i in range(2, k)]
        columns = [
            [""] + [("" if c == 1 and i else str(c)) + powers[i] + "+" for c in range(1, p)]
            for i in reversed(range(k))
        ]
        # the last name, every digit p - 1, ends in the one "+" no newline follows
        out = "\n".join(map("".join, product(*columns))).replace("+\n", "\n")[:-1].split("\n")
        out[0] = "0"
        return out

    return FiniteRing(
        order=order,
        add=add,
        mul=mul,
        zero=0,
        unity=1,
        label=f"GF({order})",
        element_name=lambda x: names()[x],
        inverses=inverses,
        counts=lambda: (order - 1, 1 if p == 2 else 2),  # x^2 = 1 has the roots 1 and -1
        char=p,
        unit_names=lambda: names()[1:],
    )


def direct_product(
    components: Sequence[FiniteRing], *, order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteRing:
    """Componentwise product ring; indices are mixed-radix encodings.

    The first component is most significant.  Unity exists iff every
    component has one.  The unit group is the product of the components'
    unit groups, folded by index arithmetic: each unit x of the components
    so far and unit u of the next one, of order m, give the unit x*m + u,
    in ``product`` order; its counts are the products of the components'
    ``unit_counts``, its ``char`` the lcm of theirs.  An element is named
    "(a,b)" from its components' names; ``unit_names`` joins the
    components' unit names in one ``product``.
    """
    if not components:
        raise RingSpecError("direct product needs at least one component")
    comps = tuple(components)
    order = math.prod(r.order for r in comps)
    _check_cap(order, order_cap)

    def decode(x: int) -> list[int]:
        out = []
        for r in reversed(comps):
            out.append(x % r.order)
            x //= r.order
        out.reverse()
        return out

    def encode(parts: Sequence[int]) -> int:
        v = 0
        for r, x in zip(comps, parts):
            v = v * r.order + x
        return v

    def add(a: int, b: int) -> int:
        da, db = decode(a), decode(b)
        return encode([r.add(x, y) for r, x, y in zip(comps, da, db)])

    def mul(a: int, b: int) -> int:
        da, db = decode(a), decode(b)
        return encode([r.mul(x, y) for r, x, y in zip(comps, da, db)])

    groups = cache(lambda: [units(r) for r in comps])  # the components' unit groups

    def inverses() -> dict[int, int]:
        # (R x S)^x = R^x x S^x, inverted componentwise
        inverse_of = {0: 0}
        for r, ug in zip(comps, groups()):
            m, inv = r.order, ug.inverse_of
            inverse_of = {
                x * m + u: y * m + inv[u] for x, y in inverse_of.items() for u in ug.units
            }
        return inverse_of

    zero = encode([r.zero for r in comps])
    if all(r.unity is not None for r in comps):
        unity = encode([r.unity for r in comps])
    else:
        unity = None

    def wrap(lbl: str) -> str:
        return f"({lbl})" if " × " in lbl else lbl

    def element_name(v: int) -> str:
        return "(" + ",".join([r.element_name(x) for r, x in zip(comps, decode(v))]) + ")"

    def unit_names() -> list[str]:
        columns = [
            r.unit_names() if r.unit_names else map(r.element_name, ug.units)
            for r, ug in zip(comps, groups())
        ]
        return [f"({name})" for name in map(",".join, product(*columns))]

    def counts() -> tuple[int, int]:  # a unit is self-inverse iff each part is
        return tuple(map(math.prod, zip(*map(unit_counts, comps))))

    label = " × ".join(wrap(r.label) for r in comps)
    return FiniteRing(
        order=order, add=add, mul=mul, zero=zero, unity=unity, label=label,
        element_name=element_name, inverses=inverses, counts=counts, unit_names=unit_names,
        char=math.lcm(*map(characteristic, comps)),
    )


def boolean_ring(n_copies: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Product of n_copies copies of Z/2; every element is idempotent."""
    if n_copies < 1:
        raise RingSpecError(f"bool: copy count must be >= 1, got {n_copies}")
    _check_power_cap(2, n_copies, order_cap)
    if n_copies == 1:
        return zmod(2, order_cap=order_cap)
    return direct_product([zmod(2) for _ in range(n_copies)], order_cap=order_cap)


FAMILIES = ("zmod", "gf", "bool")


def family(name: str, maximum: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> list[FiniteRing]:
    """The rings of one family, in order: Z/1 .. Z/maximum (``zmod``),
    GF(q) for every prime power q <= maximum (``gf``), or 1 .. maximum
    copies of Z/2 (``bool``).

    Each q is factored by trial division as the loop reaches it, so the
    first ring over the cap raises OrderCapError at any maximum.
    """
    if name == "zmod":
        return [zmod(n, order_cap=order_cap) for n in range(1, maximum + 1)]
    if name == "bool":
        return [boolean_ring(n, order_cap=order_cap) for n in range(1, maximum + 1)]
    if name != "gf":
        raise RingSpecError(f"unknown ring family {name!r}")
    rings = []
    for q in range(2, maximum + 1):
        factors = _prime_factors(q)
        if len(factors) == 1:
            rings.append(gf(*factors.popitem(), order_cap=order_cap))
    return rings


def unit_counts(ring: FiniteRing) -> tuple[int, int]:
    """(u, s), the number of units and of self-inverse ones, from the ring's
    ``counts`` hook or else ``units``; NoUnityError without unity."""
    if ring.unity is None:
        raise NoUnityError(ring.label)
    return ring.counts() if ring.counts is not None else units(ring).counts()


def units(ring: FiniteRing) -> UnitGroup:
    """The unit group; raises NoUnityError when the ring has no unity.

    Uses the ring's ``inverses`` hook when it has one (Z/n, GF(q) and
    products); otherwise, as for table rings, tries every product.
    """
    if ring.unity is None:
        raise NoUnityError(ring.label)
    if ring.inverses is not None:
        inverse_of = ring.inverses()
    else:
        e = ring.unity
        inverse_of = {}
        for x in range(ring.order):
            if x in inverse_of:
                continue
            for y in range(ring.order):
                if ring.mul(x, y) == e:
                    inverse_of[x] = y
                    inverse_of[y] = x
                    break
    members = tuple(sorted(inverse_of))
    return UnitGroup(ring=ring, units=members, inverse_of=inverse_of)


def characteristic(ring: FiniteRing) -> int:
    """Least n >= 1 with n.x = 0 for all x: the ring's ``char`` when set,
    else the additive order of unity if present."""
    if ring.char is not None:
        return ring.char
    if ring.unity is not None:
        return _additive_order(ring, ring.unity)
    result = 1
    for x in range(ring.order):
        result = math.lcm(result, _additive_order(ring, x))
    return result


def _additive_order(ring: FiniteRing, x: int) -> int:
    acc = x
    n = 1
    while acc != ring.zero:
        acc = ring.add(acc, x)
        n += 1
    return n


def is_boolean(ring: FiniteRing) -> bool:
    """True when the ring has unity and every element is idempotent.  Its
    one unit is then 1 (x = x^2 * x^-1 = 1), so a ring whose ``counts``
    hook gives more units is ruled out with no product taken.  A ring with
    one unit is boolean by the structure theorem; the scan is kept so that
    thm-3.1's hypothesis does not restate its conclusion."""
    if ring.unity is None or ring.counts is not None and ring.counts()[0] != 1:
        return False
    return all(ring.mul(x, x) == x for x in range(ring.order))


def is_cyclic(ring: FiniteRing) -> bool:
    """True when the ring is isomorphic to Z/order: it has unity and the
    additive order of unity, its characteristic, is the order."""
    return ring.unity is not None and characteristic(ring) == ring.order


def split_top_level(text: str) -> list[str]:
    """Split text at the commas outside parentheses; unbalanced ones raise."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise RingSpecError(f"unbalanced parentheses in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise RingSpecError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def decimal_int(text: str) -> int:
    """An integer in ASCII decimal digits, with an optional minus sign and
    surrounding whitespace, else ValueError; ``int`` alone would also take
    ``+5``, ``1_0`` and non-ASCII digits."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)  # a ValueError too past the digits int() converts


def _parse_int(text: str, what: str) -> int:
    try:
        return decimal_int(text)
    except ValueError:
        raise RingSpecError(f"{what}: expected an integer, got {text!r}") from None


def parse_ring_spec(text: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Parse a ring family spec string.

    Grammar: ``zmod:N``, ``gf:P^K`` (or ``gf:P``), ``bool:N``,
    ``prod:(spec,spec,...)`` nested at most ``MAX_PROD_NESTING`` deep, and
    ``table:@file.json``.
    """
    return _parse_spec(text, order_cap, 0)


def _parse_spec(text: str, order_cap: int, nesting: int) -> FiniteRing:
    spec = text.strip()
    if ":" not in spec:
        raise RingSpecError(f"malformed ring spec {text!r}")
    family, _, arg = spec.partition(":")
    family = family.strip()
    arg = arg.strip()
    if family == "zmod":
        return zmod(_parse_int(arg, "zmod"), order_cap=order_cap)
    if family == "gf":
        if "^" in arg:
            p_text, _, k_text = arg.partition("^")
            p = _parse_int(p_text, "gf")
            k = _parse_int(k_text, "gf")
        else:
            p, k = _parse_int(arg, "gf"), 1
        return gf(p, k, order_cap=order_cap)
    if family == "bool":
        return boolean_ring(_parse_int(arg, "bool"), order_cap=order_cap)
    if family == "prod":
        if nesting == MAX_PROD_NESTING:
            raise RingSpecError(f"prod: nested deeper than {MAX_PROD_NESTING} levels")
        if not (arg.startswith("(") and arg.endswith(")")):
            raise RingSpecError(f"prod: expected parenthesized component list in {text!r}")
        inner = arg[1:-1]
        if not inner.strip():
            raise RingSpecError("prod: empty component list")
        comps = [_parse_spec(c, order_cap, nesting + 1) for c in split_top_level(inner)]
        return direct_product(comps, order_cap=order_cap)
    if family == "table":
        if not arg.startswith("@"):
            raise RingSpecError("table: expected @<path to json file>")
        from .tables import table_ring_from_file

        return table_ring_from_file(arg[1:], order_cap=order_cap)
    raise RingSpecError(f"unknown ring family {family!r}")
