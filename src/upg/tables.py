"""Finite commutative rings given by explicit Cayley tables.

A table ring is read from row-major addition and multiplication tables,
or from a JSON document holding them (the ``table:@FILE`` spec).  Its
axioms are checked exhaustively, O(order^3), and its unity is found by
scan.  ``rings.parse_ring_spec`` imports this module the first time it
reads a ``table:`` spec, so no structured ring family loads it.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Sequence

from .rings import (
    DEFAULT_ORDER_CAP,
    FiniteRing,
    OrderCapError,
    RingAxiomError,
    RingSpecError,
)


def validate_ring_axioms(ring: FiniteRing) -> None:
    """Exhaustively check the commutative-ring axioms.

    Raises RingAxiomError naming the first failed axiom, in a fixed check
    order, with a witness tuple.  O(order^3): intended for table rings.
    """
    n = ring.order
    rng = range(n)
    for a in rng:
        for b in rng:
            if not 0 <= ring.add(a, b) < n:
                raise RingAxiomError("add-closure", (a, b))
            if not 0 <= ring.mul(a, b) < n:
                raise RingAxiomError("mul-closure", (a, b))
    for a in rng:
        for b in rng:
            if ring.add(a, b) != ring.add(b, a):
                raise RingAxiomError("add-commutative", (a, b))
    for a in rng:
        for b in rng:
            for c in rng:
                if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
                    raise RingAxiomError("add-associative", (a, b, c))
    for a in rng:
        if ring.add(a, ring.zero) != a:
            raise RingAxiomError("zero-identity", (a,))
    for a in rng:
        if all(ring.add(a, b) != ring.zero for b in rng):
            raise RingAxiomError("additive-inverse", (a,))
    for a in rng:
        for b in rng:
            if ring.mul(a, b) != ring.mul(b, a):
                raise RingAxiomError("mul-commutative", (a, b))
    for a in rng:
        for b in rng:
            for c in rng:
                if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
                    raise RingAxiomError("mul-associative", (a, b, c))
    for a in rng:
        for b in rng:
            for c in rng:
                if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
                    raise RingAxiomError("distributive", (a, b, c))
    if ring.unity is not None:
        for a in rng:
            if ring.mul(ring.unity, a) != a:
                raise RingAxiomError("unity-identity", (ring.unity, a))


def _find_unity(ring: FiniteRing) -> int | None:
    for u in range(ring.order):
        if all(ring.mul(u, a) == a for a in range(ring.order)):
            return u
    return None


def _is_index(v: object) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not indices
    return isinstance(v, int) and not isinstance(v, bool)


def table_ring(
    add_table: Sequence[Sequence[int]],
    mul_table: Sequence[Sequence[int]],
    zero: int,
    *,
    label: str | None = None,
    element_names: Sequence[str] | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteRing:
    """Ring given by explicit row-major Cayley tables.

    Axioms are validated exhaustively; unity is located by scan and left
    None when absent.
    """
    n = len(add_table)
    if n < 1:
        raise RingSpecError("table: empty addition table")
    if n > order_cap:
        raise OrderCapError(n, order_cap)
    for name, tbl in (("add", add_table), ("mul", mul_table)):
        square = all(isinstance(row, (list, tuple)) and len(row) == n for row in tbl)
        if len(tbl) != n or not square:
            raise RingSpecError(f"table: {name} table is not {n}x{n}")
        for i, row in enumerate(tbl):
            for j, v in enumerate(row):
                if not _is_index(v) or not 0 <= v < n:
                    raise RingSpecError(f"table: {name}[{i}][{j}] = {v!r} out of range")
    if not 0 <= zero < n:
        raise RingSpecError(f"table: zero index {zero} out of range")
    if label is not None and not isinstance(label, str):
        raise RingSpecError(f"table: label must be a string, got {label!r}")
    add_rows = tuple(tuple(row) for row in add_table)
    mul_rows = tuple(tuple(row) for row in mul_table)
    if element_names is None:
        names = tuple(str(i) for i in range(n))
    else:
        if not isinstance(element_names, (list, tuple)) or not all(
            isinstance(name, str) for name in element_names
        ):
            raise RingSpecError("table: element_names must be a list of strings")
        if len(element_names) != n:
            raise RingSpecError("table: element name count does not match order")
        names = tuple(element_names)
    for text in (label or "", *names):  # one line each, as a CSV row needs
        if "".join(text.splitlines()) != text:
            raise RingSpecError(f"table: label or element name {text!r} has a line break")
    if '"' in (label or ""):  # a CSV ring field that starts with " is read as quoted
        raise RingSpecError(f"table: label {label!r} has a double quote")
    # labels must stay comma free, CSV output relies on it
    ring = FiniteRing(
        order=n,
        add=lambda a, b: add_rows[a][b],
        mul=lambda a, b: mul_rows[a][b],
        zero=zero,
        unity=None,
        label=label.replace(",", ";") if label is not None else f"table({n})",
        element_name=names.__getitem__,
    )
    validate_ring_axioms(ring)
    return replace(ring, unity=_find_unity(ring))


def table_ring_from_file(path: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """The table ring of the JSON document in the file at ``path``, as a
    ``table:@path`` spec names it; a file that cannot be read or parsed
    raises RingSpecError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise RingSpecError(f"table: cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RingSpecError(f"table: invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise RingSpecError(f"table: JSON in {path} is nested too deeply") from None
    return table_ring_from_json(doc, order_cap=order_cap)


def table_ring_from_json(doc: object, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Build a table ring from a parsed JSON document.

    Required keys: order, add, mul (row-major matrices), zero.  Optional:
    label, element_names.
    """
    if not isinstance(doc, dict):
        raise RingSpecError("table: document must be a JSON object")
    for key in ("order", "add", "mul", "zero"):
        if key not in doc:
            raise RingSpecError(f"table: missing key {key!r}")
    order = doc["order"]
    if not _is_index(order) or order < 1:
        raise RingSpecError(f"table: order must be a positive integer, got {order!r}")
    if not isinstance(doc["add"], list) or not isinstance(doc["mul"], list):
        raise RingSpecError("table: add and mul must be matrices")
    if len(doc["add"]) != order or len(doc["mul"]) != order:
        raise RingSpecError("table: matrix size does not match order")
    if not _is_index(doc["zero"]):
        raise RingSpecError("table: zero must be an element index")
    return table_ring(
        doc["add"],
        doc["mul"],
        doc["zero"],
        label=doc.get("label"),
        element_names=doc.get("element_names"),
        order_cap=order_cap,
    )
