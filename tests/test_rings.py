import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

from upg.rings import (
    DEFAULT_ORDER_CAP,
    FAMILIES,
    MAX_PROD_NESTING,
    NoUnityError,
    OrderCapError,
    RingAxiomError,
    RingSpecError,
    _is_irreducible,
    _smallest_irreducible,
    boolean_ring,
    characteristic,
    direct_product,
    family,
    gf,
    is_boolean,
    is_cyclic,
    is_prime,
    parse_ring_spec,
    unit_counts,
    units,
    zmod,
)
from upg.claims import default_rings
from upg.tables import table_ring, table_ring_from_json, validate_ring_axioms

from oracles import (
    _reference_modulus,
    bench_workloads,
    inverse_pair_count,
    prime_power,
    reference_gf_add,
    reference_gf_generator,
    reference_gf_inverses,
    reference_gf_mul,
    reference_gf_name,
    reference_is_irreducible,
    reference_product_name,
    reference_residues,
    reference_units,
    self_inverse_count,
)

DATA = Path(__file__).parent / "data"


def _prime_powers(limit):
    return [
        (p, k)
        for p in range(2, limit + 1)
        if is_prime(p)
        for k in range(1, limit.bit_length() + 1)
        if p**k <= limit
    ]


def test_is_prime_small():
    primes = [n for n in range(100) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_zmod_units_match_gcd():
    for n in range(1, 201):
        ring = zmod(n)
        got = set(units(ring).units)
        expected = {k for k in range(n) if math.gcd(k, n) == 1}
        if n == 1:
            expected = {0}
        assert got == expected, n


def test_zmod_inverses_are_inverses():
    rng = Random(7)
    for n in (2, 9, 11, 16, 24, 47, 60, 105, 128):
        ug = units(zmod(n))
        for x in ug.units:
            assert (x * ug.inverse(x)) % n == 1 % n
        # the inverse map is an involution
        for _ in range(10):
            x = rng.choice(ug.units)
            assert ug.inverse(ug.inverse(x)) == x


def test_zmod11_inverse_pairs():
    ug = units(zmod(11))
    pairs = sorted(
        tuple(sorted((x, ug.inverse(x)))) for x in ug.units if ug.inverse(x) != x
    )
    assert set(pairs) == {(2, 6), (3, 4), (5, 9), (7, 8)}
    assert [x for x in ug.units if ug.inverse(x) == x] == [1, 10]


def test_zmod14_structure():
    ug = units(zmod(14))
    assert ug.units == (1, 3, 5, 9, 11, 13)
    assert self_inverse_count(ug) == 2
    assert inverse_pair_count(ug) == 2
    assert ug.inverse(3) == 5 and ug.inverse(9) == 11


def test_self_inverse_counts():
    assert self_inverse_count(units(zmod(24))) == 8
    assert self_inverse_count(units(zmod(11))) == 2
    assert self_inverse_count(units(zmod(16))) == 4
    assert self_inverse_count(units(zmod(1))) == 1


def test_zmod1_degenerate():
    ring = zmod(1)
    assert ring.order == 1
    assert ring.unity == 0
    ug = units(ring)
    assert ug.units == (0,)
    assert inverse_pair_count(ug) == 0


def test_zmod_rejects_nonpositive():
    with pytest.raises(RingSpecError):
        zmod(0)
    with pytest.raises(RingSpecError):
        zmod(-3)


def test_order_cap():
    with pytest.raises(OrderCapError):
        zmod(5000)
    ring = zmod(5000, order_cap=10000)
    assert ring.order == 5000
    with pytest.raises(OrderCapError):
        gf(2, 13)
    with pytest.raises(OrderCapError):
        boolean_ring(13)


@pytest.mark.parametrize("cap", [1, 255, 256, 4096])
def test_size_checks_accept_exactly_the_orders_within_cap(cap):
    # gf(p, k) stands for a prime p, k >= 1 and p^k <= cap, bool:n for
    # n >= 1 and 2^n <= cap; only an order over the cap is an OrderCapError
    def prime(p):
        return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))

    for p in range(-2, cap + 3):
        for k in range(-1, cap.bit_length() + 3):
            fits = prime(p) and k >= 1 and p**k <= cap
            try:
                assert gf(p, k, order_cap=cap).order == p**k and fits, (p, k)
            except OrderCapError:
                assert p >= 2 and k >= 1 and p**k > cap, (p, k)
            except RingSpecError:
                assert not fits, (p, k)
    for n in range(-1, cap.bit_length() + 3):
        fits = n >= 1 and 2**n <= cap
        try:
            assert boolean_ring(n, order_cap=cap).order == 2**n and fits, n
        except OrderCapError:
            assert n >= 1 and not fits, n
        except RingSpecError:
            assert n < 1, n


def test_gf_prime_is_mod_p():
    ring = gf(7)
    assert ring.label == "GF(7)"
    assert ring.order == 7
    assert ring.mul(3, 5) == 1
    assert len(units(ring)) == 6


def test_gf_rejects_bad_args():
    with pytest.raises(RingSpecError):
        gf(4)
    with pytest.raises(RingSpecError):
        gf(6, 2)
    with pytest.raises(RingSpecError):
        gf(2, 0)


def test_gf4_tables():
    # modulus x^2 + x + 1; indices 0,1,x,x+1 encode base-2 digit strings
    ring = gf(2, 2)
    assert ring.label == "GF(4)"
    assert [ring.element_name(x) for x in range(4)] == ["0", "1", "x", "x+1"]
    x, x1 = 2, 3
    assert ring.mul(x, x) == x1
    assert ring.mul(x, x1) == 1
    assert ring.add(x, x1) == 1
    assert characteristic(ring) == 2


def test_default_rings_make_element_names_on_demand():
    # Every Z/n up to 2048 once held its n name strings from construction
    # on, about 145 MB in all; names are now made when asked for.
    resource = pytest.importorskip("resource")
    script = (
        "import resource\n"
        "from upg.claims import default_rings\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "rings = default_rings(zmod_max=2048)\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(rings[-1].element_name(7), grown)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    name, grown_kb = res.stdout.split()
    assert name == "(x+1,1)"  # the last default ring is GF(4) x Z/2
    assert int(grown_kb) < 40 * 1024  # ru_maxrss is in KiB on Linux


def test_gf9_modulus():
    # smallest monic irreducible over F3 of degree 2 is x^2 + 1, so x*x = -1
    ring = gf(3, 2)
    x = 3
    assert ring.mul(x, x) == 2
    assert characteristic(ring) == 3


def test_gf_every_nonzero_invertible():
    for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (5, 2)):
        ring = gf(p, k)
        ug = units(ring)
        assert len(ug) == ring.order - 1
        for a in ug.units:
            assert ring.mul(a, ug.inverse(a)) == ring.unity


def test_gf_field_axioms_hold():
    # distributivity ties the table mul to the digitwise add
    fields = [(p, k) for p, k in _prime_powers(32) if k >= 2]
    assert len(fields) == 7
    for p, k in fields:
        validate_ring_axioms(gf(p, k))


# every GF(p^k) with k >= 2 up to the order cap, GF(512) among them: the
# one whose modulus has no primitive root of degree <= 1
EXTENSION_FIELDS = [(p, k) for p, k in _prime_powers(DEFAULT_ORDER_CAP) if k >= 2]


def test_gf_mul_matches_reference():
    assert len(EXTENSION_FIELDS) == 40 and (2, 9) in EXTENSION_FIELDS
    rng = Random(14)
    for p, k in EXTENSION_FIELDS:
        ring, want = gf(p, k), reference_gf_mul(p, k)
        q = ring.order
        if q <= 64:
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        for a, b in pairs:
            assert ring.mul(a, b) == want(a, b), (q, a, b)


def test_gf_add_matches_reference():
    rng = Random(19)
    for p, k in EXTENSION_FIELDS:
        ring, want = gf(p, k), reference_gf_add(p, k)
        q = ring.order
        if q <= 64:
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        for a, b in pairs:
            assert ring.add(a, b) == want(a, b), (q, a, b)


def test_gf_generator_matches_lagrange_search():
    # inverses() is a dict built in exp order, g^0 = 1 first and g second,
    # so its second key is the generator the walk accepted
    for p, k in EXTENSION_FIELDS:
        assert list(gf(p, k).inverses())[1] == reference_gf_generator(p, k), (p, k)


def test_irreducibility_matches_trial_division():
    # degrees 2 and 3: irreducible iff no root; every monic one over p <= 13
    tally = Counter()
    for p in (2, 3, 5, 7, 11, 13):
        for k in (2, 3):
            for low in range(p**k):
                f = [low // p**i % p for i in range(k)] + [1]
                verdict = _is_irreducible(tuple(f), p)
                assert verdict == reference_is_irreducible(f, p), (p, f)
                tally[k, verdict] += 1
    assert len(tally) == 4 and min(tally.values()) >= 150, tally
    # degrees 4 to 6, where a factorization may have no root
    for p in (2, 3):
        for k in (4, 5, 6):
            for low in range(p**k):
                f = [low // p**i % p for i in range(k)] + [1]
                assert _is_irreducible(tuple(f), p) == reference_is_irreducible(f, p), (p, f)


def test_smallest_irreducible_matches_reference():
    for p, k in EXTENSION_FIELDS:
        assert list(_smallest_irreducible(p, k)) == _reference_modulus(p, k), (p, k)


def test_gf_inverses_match_candidate_walk():
    for p, k in EXTENSION_FIELDS:
        assert dict(units(gf(p, k)).inverse_of) == reference_gf_inverses(p, k), (p, k)


def _gf_namer(p, k):
    return lambda x: reference_gf_name(x, p, k)


PRODUCT_NAMERS = {
    "prod:(gf:2^4,gf:2^4)": [(16, _gf_namer(2, 4)), (16, _gf_namer(2, 4))],
    "prod:(zmod:2,gf:11^2)": [(2, str), (121, _gf_namer(11, 2))],
    "prod:(prod:(zmod:2,gf:2^2),gf:3)": [
        (8, lambda x: reference_product_name(x, [(2, str), (4, _gf_namer(2, 2))])),
        (3, str),
    ],
}


def test_element_names_match_reference():
    for p, k in EXTENSION_FIELDS:
        ring = gf(p, k)
        want = [reference_gf_name(x, p, k) for x in range(ring.order)]
        assert list(map(ring.element_name, range(ring.order))) == want, (p, k)
    for spec, components in PRODUCT_NAMERS.items():
        ring = parse_ring_spec(spec)
        want = [reference_product_name(x, components) for x in range(ring.order)]
        assert list(map(ring.element_name, range(ring.order))) == want, spec


def _bool_namer(k):
    return lambda x: reference_product_name(x, [(2, str)] * k)


# products whose units are few among their elements: only units are named
UNIT_NAMERS = {
    "prod:(zmod:16,bool:3)": [(16, str), (8, _bool_namer(3))],
    "prod:(zmod:2,gf:11^2)": [(2, str), (121, _gf_namer(11, 2))],
    **{f"bool:{k}": [(2, str)] * k for k in range(2, 13)},
}


def test_unit_labels_match_reference():
    # a ring graph's labels come from the units' names alone, made in bulk
    from upg.graphs import unity_product_graph

    for ring in family("gf", 4096):
        p, k = prime_power(ring.order)
        ug = units(ring)
        want = tuple(reference_gf_name(x, p, k) for x in ug.units)
        assert unity_product_graph(ug).labels == want, ring.label
    assert unity_product_graph(units(boolean_ring(1))).labels == ("1",)
    for spec, components in {**UNIT_NAMERS, **PRODUCT_NAMERS}.items():
        ug = units(parse_ring_spec(spec))
        want = tuple(reference_product_name(x, components) for x in ug.units)
        assert unity_product_graph(ug).labels == want, spec
        assert tuple(map(ug.ring.element_name, ug.units)) == want, spec


def test_gf_unit_group_is_cyclic():
    # multiplicative group of a finite field has a generator
    for p, k in ((2, 2), (2, 3), (3, 2), (2, 4)):
        ring = gf(p, k)
        m = ring.order - 1
        found = False
        for g0 in range(1, ring.order):
            acc, seen = ring.unity, set()
            for _ in range(m):
                acc = ring.mul(acc, g0)
                seen.add(acc)
            if len(seen) == m:
                found = True
                break
        assert found, (p, k)


def test_direct_product_structure():
    ring = direct_product([zmod(4), zmod(4)])
    assert ring.label == "Z/4 × Z/4"
    assert ring.order == 16
    ug = units(ring)
    assert len(ug) == 4
    # componentwise names
    assert ring.element_name(ug.units[0]) == "(1,1)"


def test_direct_product_nested_label():
    ring = parse_ring_spec("prod:(zmod:2,prod:(zmod:2,zmod:3))")
    assert ring.label == "Z/2 × (Z/2 × Z/3)"
    assert ring.order == 12


def test_direct_product_unit_counts_multiply():
    for parts in ((2, 3), (4, 5), (3, 3, 2)):
        ring = direct_product([zmod(n) for n in parts])
        expected = 1
        for n in parts:
            expected *= len(units(zmod(n)))
        assert len(units(ring)) == expected


def test_boolean_ring():
    ring = boolean_ring(3)
    assert ring.order == 8
    assert is_boolean(ring)
    assert len(units(ring)) == 1
    assert characteristic(ring) == 2
    assert boolean_ring(1).label == "Z/2"
    assert not is_boolean(zmod(6))
    assert is_boolean(zmod(2))


def test_is_boolean_matches_idempotent_scan():
    # a ring with a counts hook giving more than one unit is ruled out
    # without a product; the rest, table rings among them, are scanned, so
    # a stated single unit alone does not make a ring boolean
    def scan(ring):
        return ring.unity is not None and all(ring.mul(x, x) == x for x in range(ring.order))

    bool2 = boolean_ring(2)
    table = [[bool2.add(a, b) for b in range(4)] for a in range(4)]
    square = [[bool2.mul(a, b) for b in range(4)] for a in range(4)]
    rings = default_rings() + [boolean_ring(k) for k in range(1, 6)] + [
        gf(2, 1), gf(3, 1), zmod(1), table_ring(table, square, 0),
        parse_ring_spec(f"table:@{Path(__file__).parent / 'data' / 'table_z4.json'}"),
        parse_ring_spec("prod:(bool:2,zmod:2)"), parse_ring_spec("prod:(bool:2,zmod:3)"),
    ]
    booleans = [ring.label for ring in rings if is_boolean(ring)]
    assert booleans == [ring.label for ring in rings if scan(ring)]
    assert len(booleans) >= 8 and len(rings) - len(booleans) >= 8, booleans
    assert not is_boolean(replace(zmod(3), counts=lambda: (1, 1)))


def test_family_lists_each_family_in_order():
    gf_orders = []
    for q in range(2, 601):
        try:
            gf_orders.append(prime_power(q))
        except ValueError:
            pass
    fields = family("gf", 600)
    assert [r.label for r in fields] == [gf(p, k).label for p, k in gf_orders]
    assert [r.order for r in fields] == [p**k for p, k in gf_orders]
    rings = family("zmod", 12)
    assert [r.label for r in rings] == [f"Z/{n}" for n in range(1, 13)]
    assert [r.order for r in rings] == list(range(1, 13))
    rings = family("bool", 4)
    assert [r.label for r in rings] == [" × ".join(["Z/2"] * k) for k in range(1, 5)]
    assert [r.order for r in rings] == [2, 4, 8, 16]
    assert family("gf", 1) == [] and all(family(name, 0) == [] for name in FAMILIES)


def test_family_rejects_unknown_name():
    with pytest.raises(RingSpecError, match="unknown ring family 'prod'"):
        family("prod", 4)


def test_characteristic():
    assert characteristic(zmod(12)) == 12
    assert characteristic(gf(3, 2)) == 3
    assert characteristic(direct_product([zmod(2), zmod(3)])) == 6


def test_cyclic_recognition():
    assert is_cyclic(zmod(8))
    assert is_cyclic(direct_product([zmod(2), zmod(3)]))  # CRT
    assert not is_cyclic(direct_product([zmod(2), zmod(4)]))
    assert not is_cyclic(direct_product([zmod(3), zmod(3)]))
    assert not is_cyclic(gf(2, 2))
    assert not is_cyclic(boolean_ring(2))


def test_cyclic_residues_is_isomorphism():
    ring = direct_product([zmod(2), zmod(3)])
    res = reference_residues(ring)
    assert res is not None
    n = ring.order
    assert sorted(res) == list(range(n))
    for a in range(n):
        for b in range(n):
            assert res[ring.add(a, b)] == (res[a] + res[b]) % n
            assert res[ring.mul(a, b)] == (res[a] * res[b]) % n


# The three tests below check the ``char`` field, which took over from the
# former ``residues`` hook: Z/n still indexes k.unity at k, so n is its char.


def test_zmod_residue_hook_matches_walk():
    for n in [*range(1, 301), 4093, 4096]:
        ring = zmod(n)
        assert ring.char == n == characteristic(replace(ring, char=None)), n
        assert reference_residues(ring) == tuple(range(n)), n
        assert is_cyclic(ring), n


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 4093])
def test_prime_field_residue_hook_matches_walk(p):
    ring = gf(p)
    assert ring.char == p == characteristic(replace(ring, char=None))
    assert reference_residues(ring) == reference_residues(zmod(p)) == tuple(range(p))
    assert is_cyclic(ring)


def test_residue_hook_only_on_zmod_and_prime_fields():
    # every structured family states char and decides is_cyclic with no add;
    # a table ring states none, and walks char - 1 adds from unity back to 0
    stated = [zmod(12), gf(7), boolean_ring(1), gf(2, 2), gf(3, 3), boolean_ring(3)]
    stated.append(direct_product([zmod(2), zmod(3)]))
    table = parse_ring_spec(f"table:@{DATA / 'table_z4.json'}")
    assert all(r.char is not None for r in stated)
    assert table.char is None
    for ring in [*stated, table]:
        added = []

        def add(a, b, ring=ring):
            added.append((a, b))
            return ring.add(a, b)

        assert is_cyclic(replace(ring, add=add)) == (reference_residues(ring) is not None)
        assert len(added) == (0 if ring.char is not None else characteristic(ring) - 1), ring.label
    assert [is_cyclic(r) for r in stated] == [True, True, True, False, False, False, True]


def test_table_ring_roundtrip():
    doc = json.loads((DATA / "table_z4.json").read_text())
    ring = parse_ring_spec(f"table:@{DATA / 'table_z4.json'}")
    assert ring.order == doc["order"]
    assert ring.unity == 1
    assert units(ring).units == (1, 3)
    assert characteristic(ring) == 4


def test_table_ring_without_unity():
    ring = parse_ring_spec(f"table:@{DATA / 'nounity.json'}")
    assert ring.unity is None
    with pytest.raises(NoUnityError):
        units(ring)
    assert characteristic(ring) == 2


def test_table_ring_unit_scan_pairs_inverses():
    # 2 and 3 are each other's inverse in Z/5: the scan finds 3 from 2 and
    # passes over 3 itself
    z5 = zmod(5)
    add = [[z5.add(a, b) for b in range(5)] for a in range(5)]
    mul = [[z5.mul(a, b) for b in range(5)] for a in range(5)]
    ring = table_ring(add, mul, 0)
    assert ring.inverses is None
    assert units(ring).inverse_of == units(z5).inverse_of == {1: 1, 2: 3, 3: 2, 4: 4}


def test_table_ring_axiom_witnesses():
    z3_add = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    z3_mul = [[(i * j) % 3 for j in range(3)] for i in range(3)]

    bad_add = [row[:] for row in z3_add]
    bad_add[0][1] = 2  # 0 + 1 must be 1
    with pytest.raises(RingAxiomError) as exc:
        table_ring(bad_add, z3_mul, 0)
    assert exc.value.axiom in ("add-commutative", "zero-identity", "add-associative")

    bad_mul = [row[:] for row in z3_mul]
    bad_mul[1][2] = 0  # breaks commutativity against mul[2][1]
    with pytest.raises(RingAxiomError) as exc:
        table_ring(z3_add, bad_mul, 0)
    assert exc.value.axiom == "mul-commutative"

    with pytest.raises(RingSpecError):
        table_ring([[0, 1]], z3_mul, 0)  # not square
    with pytest.raises(RingSpecError):
        table_ring(z3_add, z3_mul, 5)  # zero out of range


def test_table_ring_label_commas_replaced():
    add = [[0]]
    mul = [[0]]
    ring = table_ring(add, mul, 0, label="a,b")
    assert "," not in ring.label


def test_parse_ring_spec():
    assert parse_ring_spec("zmod:15").label == "Z/15"
    assert parse_ring_spec("gf:2^3").order == 8
    assert parse_ring_spec("gf:5").label == "GF(5)"
    assert parse_ring_spec("bool:2").order == 4
    assert parse_ring_spec(" zmod:7 ").order == 7
    ring = parse_ring_spec("prod:(zmod:2,zmod:3)")
    assert ring.label == "Z/2 × Z/3"


@pytest.mark.parametrize(
    "spec",
    [
        "zmod",
        "zmod:x",
        "gf:4",
        "gf:2^",
        "bool:abc",
        "prod:zmod:2",
        "prod:()",
        "prod:(zmod:2",
        "table:nofile",
        "table:@/nonexistent/path.json",
        "mystery:3",
        "",
        "prod:(" * (MAX_PROD_NESTING + 1) + "zmod:2" + ")" * (MAX_PROD_NESTING + 1),
    ],
)
def test_parse_ring_spec_rejects(spec):
    with pytest.raises(RingSpecError):
        parse_ring_spec(spec)


def test_labels_have_no_commas():
    rings = [
        zmod(24),
        gf(2, 4),
        boolean_ring(4),
        parse_ring_spec("prod:(zmod:2,prod:(zmod:3,zmod:5))"),
    ]
    for ring in rings:
        assert "," not in ring.label


@pytest.mark.parametrize(
    "key, value",
    [("mul", [[0, 0], [0, True]]), ("add", [[0, 1], [True, 0]]), ("order", True), ("zero", False)],
)
def test_table_ring_rejects_json_booleans(key, value):
    doc = {"order": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "zero": 0}
    table_ring_from_json(doc)  # the Z/2 tables themselves are fine
    if key == "order":
        doc = {**doc, "order": value, "add": [[0]], "mul": [[0]]}
    else:
        doc = {**doc, key: value}
    with pytest.raises(RingSpecError):
        table_ring_from_json(doc)


def _random_product_spec(rng, depth=0):
    leaves = [
        f"zmod:{rng.randint(1, 12)}",
        f"gf:{rng.choice(['2^2', '2^3', '3^2', '5', '7'])}",
        f"bool:{rng.randint(1, 3)}",
        f"table:@{DATA / 'table_z4.json'}",
    ]
    parts = []
    for _ in range(rng.randint(1, 3)):
        if depth < 2 and rng.random() < 0.3:
            parts.append(_random_product_spec(rng, depth + 1))
        else:
            parts.append(rng.choice(leaves))
    return "prod:(" + ",".join(parts) + ")"


def _random_product_specs(count):
    rng = Random(2024)
    out = []
    while len(out) < count:
        spec = _random_product_spec(rng)
        try:
            parse_ring_spec(spec, order_cap=256)
        except OrderCapError:
            continue
        out.append(spec)
    return out


def _scan_reference_rings():
    """Z/1..Z/300, Z/4093, Z/4096, every GF(q) with q <= 729, bool:1..8
    and 60 seeded random products, at least a third with table parts."""
    specs = _random_product_specs(60)
    assert sum("table:" in spec for spec in specs) >= 20
    assert sum(spec.count("prod:") > 1 for spec in specs) >= 10
    return [
        *(zmod(n) for n in (*range(1, 301), 4093, 4096)),
        *(gf(p, k) for p, k in _prime_powers(729)),
        *(boolean_ring(k) for k in range(1, 9)),
        *(parse_ring_spec(spec, order_cap=256) for spec in specs),
    ]


def test_units_match_scan_reference():
    # the per-family inverse hooks against the former all-products scan
    for ring in _scan_reference_rings():
        got, want = units(ring), reference_units(ring)
        assert got.units == want.units, ring.label
        assert dict(got.inverse_of) == dict(want.inverse_of), ring.label


def test_char_matches_walk():
    # the characteristic each family states against the additive walk, and
    # is_cyclic against the former walk of the orbit of unity
    tables = [parse_ring_spec(f"table:@{DATA / n}") for n in ("table_z4.json", "nounity.json")]
    rings = [*_scan_reference_rings(), gf(4093)]  # and the largest prime field under the cap
    for ring in rings:
        assert ring.char is not None, ring.label
        assert characteristic(ring) == characteristic(replace(ring, char=None)), ring.label
    for ring in rings + tables:
        assert is_cyclic(ring) == (reference_residues(ring) is not None), ring.label
    assert [is_cyclic(ring) for ring in tables] == [True, False]


def _euler_phi(n):
    return sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)


@pytest.mark.parametrize(
    "spec, unit_count",
    [
        ("gf:2^12", 2**12 - 1),
        ("gf:3^7", 3**7 - 1),
        ("bool:12", 1),
        ("zmod:4093", _euler_phi(4093)),
        ("gf:4093", 4093 - 1),
        ("prod:(gf:2^6,zmod:64)", (2**6 - 1) * _euler_phi(64)),
    ],
)
def test_units_at_order_cap(spec, unit_count):
    ring = parse_ring_spec(spec)
    ug = units(ring)
    assert len(ug) == unit_count
    assert len(ug.inverse_of) == unit_count
    mul = ring.mul
    if spec.startswith("gf:"):  # not the tables the inverses come from
        p, _, k = spec[3:].partition("^")
        mul = reference_gf_mul(int(p), int(k or 1))
    for x in ug.units:
        assert mul(x, ug.inverse(x)) == ring.unity


def test_unit_counts_match_unit_group():
    # the counts hooks against the unit group: its size, and the units x
    # with x * x = 1; a table ring, alone or as a product component, has
    # no hook and is counted off its unit group
    workloads = bench_workloads()
    bench_specs = {
        op.argv[op.argv.index("--ring") + 1]
        for name in workloads.WORKLOADS
        for seed in (1, 2)
        for op in workloads.generate(name, seed)
        if "--ring" in op.argv
    }
    assert sum(spec.startswith("prod:") for spec in bench_specs) >= 30
    table = parse_ring_spec(f"table:@{DATA / 'table_z4.json'}")
    with_table = parse_ring_spec(f"prod:(zmod:3,table:@{DATA / 'table_z4.json'},gf:2^2)")
    structured = [
        *(zmod(n) for n in (*range(1, 301), 4093, 4096)),
        *(gf(p, k) for p, k in _prime_powers(4096)),
        *(boolean_ring(k) for k in range(1, 13)),
        *default_rings(),
        *(parse_ring_spec(spec) for spec in sorted(bench_specs)),
        parse_ring_spec("prod:(zmod:1,zmod:1)"),
        with_table,
    ]
    assert table.counts is None and all(ring.counts is not None for ring in structured)
    for ring in [*structured, table]:
        ug = units(ring)
        squares = [ring.mul(x, x) for x in ug.units]
        assert unit_counts(ring) == (len(ug), squares.count(ring.unity)), ring.label
    assert unit_counts(with_table) == (2 * 2 * 3, 2 * 2 * 1)  # Z/3 x Z/4 x GF(4)


@pytest.mark.parametrize(
    "spec", ["zmod:12", "gf:7", "gf:3^4", "bool:1", "bool:5", "prod:(zmod:4,gf:2^3)"]
)
def test_structured_families_have_inverse_hook(spec):
    # a family without the hook falls back to the O(order^2) scan
    assert parse_ring_spec(spec).inverses is not None
