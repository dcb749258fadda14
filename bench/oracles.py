"""Output oracles, independent of the code under test.

Each factory returns ``check(code, stdout, stderr)``, which gives None for a
correct job and otherwise a short reason.  Expected values come from
arithmetic on the generator's own construction (factorisations, bitmask
opens, the map a datum was pulled back along), never from latspec.
"""

from __future__ import annotations

import json
from math import gcd, prod

CHECK_NAMES = ("order_reflexive", "order_antisymmetric", "order_transitive",
               "L1_complete", "L2_compactly_generated", "mul_associative",
               "L3_distributive", "L3_nullary_annihilation", "L4_unit",
               "L5_compact_products")


def lattice_text(names, top, bottom, covers, mul, header="# lattice description",
                 mul_token=None):
    """The sectioned lattice format; ``mul_token`` = (row, col, token) override."""
    lines = [header, "elements: " + " ".join(names), f"top: {names[top]}",
             f"bottom: {names[bottom]}",
             ("leq: " + " ".join(f"{names[a]}<{names[b]}" for a, b in covers)).rstrip(),
             "mul:"]
    for a, row in enumerate(mul):
        tokens = [f"{names[a]}*{names[b]}={names[c]}" for b, c in enumerate(row)]
        if mul_token is not None and mul_token[0] == a:
            tokens[mul_token[1]] = mul_token[2]
        lines.append("  " + " ".join(tokens))
    return "\n".join(lines) + "\n"


def _short(value, limit=160):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _exact(expected_code, expected_out):
    """Exit code, stdout (text, or an object compared as parsed JSON), and
    nothing on stderr."""
    def check(code, out, err):
        if code != expected_code:
            return f"exit {code}, expected {expected_code}; stderr {_short(err)}"
        if err:
            return f"stderr not empty: {_short(err)}"
        if isinstance(expected_out, str):
            if out != expected_out:
                return f"stdout differs from the expected text: {_short(out)}"
            return None
        try:
            got = json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {_short(out)}"
        if got != expected_out:
            return f"stdout {_short(got)} != expected {_short(expected_out)}"
        return None
    return check


def input_error(message):
    """Exit 2, nothing on stdout, stderr one JSON line (with ``message`` if given)."""
    def check(code, out, err):
        if code != 2:
            return f"exit {code}, expected 2; stderr {_short(err)}"
        if out:
            return f"stdout not empty: {_short(out)}"
        lines = err.splitlines()
        try:
            obj = json.loads(lines[0]) if len(lines) == 1 else None
        except ValueError:
            obj = None
        if not isinstance(obj, dict) or not isinstance(obj.get("error"), str):
            return f"stderr is not one JSON error line: {_short(err)}"
        if message is not None and obj["error"] != message:
            return f"error {_short(obj['error'])} != expected {_short(message)}"
        return None
    return check


# --------------------------------------------------------------------------
# divisor lattices


def _rad(d, primes):
    return prod(p for p in primes if d % p == 0)


def divisor_command(lat, argv):
    """Expected result of a command on the valid lattice of ideals of Z/n."""
    command = argv[0]
    primes = lat.primes
    if command == "verify":
        return report(0, [(name, True, None) for name in CHECK_NAMES])
    if command == "spec":
        expected = {"primes": [str(p) for p in primes]}
    elif command == "radical":
        d = int(argv[2])
        expected = {"element": str(d), "radical": str(_rad(d, primes)),
                    "semiprime": _rad(d, primes) == d}
    elif command == "supp":
        d = int(argv[2])
        expected = {"element": str(d), "support": [str(p) for p in primes if d % p]}
    elif command == "classify":
        semiprimes = [d for d in lat.divs if _rad(d, primes) == d]

        def table(kind, order, divides):
            return {"kind": kind, "order": order,
                    "pairs": [[str(d), [str(p) for p in primes if (d % p == 0) == divides]]
                              for d in semiprimes]}
        expected = {"closed": table("closed", "reversing", True),
                    "open": table("open", "preserving", False),
                    "support": table("support", "preserving", False)}
    elif command == "decompose":
        # supp(a) is the set of primes not dividing a; Spec is discrete, so the
        # blocks are rad(n)/p for those primes and distinct blocks meet in rad(n).
        a = int(argv[2])
        rad_n = prod(primes)
        outside = [p for p in primes if a % p]
        several = len(outside) >= 2
        meets_bottom = rad_n == lat.n if several else True
        expected = {"target": str(a),
                    "blocks": [{"element": str(rad_n // p), "support": [str(p)]}
                               for p in outside],
                    "pairwise_meet": str(rad_n) if several else None,
                    "meets_equal_bottom": meets_bottom,
                    "meet_discrepancy": not meets_bottom,
                    "degenerate": not outside}
    else:
        raise ValueError(command)
    return _exact(0, expected)


def report(expected_code, checks):
    """A ``verify`` report with the given (name, passed, witness) per check."""
    def check(code, out, err):
        if code != expected_code:
            return f"exit {code}, expected {expected_code}; stderr {_short(err)}"
        if err:
            return f"stderr not empty: {_short(err)}"
        try:
            got = json.loads(out)
            seen = [(c["name"], c["passed"], c["witness"]) for c in got["checks"]]
        except (ValueError, KeyError, TypeError):
            return f"stdout is not a verify report: {_short(out)}"
        want = [(name, passed, list(w) if w is not None else None)
                for name, passed, w in checks]
        if seen != want or got.get("ok") != all(p for _, p, _ in checks):
            return f"report {_short(seen, 400)} != expected {_short(want, 400)}"
        return None
    return check


# --------------------------------------------------------------------------
# broken lattices


def associativity_witness(mul, changed):
    """Smallest (a, b, c) with (ab)c != a(bc), given a table that was
    associative before entry ``changed`` = (r, s) was altered.

    Every violation must read the altered entry in one of its four lookups,
    so only those triples are candidates.
    """
    r, s = changed
    n = len(mul)
    candidates = {(r, s, c) for c in range(n)} | {(a, r, s) for a in range(n)}
    for a in range(n):
        for b in range(n):
            if mul[a][b] == r:
                candidates.add((a, b, s))
            if mul[a][b] == s:
                candidates.add((r, a, b))
    bad = [t for t in candidates
           if mul[mul[t[0]][t[1]]][t[2]] != mul[t[0]][mul[t[1]][t[2]]]]
    return min(bad) if bad else None


def _order_masks(n, covers):
    """Up-set and down-set bitmasks of the order generated by cover pairs."""
    above = [[] for _ in range(n)]
    below = [[] for _ in range(n)]
    for a, b in covers:
        above[a].append(b)
        below[b].append(a)
    up, down = [0] * n, [0] * n
    # A cover a < b has b = a / p, so b precedes a in the numeric order.
    for i in range(n):
        up[i] = 1 << i
        for b in above[i]:
            up[i] |= up[b]
    for i in reversed(range(n)):
        down[i] = 1 << i
        for a in below[i]:
            down[i] |= down[a]
    return up, down


def expected_checks(lat, facts):
    """(name, passed, witness names) for every axiom check of a broken lattice."""
    names = [str(d) for d in lat.divs]
    n = len(names)
    mul = facts["mul"]
    top, bottom = 0, n - 1

    def named(witness):
        return tuple(names[i] for i in witness) if witness is not None else None

    l1 = None
    if len(facts["covers"]) != len(lat.covers()):
        up, down = _order_masks(n, facts["covers"])
        least = {mask: x for x, mask in enumerate(up)}
        greatest = {mask: x for x, mask in enumerate(down)}
        l1 = next(((a,) for a in range(n)
                    if not up[a] >> top & 1 or not down[a] >> bottom & 1), None)
        if l1 is None:
            l1 = next(((a, b) for a in range(n) for b in range(a + 1, n)
                       if up[a] & up[b] not in least
                       or down[a] & down[b] not in greatest), None)
    l1_ok = l1 is None

    assoc = l3 = None
    if "changed" in facts:
        assoc = associativity_witness(mul, facts["changed"])
        index = lat.index
        divs = lat.divs

        def lub(x, y):
            return index[gcd(divs[x], divs[y])]

        for a in sorted(set(facts["changed"])):
            l3 = next(((a, b, c) for b in range(n) for c in range(n)
                       if mul[a][lub(b, c)] != lub(mul[a][b], mul[a][c])
                       or mul[lub(b, c)][a] != lub(mul[b][a], mul[c][a])), None)
            if l3 is not None:
                break
    nullary = next(((a,) for a in range(n)
                    if mul[bottom][a] != bottom or mul[a][bottom] != bottom), None)
    unit = next(((a,) for a in range(n) if mul[top][a] != a or mul[a][top] != a), None)
    return [("order_reflexive", True, None), ("order_antisymmetric", True, None),
            ("order_transitive", True, None), ("L1_complete", l1_ok, named(l1)),
            ("L2_compactly_generated", l1_ok, None),
            ("mul_associative", assoc is None, named(assoc)),
            ("L3_distributive", l1_ok and l3 is None, named(l3)),
            ("L3_nullary_annihilation", nullary is None, named(nullary)),
            ("L4_unit", unit is None, named(unit)),
            ("L5_compact_products", l1_ok, None)]


# The check each mutation is built to break.
MUTATION_TARGET = {"missing_join": "L1_complete", "product_interior": "mul_associative",
                   "product_unit": "L4_unit", "product_bottom": "L3_nullary_annihilation"}


def broken_command(lat, kind, command, path, facts):
    """verify reports the failing checks with exit 1; spec refuses with exit 2."""
    if kind == "malformed":
        return input_error(f"{path}:{facts['line']}: expected nameA*nameB=nameC, "
                           f"got {facts['token']!r}")
    checks = expected_checks(lat, facts)
    failed = dict((name, witness) for name, passed, witness in checks if not passed)
    if MUTATION_TARGET[kind] not in failed:
        raise AssertionError(f"{kind} mutation leaves {MUTATION_TARGET[kind]} intact")
    if command == "verify":
        return report(1, checks)
    name, witness = next(iter(failed.items()))
    suffix = f" [witness: {', '.join(witness)}]" if witness else ""
    return input_error(f"{path}: invalid lattice: {name} fails{suffix}")


# --------------------------------------------------------------------------
# finite spaces and support data


def sorted_masks(masks):
    """Point-set bitmasks in latspec's canonical (size, members) order."""
    return sorted(masks, key=lambda u: (bin(u).count("1"),
                                        [i for i in range(u.bit_length()) if u >> i & 1]))


def space_command(command, names, opens):
    """dual: the complements of the opens; openlattice: opens under inclusion."""
    m = len(names)
    full = (1 << m) - 1

    def members(mask):
        return [names[i] for i in range(m) if mask >> i & 1]

    if command == "dual":
        closed = sorted_masks(full ^ u for u in opens)
        return _exact(0, {"points": list(names), "opens": [members(c) for c in closed]})
    ordered = sorted_masks(opens)
    position = {u: i for i, u in enumerate(ordered)}
    elements = ["{" + ",".join(members(u)) + "}" for u in ordered]
    # Opens of a T0 space are the up-sets of its specialisation order, so
    # covers add exactly one point.
    covers = sorted((position[u], position[v]) for u in ordered for v in ordered
                    if u & v == u and bin(v ^ u).count("1") == 1)
    expected = {"elements": elements, "top": elements[position[full]],
                "bottom": elements[position[0]],
                "leq": [[elements[a], elements[b]] for a, b in covers],
                "mul": [[elements[a], elements[b], elements[position[u & v]]]
                        for a, u in enumerate(ordered) for b, v in enumerate(ordered)]}
    return _exact(0, expected)


def adjoint_check(lat, names, mapping):
    """The universal map is the map the datum was pulled back along, and it
    is the only solution among all |Spec|^|points| candidates."""
    expected = {"kind": "sigma", "valid": True, "preimage_identity": True,
                "map": {names[x]: str(lat.primes[f]) for x, f in enumerate(mapping)},
                "uniqueness": {"name": "uniqueness", "passed": True, "witness": None,
                               "note": f"checked {len(lat.primes) ** len(mapping)} "
                                       f"candidate maps, found 1 solution(s)"}}
    return _exact(0, expected)


def classifying(bijective):
    """A pulled-back support datum classifies exactly when the map is a
    bijection onto Spec* (both spaces are then discrete)."""
    return _exact(0 if bijective else 1, {"classifying": bijective})


# --------------------------------------------------------------------------
# gen divisor and gen semiring


def gen_divisor(lat):
    """Divisors from the factorisation, ascending; covers d < d/p; d*e = gcd(de, n)."""
    text = lattice_text([str(d) for d in lat.divs], 0, len(lat.divs) - 1,
                        lat.covers(), lat.mul)
    return _exact(0, text)


def _ideal_text(ideals, labels, product):
    """Lattice text for ideals given as sorted member-index tuples."""
    ideals = sorted(ideals, key=lambda s: (len(s), s))
    position = {s: i for i, s in enumerate(ideals)}
    names = ["{" + ",".join(labels[x] for x in s) + "}" for s in ideals]
    covers = sorted((position[s], position[t]) for s in ideals for t in ideals
                    if len(t) > len(s) and set(s) <= set(t)
                    and not any(len(s) < len(u) < len(t) and set(s) <= set(u) <= set(t)
                                for u in ideals))
    mul = [[position[product(s, t)] for t in ideals] for s in ideals]
    return lattice_text(names, position[max(ideals, key=len)], position[ideals[0]],
                        covers, mul)


def gen_zn(n, labels):
    """Ideals of Z/n are dZ/nZ for d | n, and (d)(e) = (gcd(de, n)): the
    ideal lattice is the divisor lattice of n."""
    ideal = {d: tuple(range(0, n, d)) for d in range(1, n + 1) if n % d == 0}
    generator = {members: d for d, members in ideal.items()}
    return _exact(0, _ideal_text(ideal.values(), labels,
                                 lambda s, t: ideal[gcd(generator[s] * generator[t], n)]))


def gen_powerset(k, labels):
    """Ideals of (subsets, union, intersection) are the 2^k principal
    down-sets, and the product of down(S) and down(T) is down(S & T)."""
    size = 1 << k
    ideal = {top: tuple(s for s in range(size) if s & ~top == 0) for top in range(size)}
    generator = {members: top for top, members in ideal.items()}
    return _exact(0, _ideal_text(ideal.values(), labels,
                                 lambda s, t: ideal[generator[s] & generator[t]]))
