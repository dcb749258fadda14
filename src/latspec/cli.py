"""Command line interface.

Exit codes: 0 on success, 1 when the requested mathematical check fails,
2 when the command line or an input cannot be parsed (non-UTF-8 text
included) or an input fails its preconditions; a 2 comes with one JSON
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import emitters, sources
from .adjunction import (SpectrumDatum, SupportDatum, is_classifying,
                         preimage_uniqueness, universal_spectrum_map,
                         universal_support_map)
from .decomposition import decompose_semiprime
from .errors import DatumError, LatSpecError, SpaceError
from .instances import divisor_lattice, semiring_ideal_lattice
from .lattice import is_semiprime, radical, verify_axioms
from .topology import (hochster_dual, open_lattice, open_set_classification,
                       closed_set_classification, point_names,
                       support_classification, support_points,
                       verify_spectral, zariski_spectrum)

DEFAULT_ENUM_CAP = 1_000_000


class _InputFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as one JSON line on stderr, exit 2.

    Subparsers are built with the same class, since ``add_subparsers``
    defaults ``parser_class`` to the parent's type.
    """

    def error(self, message):
        self.exit(2, json.dumps({"error": f"{self.prog}: {message}"}) + "\n")


def _read_text(path):
    try:
        if path is None or path == "-":
            return sys.stdin.buffer.read().decode("utf-8"), "<stdin>"
        with open(path, encoding="utf-8") as handle:
            return handle.read(), path
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputFailure(f"cannot read {path!r}: {exc}") from None


def _load_lattice(path, require_valid=True):
    text, shown = _read_text(path)
    try:
        lat = sources.read_lattice(text, shown)
    except LatSpecError as exc:
        raise _InputFailure(str(exc)) from None
    if require_valid:
        report = verify_axioms(lat)
        if not report.ok:
            bad = report.failures()[0]
            witness = "" if not bad.witness else f" [witness: {', '.join(bad.witness)}]"
            raise _InputFailure(f"{shown}: invalid lattice: {bad.name} fails{witness}")
    return lat


def _load_space(path, require_spectral=False):
    text, shown = _read_text(path)
    try:
        space = sources.read_space(text, shown)
    except LatSpecError as exc:
        raise _InputFailure(str(exc)) from None
    if require_spectral:
        report = verify_spectral(space)
        if not report.ok:
            bad = report.failures()[0]
            raise _InputFailure(f"{shown}: space is not spectral: {bad.name} fails")
    return space


def _element(lat, name):
    try:
        return lat.index(name)
    except KeyError:
        raise _InputFailure(f"unknown element name {name!r}") from None


def _wants_dot(args):
    return getattr(args, "dot", False) or getattr(args, "format", "json") == "dot"


def _no_dot(args):
    if _wants_dot(args):
        raise _InputFailure("DOT output is not available for this command")


def _cmd_verify(args):
    lat = _load_lattice(args.lattice, require_valid=False)
    _no_dot(args)
    report = verify_axioms(lat)
    return report.ok, emitters.canonical_json(report.to_dict())


def _cmd_spec(args):
    lat = _load_lattice(args.lattice)
    spectrum = zariski_spectrum(lat)
    if _wants_dot(args):
        return True, emitters.space_dot(spectrum)
    return True, emitters.canonical_json({"primes": list(spectrum.names)})


def _cmd_dual(args):
    space = _load_space(args.space, require_spectral=True)
    dual = hochster_dual(space)
    if _wants_dot(args):
        return True, emitters.space_dot(dual)
    return True, emitters.canonical_json(emitters.space_json(dual))


def _cmd_radical(args):
    lat = _load_lattice(args.lattice)
    _no_dot(args)
    a = _element(lat, args.element)
    r = radical(lat, a)
    payload = {
        "element": lat.names[a],
        "radical": lat.names[r],
        "semiprime": is_semiprime(lat, a),
    }
    return True, emitters.canonical_json(payload)


def _cmd_supp(args):
    lat = _load_lattice(args.lattice)
    _no_dot(args)
    a = _element(lat, args.element)
    spectrum = zariski_spectrum(lat)
    payload = {
        "element": lat.names[a],
        "support": point_names(spectrum.names, support_points(lat, a)),
    }
    return True, emitters.canonical_json(payload)


def _cmd_classify(args):
    lat = _load_lattice(args.lattice)
    _no_dot(args)
    payload = {
        "closed": emitters.table_json(closed_set_classification(lat)),
        "open": emitters.table_json(open_set_classification(lat)),
        "support": emitters.table_json(support_classification(lat)),
    }
    return True, emitters.canonical_json(payload)


def _cmd_decompose(args):
    lat = _load_lattice(args.lattice)
    _no_dot(args)
    a = _element(lat, args.element)
    if not is_semiprime(lat, a):
        raise _InputFailure(f"element {lat.names[a]!r} is not semiprime "
                            f"(its radical is {lat.names[radical(lat, a)]!r})")
    spectrum = zariski_spectrum(lat)
    dec = decompose_semiprime(lat, a)
    return True, emitters.canonical_json(
        emitters.decomposition_json(lat, spectrum, dec))


def _cmd_openlattice(args):
    space = _load_space(args.space, require_spectral=True)
    lat = open_lattice(space)
    if _wants_dot(args):
        return True, emitters.lattice_dot(lat)
    return True, emitters.canonical_json(emitters.lattice_json(lat))


def _load_datum(args, lattice=None, space=None):
    text, shown = _read_text(args.datum)
    try:
        return sources.parse_datum(text, shown, lattice=lattice, space=space)
    except LatSpecError as exc:
        raise _InputFailure(str(exc)) from None


def _cmd_adjoint_check(args):
    lat = _load_lattice(args.lattice)
    space = _load_space(args.space)
    kind, lat, space, assignment = _load_datum(args, lattice=lat, space=space)
    payload = {"kind": kind}
    try:
        if kind == "delta":
            datum = SpectrumDatum(lat, space, assignment)
            f = universal_spectrum_map(datum)
        else:
            datum = SupportDatum(lat, space, assignment)
            f = universal_support_map(datum)
    except (DatumError, SpaceError) as exc:
        payload.update({"valid": False, "error": str(exc)})
        return False, emitters.canonical_json(payload)
    uniqueness = preimage_uniqueness(datum, cap=args.max_enum)
    payload.update({
        "valid": True,
        "map": {space.names[x]: f.target.names[f.mapping[x]]
                for x in range(space.n)},
        "preimage_identity": True,
        "uniqueness": uniqueness.to_dict(),
    })
    return uniqueness.passed, emitters.canonical_json(payload)


def _cmd_classifying(args):
    kind, lat, space, assignment = _load_datum(args)
    if kind != "sigma":
        raise _InputFailure("classifying expects a sigma (support) datum")
    report = verify_axioms(lat)
    if not report.ok:
        bad = report.failures()[0]
        raise _InputFailure(f"invalid lattice: {bad.name} fails")
    try:
        datum = SupportDatum(lat, space, assignment)
        answer = is_classifying(datum)
    except (DatumError, SpaceError) as exc:
        return False, emitters.canonical_json({"classifying": False,
                                               "error": str(exc)})
    return answer, emitters.canonical_json({"classifying": answer})


def _cmd_gen(args):
    _no_dot(args)
    if args.kind == "divisor":
        try:
            n = int(args.argument)
        except ValueError:
            raise _InputFailure("gen divisor expects an integer") from None
        if n < 1:
            raise _InputFailure("gen divisor expects a positive integer")
        try:
            lat = divisor_lattice(n)
        except LatSpecError as exc:
            raise _InputFailure(str(exc)) from None
        return True, sources.lattice_source(lat)
    text, shown = _read_text(args.argument)
    try:
        ring = sources.parse_semiring(text, shown)
        result = semiring_ideal_lattice(ring)
    except LatSpecError as exc:
        raise _InputFailure(str(exc)) from None
    return True, sources.lattice_source(result.lattice)


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "dot"), default="json")
    sub.add_argument("--dot", action="store_true",
                     help="shorthand for --format dot")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress output, keep the exit code")
    sub.add_argument("--max-enum", type=int,
                     help="cap on uniqueness enumeration size")


def _max_enum(flag):
    """The enumeration cap: the flag, else LATSPEC_MAX_ENUM, else the default."""
    if flag is not None:
        value, source = flag, "--max-enum"
    else:
        value = os.environ.get("LATSPEC_MAX_ENUM", DEFAULT_ENUM_CAP)
        source = "LATSPEC_MAX_ENUM"
        try:
            value = int(value)
        except ValueError:
            raise _InputFailure(
                f"LATSPEC_MAX_ENUM must be an integer, got {value!r}") from None
    if value < 1:
        raise _InputFailure(f"{source} must be at least 1, got {value}")
    return value


def _build_parser():
    parser = _Parser(
        prog="latspec",
        description="Finite ideal lattices: spectra, duals, supports, decompositions.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, *positional):
        sub = subs.add_parser(name)
        for arg, help_text in positional:
            if arg in ("lattice", "space", "datum"):
                sub.add_argument(arg, nargs="?", default="-", help=help_text)
            else:
                sub.add_argument(arg, help=help_text)
        _add_common(sub)
        sub.set_defaults(handler=handler)
        return sub

    command("verify", _cmd_verify, ("lattice", "lattice file or - for stdin"))
    command("spec", _cmd_spec, ("lattice", "lattice file or - for stdin"))
    command("dual", _cmd_dual, ("space", "space file or - for stdin"))
    command("radical", _cmd_radical, ("lattice", "lattice file or -"),
            ("element", "element name"))
    command("supp", _cmd_supp, ("lattice", "lattice file or -"),
            ("element", "element name"))
    command("classify", _cmd_classify, ("lattice", "lattice file or -"))
    command("decompose", _cmd_decompose, ("lattice", "lattice file or -"),
            ("element", "semiprime element name"))
    command("openlattice", _cmd_openlattice, ("space", "space file or -"))
    command("adjoint-check", _cmd_adjoint_check,
            ("lattice", "lattice file"), ("space", "space file"),
            ("datum", "datum file or - for stdin"))
    command("classifying", _cmd_classifying,
            ("datum", "datum file referencing lattice and space"))
    gen = subs.add_parser("gen")
    gen.add_argument("kind", choices=("divisor", "semiring"))
    gen.add_argument("argument", help="modulus for divisor, file for semiring")
    _add_common(gen)
    gen.set_defaults(handler=_cmd_gen)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.max_enum = _max_enum(args.max_enum)
        ok, text = args.handler(args)
    except _InputFailure as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    if text and not args.quiet:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
