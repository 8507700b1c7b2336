"""Command line interface.

Subcommands: orbit, preper, height, bounds, equid, scan, factor.  The
semigroup comes from a JSON config file ({"generators": [{"a": "2", "d": 2},
...]}); words are written as comma-separated 1-based generator indices.

Exit codes: 0 ok, 2 invalid config or option (checked as it is parsed; a
rational must print back, a degree must be an integer, --depth >= 0,
--degree-cap and --node-cap >= 1, --samples in 1..MAX_SAMPLES; scan refuses
a repeated prime in -S and, as it reads no degree cap, one other than 512),
3 cap exceeded (a tree, enumeration, degree or factoring cap, the root
budget of the class stream, an OverflowGuard size or step budget, or an
output number past the int-to-text digit limit), 4 internal invariant
violation.  A scan stopped by its node cap (a count of classes) or the root
budget, or holding a Gamma residual above --tol, still writes its partial
report, marked "truncated", and exits 3; every other cap ends the command
with no output.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .bounds import LinFormInstance, linform_bound, verify_linform
from .errors import (DegreeCapExceeded, EnumerationCap, FactorBudgetExceeded,
                     InvalidConfig, MonodynError, OverflowGuard, TreeSizeCap)
from .galois import DEGREE_CAP
from .heights import (SequenceSpec, canonical_height_closed,
                      canonical_height_iterative, equilibrium_radius,
                      jensen_check)
from .orbits import is_preperiodic, orbit_tree
from .places import INF, Place, log_abs
from .polynomials import UniPoly
from .polyfactor import factor_poly
from .preper import enumerate_preperiodic, minimal_polynomial
from .primes import is_prime
from .radical import RadicalPoint
from .scan import ScanConfig, capped_classes, report_to_csv, run_scan
from .semigroup import Semigroup, Word, format_word, parse_rational, parse_word


def _checked(parse, ok, what: str):
    """An argparse type: parse(text) when it parses and passes ok, else
    InvalidConfig, which main reports with exit 2."""
    def convert(text: str):
        try:
            x = parse(text)
            good = ok(x)
        except (ValueError, ZeroDivisionError):
            good = False
        if not good:
            raise InvalidConfig(f"{text!r} is not {what}")
        return x
    return convert


MAX_NODES = 1 << 20
MAX_SAMPLES = 10 ** 5   # about 0.1 ms a sample
EQUID_CAP = 10 ** 6     # points, summed over the rows of equid
_rational = _checked(parse_rational, lambda x: True, "a rational number")
_nonzero = _checked(parse_rational, bool, "a nonzero rational number")
_positive = _checked(float, lambda x: x > 0, "a positive number")
_nodes = _checked(int, lambda n: 16 <= n <= MAX_NODES,
                  f"a node count in 16..{MAX_NODES}")
_depth = _checked(int, lambda n: n >= 0, "a depth >= 0")
_degree_cap = _checked(int, lambda n: n >= 1, "a degree cap >= 1")
_node_cap = _checked(int, lambda n: n >= 1, "a node cap >= 1")
_samples = _checked(int, lambda n: 1 <= n <= MAX_SAMPLES,
                    f"a sample count in 1..{MAX_SAMPLES}")
_primes = _checked(lambda t: tuple(int(p) for p in t.split(",") if p.strip()),
                   lambda ps: all(p > 1 and is_prime(p) for p in ps),
                   "a comma-separated list of primes")
_polynomial = _checked(
    lambda t: UniPoly.from_coeffs([parse_rational(c) for c in t.split(",")]),
    lambda f: f.degree >= 1, "a polynomial of degree >= 1")


def _word(G: Semigroup, text: str) -> Word:
    """Comma-separated 1-based generator indices of G."""
    return _checked(parse_word, lambda w: all(0 <= i < G.s for i in w),
                    f"a word of indices 1..{G.s}")(text)


def _load_semigroup(path: str | None) -> Semigroup:
    if path is None:
        raise InvalidConfig("--config is required for this subcommand")
    with open(path) as fh:
        return Semigroup.from_json(fh.read())


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_orbit(args) -> int:
    G = _load_semigroup(args.config)
    x = RadicalPoint.from_rational(args.point)
    nodes = orbit_tree(G, x, args.depth)
    rows = [{"word": format_word(n.word), **n.point.to_json(),
             "repeats_prefix": n.repeats_prefix} for n in nodes]
    status = is_preperiodic(G, x, max(1, args.depth))
    doc = {"schema": "monodyn/1", "orbit": rows,
           "preperiodic": {"tag": status.tag,
                           "witness": format_word(status.witness_word)
                           if status.witness_word else None,
                           "prefix": status.witness_prefix,
                           "certificate": status.certificate}}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_preper(args) -> int:
    G = _load_semigroup(args.config)
    lines = []
    minpolys: dict = {}         # one text per class, shared by its points
    for ep in enumerate_preperiodic(G, args.depth):
        cls = ep.cls
        row = ep.point.to_json()
        row["witness"] = [format_word(ep.word), ep.prefix]
        if cls.key not in minpolys:
            minpolys[cls.key] = minimal_polynomial(
                cls.representative, degree_cap=args.degree_cap).to_strings() \
                if cls.degree <= args.degree_cap else None
        row["minpoly"] = minpolys[cls.key]
        row["degree"] = cls.degree
        lines.append(json.dumps(row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_height(args) -> int:
    G = _load_semigroup(args.config)
    g1, g2 = _word(G, args.g1), _word(G, args.g2)
    if not g2:
        raise InvalidConfig("--g2 must name a nonempty period word")
    est = canonical_height_iterative(G, SequenceSpec(g1, g2), args.beta,
                                     args.tol)
    closed = canonical_height_closed(G, g1, g2, args.beta)
    radius = equilibrium_radius(G, g1, g2)
    doc = {"schema": "monodyn/1", "beta": str(args.beta),
           "iterative": {"value": est.value, "error_bound": est.error_bound,
                         "steps": est.steps},
           "closed": closed, "equilibrium_radius": radius.radius}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


_ALPHA_POOL = [Fraction(x) for x in
               ("2", "3", "5", "1/2", "3/2", "-2", "5/3", "-7/4", "9/10", "6")]


def _cmd_bounds(args) -> int:
    rng = random.Random(args.seed)
    places = [INF, Place(2), Place(3), Place(5)]
    lines = ["id,v,log_lambda,bound,margin"]
    bad = made = 0
    while made < args.samples:
        n = rng.randint(1, 3)
        alphas = tuple(rng.choice(_ALPHA_POOL) for _ in range(n))
        bs = tuple(rng.randint(-50, 50) for _ in range(n))
        if all(b == 0 for b in bs):
            continue
        inst = LinFormInstance(alphas, bs, rng.choice(places))
        lam = inst.lam()
        if lam == 0:
            continue
        made += 1
        ll = log_abs(lam, inst.v).value
        b = linform_bound(inst)
        if not verify_linform(inst):
            bad += 1
        vname = "inf" if inst.v.is_archimedean else str(inst.v.p)
        lines.append(f"{made},{vname},{ll:.6e},{b:.6e},{ll - b:.6e}")
    _emit("\n".join(lines) + "\n", args.out)
    if bad:
        print(f"FATAL: {bad} bound violations", file=sys.stderr)
        return 4
    return 0


def _cmd_equid(args) -> int:
    """One row per class; EnumerationCap before the rows pass EQUID_CAP
    points, or once the class stream spends its root budget."""
    G = _load_semigroup(args.config)
    rows = [{"point": cls.representative.to_json(),
             "degree": cls.degree,
             "discrepancy": float(cls.discrepancy),
             "progressions": cls.progressions()}
            for cls, _, _ in capped_classes(G, args.depth, EQUID_CAP)]
    lhs, rhs, diff = jensen_check(1.0, args.beta, args.nodes)
    doc = {"schema": "monodyn/1", "classes": rows,
           "jensen": {"radius": 1.0, "beta": str(args.beta),
                      "nodes": args.nodes, "lhs": lhs, "rhs": rhs,
                      "diff": diff}}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_scan(args) -> int:
    if args.degree_cap != DEGREE_CAP:
        raise InvalidConfig("scan reads no --degree-cap")
    G = _load_semigroup(args.config)
    S = [INF] + [Place(p) for p in args.S]
    cfg = ScanConfig(G, S, args.beta, args.depth, args.tol, args.node_cap)
    report = run_scan(cfg)
    if args.format == "csv":
        _emit(report_to_csv(report), args.out)
    else:
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return 3 if report.truncated else 0


def _cmd_factor(args) -> int:
    f = args.coeffs
    factors = factor_poly(f, degree_cap=args.degree_cap, seed=args.seed)
    doc = {"schema": "monodyn/1",
           "input": f.to_strings(),
           "factors": [{"coeffs": g.to_strings(), "multiplicity": m}
                       for g, m in factors]}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _add_globals(ap, suppress: bool):
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    ap.add_argument("--config", default=d(None), help="semigroup JSON config path")
    ap.add_argument("--depth", type=_depth, default=d(4))
    ap.add_argument("--out", default=d(None), help="output path (default stdout)")
    ap.add_argument("--format", choices=["json", "csv"], default=d("json"))
    ap.add_argument("--seed", type=int, default=d(0))
    ap.add_argument("--tol", type=_positive, default=d(1e-9))
    ap.add_argument("--degree-cap", dest="degree_cap", type=_degree_cap,
                    default=d(DEGREE_CAP), help="preper and factor only")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="monodyn",
                                 description="exact monomial-semigroup dynamics")
    _add_globals(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_globals(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[common], **kw))

    p = sub.add_parser("orbit", help="orbit tree and preperiodicity status")
    p.add_argument("--point", required=True, type=_nonzero,
                   help="nonzero rational point, e.g. 1/2")

    p = sub.add_parser("preper", help="enumerate preperiodic points")

    p = sub.add_parser("height", help="canonical heights for a sequence")
    p.add_argument("--beta", required=True, type=_nonzero)
    p.add_argument("--g1", default="", help="preperiod word, 1-based indices")
    p.add_argument("--g2", default="1", help="period word, 1-based indices")

    p = sub.add_parser("bounds", help="linear-forms verification harness")
    p.add_argument("--samples", type=_samples, default=1000,
                   help=f"linear forms to check, 1..{MAX_SAMPLES}")

    p = sub.add_parser("equid", help="discrepancy of conjugate angles")
    p.add_argument("--beta", type=_rational, default="2")
    p.add_argument("--nodes", type=_nodes, default=1 << 12,
                   help=f"quadrature nodes, 16..{MAX_NODES}")

    p = sub.add_parser("scan", help="S-integral finiteness scan")
    p.add_argument("--beta", required=True, type=_rational)
    p.add_argument("-S", type=_primes, default="2,3,5",
                   help="finite primes of S (the archimedean place is implied)")
    p.add_argument("--node-cap", dest="node_cap", type=_node_cap,
                   default=10 ** 7,
                   help="classes the scan gives verdicts on before it stops")

    p = sub.add_parser("factor", help="factor a polynomial over Q")
    p.add_argument("coeffs", type=_polynomial,
                   help="coefficients low-to-high, e.g. 27,0,0,0,0,0,1; "
                   "after --, as in -- -2,0,1, when the first is negative")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # argparse < 3.13 stores [] for --opt=--, skipping the option's type
        if [] in vars(args).values():
            raise InvalidConfig("'--' is not an option value")
        # read at call time, so that a wrap or patch of a _cmd_ is what runs
        return {"orbit": _cmd_orbit, "preper": _cmd_preper,
                "height": _cmd_height, "bounds": _cmd_bounds,
                "equid": _cmd_equid, "scan": _cmd_scan,
                "factor": _cmd_factor}[args.command](args)
    except (InvalidConfig, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except (TreeSizeCap, EnumerationCap, DegreeCapExceeded,
            FactorBudgetExceeded, OverflowGuard) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (MonodynError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
