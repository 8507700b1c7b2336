"""The four benchmark workloads: inputs from a seed, operations, checks.

Each workload builds a list of Op from its seed.  An Op is one call the
benchmark times (``fn``) and a check of its output (``check``, which returns
a failure reason or None and runs outside the timed region).  Why each
workload exists is recorded in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# ops call through the modules, so that the spans installed on them apply
from monodyn import cli, polyfactor, scan
from monodyn.orbits import is_preperiodic
from monodyn.places import INF, Place
from monodyn.polynomials import UniPoly
from monodyn.preper import capelli_reducible
from monodyn.radical import RadicalPoint
from monodyn.scan import ScanConfig
from monodyn.semigroup import Semigroup

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
OUT = HERE / "out"

S4 = [INF, Place(2), Place(3), Place(5)]
G_TWIN = {"generators": [{"a": "2", "d": 2}, {"a": "3", "d": 3}]}
G_SWEEP = {"generators": [{"a": "-5/2", "d": 3}, {"a": "4", "d": -2}]}

# the radicands of the Capelli oracle test (tests/test_acceptance.py, c04)
CAPELLI_POOL = [Fraction(x) for x in (
    "2", "3", "5", "-2", "-3", "4", "-4", "8", "-8", "9", "16", "-16", "27",
    "-27", "32", "64", "-64", "1/2", "-1/2", "1/4", "-1/4", "4/9", "-4/9",
    "8/27", "-8/27", "9/4", "27/8", "-27/8", "6", "-6", "12", "-12", "36",
    "-36", "100", "125", "-125", "216", "1/3", "-1/3", "2/3", "-2/3", "49",
    "-49", "81", "256", "-256", "625", "7", "-7")]


@dataclass
class Op:
    label: str
    fn: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    """ops dealt round-robin into `slices` parts of equal work; a timed
    process runs one part, and part -1 is every op in one process."""

    ops: list[Op]
    sizes: dict
    slices: int = 1

    def slice(self, k: int) -> list[Op]:
        return self.ops if k < 0 else self.ops[k % self.slices::self.slices]


@dataclass(frozen=True)
class Params:
    """Sizes of each workload; the self-test shrinks them."""

    twin_depth: int = 5
    sweep_depth: int = 4
    sweep_betas: int = 24
    sweep_slices: int = 4
    preper_depth: int = 3
    equid_depth: int = 4
    capelli_max_m: int = 24
    capelli_radicands: int = len(CAPELLI_POOL)
    eisenstein_products: int = 100
    factor_slices: int = 4


FULL = Params()
SMALL = Params(twin_depth=3, sweep_depth=3, sweep_betas=3, sweep_slices=1,
               preper_depth=2, equid_depth=3, capelli_max_m=2,
               capelli_radicands=4, eisenstein_products=4, factor_slices=1)


# ---------------------------------------------------------------------------
# output digests


def canonical(obj):
    """JSON-ready copy with every float rounded to 1e-9 (and -0.0 -> 0.0)."""
    if isinstance(obj, float):
        return round(obj, 9) + 0.0
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    path = GOLDEN / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _golden_key(params: Params) -> str:
    return "full" if params == FULL else "small"


# ---------------------------------------------------------------------------
# scan-twin: one cold run_scan on the acceptance configuration


def scan_twin(seed: int, params: Params = FULL) -> Workload:
    """The input is fixed; the seed does not change it."""
    cfg = ScanConfig(Semigroup.from_json(G_TWIN), S4, Fraction(2),
                     params.twin_depth)
    golden_path = GOLDEN / f"scan-twin-d{params.twin_depth}.json"

    def check(report) -> str | None:
        doc = canonical(report.to_json())
        if doc["truncated"]:
            return "truncated: " + "; ".join(doc["notes"])
        # the two S-integral classes have witnesses of length 1 and 2, so
        # the last two lengths are free of them from depth 4 on
        if params.twin_depth >= 4 and not doc["stabilization"]:
            return "no stabilization"
        if doc["s_integral_classes"] != 2:
            return f"{doc['s_integral_classes']} S-integral classes, not 2"
        if not all(v["certified"] for v in doc["verdicts"]):
            return "uncertified verdict"
        if doc != json.loads(golden_path.read_text()):
            return f"report differs from {golden_path.name}"
        return None

    op = Op(f"run_scan depth {params.twin_depth}",
            lambda: scan.run_scan(cfg), check)
    return Workload([op], {"semigroup": G_TWIN, "beta": "2", "S": [0, 2, 3, 5],
                           "depth": params.twin_depth})


# ---------------------------------------------------------------------------
# sweep-beta: one warm process scanning many seeded base points


def _primes_between(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = b"\0" * len(sieve[i * i::i])
    return [i for i in range(lo, hi) if sieve[i]]


_OUTSIDE_S = _primes_between(7, 1000)
_TWELVE_BIT = _primes_between(1 << 11, 1 << 12)


def _draw_beta(kind: str, rng: random.Random) -> Fraction:
    sign = rng.choice((1, -1))
    if kind == "small":
        return Fraction(sign * rng.randint(1, 40), rng.randint(1, 40))
    if kind == "prime":
        return Fraction(sign * rng.choice(_OUTSIDE_S), rng.randint(1, 9))
    # a 24-bit semiprime numerator
    p, q = rng.sample(_TWELVE_BIT, 2)
    return Fraction(sign * p * q, rng.randint(1, 9))


# the cold first base point of each process: fixed, so that first_op_ms
# measures the cold caches rather than the draw
SWEEP_HEADS = tuple(Fraction(b) for b in ("2", "-3/2", "5/3", "7/4"))


def sweep_betas(seed: int, count: int, slices: int, G: Semigroup,
                gate_depth: int = 8) -> list[Fraction]:
    """count base points, each certified non-preperiodic by the gate run_scan
    applies: the first `slices` from SWEEP_HEADS, then two with semiprime
    numerators, a third with primes outside S and small heights, shuffled."""
    rng = random.Random(seed)
    rest = count - slices
    n_semi = min(2, rest)
    n_prime = (rest - n_semi) // 3
    kinds = (["semiprime"] * n_semi + ["prime"] * n_prime
             + ["small"] * (rest - n_semi - n_prime))
    rng.shuffle(kinds)
    def gated(b: Fraction) -> bool:
        status = is_preperiodic(G, RadicalPoint.from_rational(b), gate_depth)
        return status.tag == "not_preperiodic"

    betas = list(SWEEP_HEADS[:slices])
    if not all(gated(b) for b in betas):
        raise ValueError("a fixed base point fails the gate")
    for kind in kinds:
        b = _draw_beta(kind, rng)
        while abs(b) == 1 or b in betas or not gated(b):
            b = _draw_beta(kind, rng)
        betas.append(b)
    return betas


def sweep_beta(seed: int, params: Params = FULL) -> Workload:
    G = Semigroup.from_json(G_SWEEP)
    betas = sweep_betas(seed, params.sweep_betas, params.sweep_slices, G)
    golden = load_golden().get("sweep-beta", {}).get(_golden_key(params), {})
    expected = golden.get(str(seed))
    ops = []
    for i, beta in enumerate(betas):
        cfg = ScanConfig(G, S4, beta, params.sweep_depth)

        def check(report, i=i) -> str | None:
            if report.truncated:
                return "truncated: " + "; ".join(report.notes)
            if not all(v.certified for v in report.verdicts):
                return "uncertified verdict"
            if any(abs(v.gamma_residual) > report.config.tol
                   for v in report.verdicts):
                return "gamma residual above tol"
            if expected is not None and digest(report.to_json()) != expected[i]:
                return "report digest differs from the golden digest"
            return None

        ops.append(Op(f"run_scan beta={beta}", lambda c=cfg: scan.run_scan(c),
                      check))
    return Workload(ops, {"semigroup": G_SWEEP, "S": [0, 2, 3, 5],
                          "depth": params.sweep_depth,
                          "betas": [str(b) for b in betas]},
                    slices=params.sweep_slices)


# ---------------------------------------------------------------------------
# cli-enum: the preper and equid subcommands in one cold process


def _parse_stdout(text: str):
    """A JSON document, or JSON lines as a list."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line]


def cli_digests(outputs: list[tuple[int, str]]) -> list[str]:
    """One digest per command, of its stdout parsed as JSON."""
    return [digest(_parse_stdout(text)) for _, text in outputs]


def cli_enum(seed: int, params: Params = FULL) -> Workload:
    """The input is fixed; the seed does not change it."""
    OUT.mkdir(exist_ok=True)
    config = OUT / "cli-enum-semigroup.json"
    config.write_text(json.dumps(G_TWIN))
    commands = [["--config", str(config), "preper", "--depth",
                 str(params.preper_depth)],
                ["--config", str(config), "equid", "--depth",
                 str(params.equid_depth)]]
    expected = load_golden().get("cli-enum", {}).get(_golden_key(params))

    def session() -> list[tuple[int, str]]:
        outputs = []
        for argv in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((code, buf.getvalue()))
        return outputs

    def check(outputs) -> str | None:
        if any(code != 0 for code, _ in outputs):
            return f"exit codes {[code for code, _ in outputs]}"
        if cli_digests(outputs) != expected:
            return "stdout digests differ from the golden digests"
        return None

    label = " ; ".join(" ".join(argv[2:]) for argv in commands)
    return Workload([Op(label, session, check)],
                    {"semigroup": G_TWIN,
                     "commands": [argv[2:] for argv in commands]})


# ---------------------------------------------------------------------------
# factor-pool: Capelli binomials and products of Eisenstein polynomials


def _eisenstein(rng: random.Random, degree: int) -> tuple[int, ...]:
    """Monic integer coefficients, low to high, Eisenstein at a small prime."""
    p = rng.choice((2, 3, 5, 7))
    const = p * rng.choice([r for r in range(-3, 4) if r % p])
    middle = [p * rng.randint(-2, 2) for _ in range(degree - 1)]
    return tuple([const] + middle + [1])


def eisenstein_products(seed: int, count: int) -> list[list[tuple[int, ...]]]:
    """count lists of 2 or 3 Eisenstein factors of total degree <= 12."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        degrees = [rng.randint(2, 6) for _ in range(rng.choice((2, 3)))]
        if sum(degrees) <= 12:
            out.append([_eisenstein(rng, d) for d in degrees])
    return out


def _reproduces(f: UniPoly, factors) -> bool:
    """content * prod g_i^m_i == f."""
    prod = UniPoly.one()
    for g, m in factors:
        prod = prod * g ** m
    return prod * (f.lead / prod.lead) == f


def factor_pool(seed: int, params: Params = FULL) -> Workload:
    """The 1200 binomials X^M - c (M from 24 down to 1, so the first call is
    a degree-24 one) are fixed; the Eisenstein products that follow them
    come from the seed."""
    ops = []
    for M in range(params.capelli_max_m, 0, -1):
        for c in CAPELLI_POOL[:params.capelli_radicands]:
            f = UniPoly.binomial(M, c)

            def check(factors, f=f, M=M, c=c) -> str | None:
                if not _reproduces(f, factors):
                    return "factors do not reproduce the input"
                split = len(factors) > 1 or factors[0][1] > 1
                if split != capelli_reducible(M, c).reducible:
                    return "factor count disagrees with capelli_reducible"
                return None

            ops.append(Op(f"X^{M} - {c}",
                          lambda f=f: polyfactor.factor_poly(f), check))
    for parts in eisenstein_products(seed, params.eisenstein_products):
        f = UniPoly.one()
        for cs in parts:
            f = f * UniPoly.from_coeffs(cs)
        expected = Counter(parts)

        def check(factors, f=f, expected=expected) -> str | None:
            if not _reproduces(f, factors):
                return "factors do not reproduce the input"
            got = Counter({tuple(int(c) for c in g.coeffs): m
                           for g, m in factors})
            if got != expected:
                return "factors differ from the Eisenstein construction"
            return None

        ops.append(Op(f"Eisenstein product {parts}",
                      lambda f=f: polyfactor.factor_poly(f), check))
    n_bin = params.capelli_max_m * params.capelli_radicands
    return Workload(ops,
                    {"binomials": n_bin,
                     "eisenstein_products": len(ops) - n_bin},
                    slices=params.factor_slices)


WORKLOADS = {
    "scan-twin": scan_twin,
    "sweep-beta": sweep_beta,
    "cli-enum": cli_enum,
    "factor-pool": factor_pool,
}
