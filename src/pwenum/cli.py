"""Command-line front end: enumerate, dualize, verify, fuzz.

All math happens in the library modules; this file only parses inputs,
formats outputs, and bundles the worked-example corpus with its golden
fixtures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from .codes import (
    LinearCode,
    check_ambient_cap,
    dual_code,
    dual_indices,
    dual_weight_spectrum,
    enumeration_cap,
    level_split,
    span,
)
from .enumerators import (
    EnumeratorPoly,
    X_VAR,
    byte_enumerator,
    byte_var,
    complete_level_enumerator,
    level_enumerator,
    mspotty_enumerator,
    plain_var,
    poset_weight_enumerator,
    render_byte,
    render_weight_spectrum,
    weight_spectrum,
    weight_var,
)
from .errors import CapExceededError, IntegrityError
from .macwilliams import (
    TRANSFORM_KINDS,
    byte_transform,
    complete_transform,
    krawtchouk_contraction,
    level_transform,
    mspotty_transform,
    verify_identity,
)
from .posets import LevelStructure, Poset, chain, leveled, level_partition, poset_from_json_obj
from .rings import RingSpec, default_character, make_ring, ring_from_json_obj

FUZZ_BOUND_DEFAULT = 2**14

CATALOG_RING_NAMES = ("F2", "F3", "F4", "Z4", "F2u", "F2v")


def catalog_ring(name: str) -> RingSpec:
    if name == "F2":
        return make_ring("Zm", m=2)
    if name == "F3":
        return make_ring("Zm", m=3)
    if name == "F4":
        return make_ring("GF", p=2, k=2, modulus=[1, 1, 1])
    if name == "Z4":
        return make_ring("Zm", m=4)
    if name in ("F2u", "F2v"):
        return make_ring(name)
    raise ValueError(f"unknown ring alias {name!r}")


def _parse_json(text: str):
    """json.loads, with nesting too deep for the decoder reported as bad input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


_ZM_SHORTHAND = re.compile(r"^Z(\d+)$")


def parse_ring_spec(text: str) -> RingSpec:
    text = text.strip()
    if text.startswith("{"):
        return ring_from_json_obj(_parse_json(text))
    if os.path.isfile(text):
        with open(text) as fh:
            return ring_from_json_obj(_parse_json(fh.read()))
    if text in ("F2", "F3", "F4", "F2u", "F2v"):
        return catalog_ring(text)
    m = _ZM_SHORTHAND.match(text)
    if m:
        return make_ring("Zm", m=int(m.group(1)))
    raise ValueError(f"cannot interpret ring spec {text!r}")


_POSET_SHORTHAND = re.compile(r"^(antichain|chain|leveled)[:]?([\d,]+)$")


def parse_poset_spec(text: str, n: int | None = None, cap: int | None = None) -> Poset:
    """Poset from a shorthand, inline JSON or a file; see poset_from_json_obj for n and cap."""
    text = text.strip()
    if text.startswith("{"):
        obj = _parse_json(text)
    elif os.path.isfile(text):
        with open(text) as fh:
            obj = _parse_json(fh.read())
    else:
        m = _POSET_SHORTHAND.match(text)
        if not m:
            raise ValueError(f"cannot interpret poset spec {text!r}")
        kind, rest = m.groups()
        nums = [int(x) for x in rest.split(",") if x]
        if kind == "leveled":
            obj = {"kind": kind, "levels": nums}
        elif len(nums) != 1:
            raise ValueError(f"{kind} takes a single size, got {rest!r}")
        else:
            obj = {"kind": kind, "n": nums[0]}
    return poset_from_json_obj(obj, n, cap)


NAMED_CODES = {
    "c1": (3, [(0, 0, 1)]),
    "c2": (3, [(1, 1, 1)]),
    "ex51": (4, [(1, 0, 1, 0), (0, 1, 1, 1)]),
    "hamming74": (
        7,
        [
            (1, 0, 0, 0, 0, 1, 1),
            (0, 1, 0, 0, 1, 0, 1),
            (0, 0, 1, 0, 1, 1, 0),
            (0, 0, 0, 1, 1, 1, 1),
        ],
    ),
}


def parse_code_spec(text: str, ring: RingSpec, cap: int | None = None) -> LinearCode:
    text = text.strip()
    lowered = text.lower()
    if lowered in NAMED_CODES:
        n, gens = NAMED_CODES[lowered]
        return span(ring, n, gens, cap)
    if text.startswith("{"):
        obj = _parse_json(text)
    elif os.path.isfile(text):
        with open(text) as fh:
            obj = _parse_json(fh.read())
    else:
        raise ValueError(f"cannot interpret code spec {text!r}")
    if not isinstance(obj, dict) or "length" not in obj or "generators" not in obj:
        raise ValueError("code description needs 'length' and 'generators' fields")
    if not isinstance(obj["generators"], list):
        raise ValueError(f"code generators must be a list of words, got {obj['generators']!r}")
    return span(ring, obj["length"], obj["generators"], cap)


def parse_t_spec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse t spec {text!r}; expected e.g. 2,1,1") from None


# ---------------------------------------------------------------------------
# Enumerator text, both rendering (EnumeratorPoly.to_text) and parsing of the
# golden fixtures below.
# ---------------------------------------------------------------------------

_COEFF_RE = re.compile(r"^(\d+)")
_VAR_RES = {
    "byte": re.compile(r"z_\{(\d+):([\d,]+)\}(?:\^(\d+))?"),
    "complete": re.compile(r"z_\{(\d+):(\d+)\}(?:\^(\d+))?"),
    "level": re.compile(r"z_(\d+)(?:\^(\d+))?"),
    "poset": re.compile(r"x(?:\^(\d+))?"),
}


def parse_enumerator_text(text: str, kind: str) -> EnumeratorPoly:
    """Parse enumerator notation such as 'z_{1:10}z_{2:1} + 2x^2' exactly."""
    if kind not in _VAR_RES:
        raise ValueError(f"unknown enumerator kind {kind!r}")
    var_re = _VAR_RES[kind]
    terms: dict[tuple, int] = {}
    for raw in text.replace(" ", "").split("+"):
        if not raw:
            raise ValueError(f"empty term in {text!r}")
        m = _COEFF_RE.match(raw)
        coeff, rest = (int(m.group(1)), raw[m.end() :]) if m else (1, raw)
        variables = []
        pos = 0
        while pos < len(rest):
            vm = var_re.match(rest, pos)
            if not vm:
                raise ValueError(f"cannot parse {raw!r} near {rest[pos:]!r}")
            variables.append(_fixture_var(kind, vm))
            pos = vm.end()
        mono = tuple(variables)
        terms[mono] = terms.get(mono, 0) + coeff
    return EnumeratorPoly(terms)


def _fixture_var(kind, match):
    if kind == "byte":
        level, body, exp = match.groups()
        pattern = (
            tuple(int(x) for x in body.split(","))
            if "," in body
            else tuple(int(c) for c in body)
        )
        return (byte_var(int(level), pattern), int(exp) if exp else 1)
    if kind == "complete":
        level, w, exp = match.groups()
        return (weight_var(int(level), int(w)), int(exp) if exp else 1)
    if kind == "level":
        level, exp = match.groups()
        return (plain_var(int(level)), int(exp) if exp else 1)
    exp = match.group(1)
    return (X_VAR, int(exp) if exp else 1)


# ---------------------------------------------------------------------------
# Bundled worked-example corpus.  Fixture strings are transcribed from the
# source material; comparisons are structural (parse, then canonical text).
# ---------------------------------------------------------------------------

FIXTURES = {
    "split": "10,1,100",
    "chain_primal": "1 + x^3",
    "chain_dual_1": "1 + x + 2x^2",
    "chain_dual_2": "1 + x^2 + 2x^3",
    "byte_code": "z_{1:00}z_{2:0}z_{3:0} + z_{1:10}z_{2:1}z_{3:0} + z_{1:01}z_{2:1}z_{3:1} + z_{1:11}z_{2:0}z_{3:1}",
    "byte_dual": "z_{1:00}z_{2:0}z_{3:0} + z_{1:10}z_{2:1}z_{3:1} + z_{1:01}z_{2:0}z_{3:1} + z_{1:11}z_{2:1}z_{3:0}",
    "complete_code": "z_{1:0}z_{2:0}z_{3:0} + z_{1:1}z_{2:1}z_{3:0} + z_{1:1}z_{2:1}z_{3:1} + z_{1:2}z_{2:0}z_{3:1}",
    "complete_dual": "z_{1:0}z_{2:0}z_{3:0} + z_{1:1}z_{2:1}z_{3:1} + z_{1:1}z_{2:0}z_{3:1} + z_{1:2}z_{2:1}z_{3:0}",
    "plain_dual": "1 + z_1z_2z_3 + z_1z_3 + z_1^2z_2",
    "spotty_dual": "1 + z_1z_2z_3 + z_1z_3 + z_1z_2",
}


def _match(computed: EnumeratorPoly, fixture_key: str, kind: str):
    expected = parse_enumerator_text(FIXTURES[fixture_key], kind)
    ok = computed.to_text() == expected.to_text()
    return ok, f"expected {expected.to_text()!r}, got {computed.to_text()!r}"


def run_paper_examples():
    """Run the bundled instances against the golden fixtures.

    Returns (all_ok, lines); one line per check.
    """
    checks: list[tuple[str, bool, str]] = []
    f2 = catalog_ring("F2")

    split = level_split((1, 0, 1, 1, 0, 0), LevelStructure((2, 1, 3)))
    got = ",".join("".join(str(x) for x in part) for part in split)
    checks.append(("three-level split of 101100", got == FIXTURES["split"], got))

    p3 = chain(3)
    code1 = span(f2, 3, NAMED_CODES["c1"][1])
    code2 = span(f2, 3, NAMED_CODES["c2"][1])
    w1 = poset_weight_enumerator(code1, p3)
    w2 = poset_weight_enumerator(code2, p3)
    d1 = poset_weight_enumerator(dual_code(code1), p3)
    d2 = poset_weight_enumerator(dual_code(code2), p3)
    checks.append(("chain enumerator of c1", *_match(w1, "chain_primal", "poset")))
    checks.append(("chain enumerator of c2", *_match(w2, "chain_primal", "poset")))
    checks.append(("chain enumerator of c1 dual", *_match(d1, "chain_dual_1", "poset")))
    checks.append(("chain enumerator of c2 dual", *_match(d2, "chain_dual_2", "poset")))
    checks.append(
        (
            "expected-negative: equal primal enumerators, unequal duals",
            w1 == w2 and d1 != d2,
            f"primals equal={w1 == w2}, duals equal={d1 == d2}",
        )
    )

    levels = level_partition(leveled((2, 1, 1)))
    code = span(f2, 4, NAMED_CODES["ex51"][1])
    dual = dual_code(code)
    checks.append(
        ("byte enumerator of the code", *_match(byte_enumerator(code, levels), "byte_code", "byte"))
    )
    checks.append(
        ("byte enumerator of the dual", *_match(byte_enumerator(dual, levels), "byte_dual", "byte"))
    )
    checks.append(
        ("byte transform of the code", *_match(byte_transform(code, levels), "byte_dual", "byte"))
    )

    spectrum = weight_spectrum(code, levels)
    checks.append(
        (
            "complete enumerator of the code",
            *_match(complete_level_enumerator(code, levels), "complete_code", "complete"),
        )
    )
    checks.append(
        (
            "complete enumerator of the dual",
            *_match(complete_level_enumerator(dual, levels), "complete_dual", "complete"),
        )
    )
    checks.append(
        (
            "complete transform of the code",
            *_match(
                complete_transform(spectrum, levels, f2.q, code.size), "complete_dual", "complete"
            ),
        )
    )

    checks.append(
        (
            "plain level enumerator of the dual",
            *_match(level_enumerator(dual, levels), "plain_dual", "level"),
        )
    )
    checks.append(
        (
            "plain level transform of the code",
            *_match(level_transform(spectrum, levels, f2.q, code.size), "plain_dual", "level"),
        )
    )
    t = (2, 1, 1)
    checks.append(
        (
            "spotty enumerator of the dual, t=2,1,1",
            *_match(mspotty_enumerator(dual, levels, t), "spotty_dual", "level"),
        )
    )
    checks.append(
        (
            "spotty transform of the code, t=2,1,1",
            *_match(mspotty_transform(spectrum, levels, t, f2.q, code.size), "spotty_dual", "level"),
        )
    )

    lines = []
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}" + ("" if ok else f"  ({detail})"))
    return all_ok, lines


# ---------------------------------------------------------------------------
# Randomized identity fuzzing.
# ---------------------------------------------------------------------------


def run_fuzz(iters: int, seed: int, bound: int = FUZZ_BOUND_DEFAULT) -> dict:
    """Random instances across the ring catalog; all four identities checked.

    Per instance: a catalog ring with q <= bound, levels with at most 3
    levels of size at most 3 subject to q^N <= bound, at most 3 random
    generators, random t.  Also checks |C| * |dual| = q^N and that
    dualizing twice returns the code.  An exception inside one instance is
    recorded as that instance's error and the run goes on.
    """
    rng = random.Random(seed)
    rings = {name: catalog_ring(name) for name in CATALOG_RING_NAMES}
    names = tuple(name for name in CATALOG_RING_NAMES if rings[name].q <= bound)
    if not names:
        smallest = min(ring.q for ring in rings.values())
        raise ValueError(f"fuzz bound {bound} is below the smallest catalog ring size {smallest}")
    characters = {name: default_character(rings[name]) for name in names}
    instances = []
    failures = []
    for index in range(iters):
        name = rng.choice(names)
        ring = rings[name]
        q = ring.q
        while True:
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            if q ** sum(sizes) <= bound:
                break
        levels = LevelStructure(sizes)
        n = levels.n
        gens = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        t = tuple(rng.randint(1, s) for s in sizes)
        record = {
            "index": index,
            "ring": name,
            "levels": sizes,
            "generators": [list(g) for g in gens],
            "t": list(t),
        }
        try:
            code = span(ring, n, gens, cap=bound)
            dual = dual_code(code, cap=bound)
            record["duality"] = (
                code.size * dual.size == q**n and dual_code(dual, cap=bound) == code
            )
            for kind in TRANSFORM_KINDS:
                report = verify_identity(
                    kind,
                    code,
                    levels,
                    t=t if kind == "mspotty" else None,
                    chi=characters[name],
                    cap=bound,
                    dual=dual,
                )
                record[kind] = report.equal
            record["ok"] = record["duality"] and all(record[k] for k in TRANSFORM_KINDS)
        except Exception as exc:  # one bad instance must not end the run
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["ok"] = False
        instances.append(record)
        if not record["ok"]:
            failures.append(record)
    return {
        "count": iters,
        "seed": seed,
        "bound": bound,
        "instances": instances,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _resolve_cap(args) -> int:
    if args.cap is not None and args.cap < 1:
        raise ValueError(f"--cap must be positive, got {args.cap}")
    return args.cap if args.cap is not None else enumeration_cap()


def _emit(args, text, json_obj) -> None:
    """Print the rendering --out asks for; both are callables, so only that one is built."""
    if args.out == "json":
        print(json.dumps(json_obj(), sort_keys=True, separators=(",", ":")))
    else:
        print(text())


def _resolve_levels(args, n: int, cap: int) -> LevelStructure:
    if not args.poset:
        raise ValueError("this enumerator kind needs --poset")
    return level_partition(parse_poset_spec(args.poset, n, cap))


def cmd_enum(args) -> int:
    cap = _resolve_cap(args)
    ring = parse_ring_spec(args.ring)
    code = parse_code_spec(args.code, ring, cap)
    kind = args.kind
    if kind == "poset":
        if args.via_transform:
            raise ValueError("the plain poset enumerator has no transform route")
        if not args.poset:
            raise ValueError("--kind poset needs --poset")
        poset = parse_poset_spec(args.poset, code.n, cap)
        target = dual_code(code, cap) if args.dual else code
        poly = poset_weight_enumerator(target, poset)
    else:
        levels = _resolve_levels(args, code.n, cap)
        t = parse_t_spec(args.t) if args.t else None
        if kind == "mspotty" and t is None:
            raise ValueError("--kind mspotty needs --t")
        if args.via_transform:
            if not args.dual:
                raise ValueError("--via-transform computes the dual enumerator; pass --dual")
            # the same bound as the direct route, so both refuse the same inputs
            check_ambient_cap(ring, code.n, cap)
        if kind == "byte" and args.via_transform:
            poly = byte_transform(code, levels)
        elif kind == "byte" and args.dual:  # each dual word is its own byte monomial
            poly = render_byte(dict.fromkeys(dual_indices(code, cap), 1), ring.q, levels)
        elif kind == "byte":
            poly = byte_enumerator(code, levels)
        elif args.dual and not args.via_transform:
            poly = render_weight_spectrum(kind, dual_weight_spectrum(code, levels, cap), levels, t)
        else:
            spectrum = weight_spectrum(code, levels)
            if args.via_transform:
                spectrum = krawtchouk_contraction(spectrum, levels, ring.q, code.size)
            poly = render_weight_spectrum(kind, spectrum, levels, t)
    _emit(args, poly.to_text, lambda: {"kind": kind, "enumerator": poly.to_json_obj()})
    return 0


def cmd_dual(args) -> int:
    cap = _resolve_cap(args)
    ring = parse_ring_spec(args.ring)
    code = parse_code_spec(args.code, ring, cap)
    dual = dual_code(code, cap)
    joiner = "" if all(len(name) == 1 for name in ring.names) else ","
    _emit(
        args,
        lambda: "\n".join(joiner.join(ring.names[x] for x in w) for w in dual.words),
        lambda: {
            "length": dual.n,
            "size": dual.size,
            "generators": [list(g) for g in dual.generators],
            "codewords": [list(w) for w in dual.words],
        },
    )
    return 0


def cmd_verify(args) -> int:
    cap = _resolve_cap(args)
    ring = parse_ring_spec(args.ring)
    code = parse_code_spec(args.code, ring, cap)
    levels = _resolve_levels(args, code.n, cap)
    t = parse_t_spec(args.t) if args.t else None
    if args.kind == "mspotty" and t is None:
        raise ValueError("--kind mspotty needs --t")
    report = verify_identity(args.kind, code, levels, t=t, cap=cap)

    def text():
        if report.equal:
            return f"{args.kind}: EQUAL"
        return (
            f"{args.kind}: DIFFER\n  transform: {report.lhs.to_text()}"
            f"\n  direct:    {report.rhs.to_text()}"
        )

    _emit(args, text, report.to_json_obj)
    return 0 if report.equal else 1


def cmd_fuzz(args) -> int:
    if args.fuzz_iters < 0:
        raise ValueError(f"--fuzz-iters must not be negative, got {args.fuzz_iters}")
    bound = args.cap if args.cap is not None else min(enumeration_cap(), FUZZ_BOUND_DEFAULT)
    result = run_fuzz(args.fuzz_iters, args.seed, bound)

    def text():
        summary = (
            f"fuzz: {result['count']} instances, {len(result['failures'])} failures "
            f"(seed {result['seed']}, bound {result['bound']})"
        )
        return "\n".join([summary] + [f"  FAIL {record}" for record in result["failures"]])

    _emit(args, text, lambda: result)
    return 0 if not result["failures"] else 1


def cmd_paper_examples(args) -> int:
    ok, lines = run_paper_examples()
    for line in lines:
        print(line)
    return 0 if ok else 1


COMMANDS = ("enum", "dual", "verify", "fuzz", "paper-examples")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subparser, or only the named one's (whose usage line lists
    all COMMANDS by a metavar, which in the full parser would change two errors)."""
    parser = argparse.ArgumentParser(
        prog="pwenum",
        description="Level weight enumerators of linear codes over finite "
        "Frobenius rings, with exact MacWilliams-identity verification.",
    )
    listed = {} if command is None else {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **listed)

    def add(name, summary, func):
        if command in (None, name):
            sp = sub.add_parser(name, help=summary)
            sp.set_defaults(func=func)
            return sp

    def add_io(sp, poset=True, kind=None, t=False):
        sp.add_argument("--ring", required=True, help="F2|F3|F4|Z<m>|F2u|F2v, inline JSON, or file")
        sp.add_argument("--code", required=True, help="named code, inline JSON, or file")
        if poset:
            sp.add_argument("--poset", help="chain:N|antichain:N|leveled:a,b,c, inline JSON, or file")
        if kind:
            sp.add_argument("--kind", required=True, choices=kind)
        if t:
            sp.add_argument("--t", help="per-level spotty thresholds, e.g. 2,1,1")
        sp.add_argument("--out", choices=("text", "json"), default="text")
        sp.add_argument("--cap", type=int, help="enumeration cap (default: PWE_CAP or 2^24)")

    if sp := add("enum", "compute one enumerator", cmd_enum):
        add_io(sp, kind=("byte", "complete", "level", "mspotty", "poset"), t=True)
        sp.add_argument("--dual", action="store_true", help="enumerate the dual code")
        sp.add_argument(
            "--via-transform",
            action="store_true",
            help="compute the dual enumerator through the identity instead of enumerating the dual",
        )

    if sp := add("dual", "print the dual code", cmd_dual):
        add_io(sp, poset=False)

    if sp := add("verify", "check one identity against the scanned dual", cmd_verify):
        add_io(sp, kind=TRANSFORM_KINDS, t=True)

    if sp := add("fuzz", "randomized identity checking over the ring catalog", cmd_fuzz):
        sp.add_argument("--fuzz-iters", type=int, default=100)
        sp.add_argument("--seed", type=int, default=0)
        bound = f"sampling bound on q^N (default {FUZZ_BOUND_DEFAULT})"
        sp.add_argument("--cap", type=int, help=bound)
        sp.add_argument("--out", choices=("text", "json"), default="text")

    add("paper-examples", "run the bundled worked-example corpus", cmd_paper_examples)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # -h, a typo or an option before the command get the full parser's messages
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
