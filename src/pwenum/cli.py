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
from functools import cache, partial

from .codes import LinearCode, check_ambient_cap, dual_code, enumeration_cap, level_split, span
from .enumerators import check_t
from .errors import CapExceededError, IntegrityError
from .macwilliams import KINDS, TRANSFORM_KINDS, count, render, verify_identity
from .posets import LevelStructure, Poset, poset_from_json_obj
# default_character is not called here; perfbench's set-up probe reaches it as cli.default_character
from .rings import RingSpec, default_character, ring_from_json_obj

FUZZ_BOUND_DEFAULT = 2**14

# The catalog rings by alias, in the order run_fuzz draws from.
CATALOG_RINGS = {
    "F2": {"kind": "Zm", "m": 2},
    "F3": {"kind": "Zm", "m": 3},
    "F4": {"kind": "GF", "p": 2, "k": 2, "modulus": [1, 1, 1]},
    "Z4": {"kind": "Zm", "m": 4},
    "F2u": {"kind": "F2u"},
    "F2v": {"kind": "F2v"},
}


def _parse_json(text: str):
    """json.loads, with nesting too deep for the decoder reported as bad input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _spec_json(text: str, what: str, shorthand=lambda text: None):
    """Shorthand's object, so no file hides an alias (./F2 reads one), else inline or file JSON."""
    text = text.strip()
    obj = shorthand(text)
    if obj is not None:
        return obj
    if text.startswith("{"):
        return _parse_json(text)
    if os.path.isfile(text):
        with open(text) as fh:
            return _parse_json(fh.read())
    raise ValueError(f"cannot interpret {what} spec {text!r}")


_ZM_SHORTHAND = re.compile(r"^Z(\d+)$")


def _ring_shorthand(text: str) -> dict | None:
    if text in CATALOG_RINGS:
        return CATALOG_RINGS[text]
    m = _ZM_SHORTHAND.match(text)
    return {"kind": "Zm", "m": int(m.group(1))} if m else None


def parse_ring_spec(text: str) -> RingSpec:
    return ring_from_json_obj(_spec_json(text, "ring", _ring_shorthand))


_POSET_SHORTHAND = re.compile(r"^(antichain|chain|leveled):?(\d+(?:,\d+)*)$")


def _poset_shorthand(text: str) -> dict | None:
    m = _POSET_SHORTHAND.match(text)
    if not m:
        return None
    kind, rest = m.groups()
    nums = [int(x) for x in rest.split(",")]
    if kind == "leveled":
        return {"kind": kind, "levels": nums}
    if len(nums) != 1:
        raise ValueError(f"{kind} takes a single size, got {rest!r}")
    return {"kind": kind, "n": nums[0]}


def parse_poset_spec(text: str, n: int | None = None, cap: int | None = None) -> Poset | LevelStructure:
    """The poset of a shorthand, inline JSON or a file; see poset_from_json_obj."""
    return poset_from_json_obj(_spec_json(text, "poset", _poset_shorthand), n, cap)


NAMED_CODES = {
    "c1": {"length": 3, "generators": [[0, 0, 1]]},
    "c2": {"length": 3, "generators": [[1, 1, 1]]},
    "ex51": {"length": 4, "generators": [[1, 0, 1, 0], [0, 1, 1, 1]]},
    "hamming74": {
        "length": 7,
        "generators": [
            [1, 0, 0, 0, 0, 1, 1],
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 1, 0],
            [0, 0, 0, 1, 1, 1, 1],
        ],
    },
}


def parse_code_spec(text: str, ring: RingSpec, cap: int | None = None) -> LinearCode:
    """The code of a named code, inline JSON or a file: checked by span, with no word listed."""
    obj = _spec_json(text, "code", lambda text: NAMED_CODES.get(text.lower()))
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
# Bundled worked-example corpus.  Fixture strings are transcribed from the
# source material; a rendering matches one when both hold the same terms.
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

# (check, kind, code, route, fixture): the poset kind on the chain of 3, levels
# (1, 1, 1), the others on levels (2, 1, 1) with t = (2, 1, 1); the route computes
# the enumerator of the code, or of its dual as enum --dual or --via-transform does.
PAPER_CHECKS = (
    ("chain enumerator of c1", "poset", "c1", "code", "chain_primal"),
    ("chain enumerator of c2", "poset", "c2", "code", "chain_primal"),
    ("chain enumerator of c1 dual", "poset", "c1", "dual", "chain_dual_1"),
    ("chain enumerator of c2 dual", "poset", "c2", "dual", "chain_dual_2"),
    ("byte enumerator of the code", "byte", "ex51", "code", "byte_code"),
    ("byte enumerator of the dual", "byte", "ex51", "dual", "byte_dual"),
    ("byte transform of the code", "byte", "ex51", "transform", "byte_dual"),
    ("complete enumerator of the code", "complete", "ex51", "code", "complete_code"),
    ("complete enumerator of the dual", "complete", "ex51", "dual", "complete_dual"),
    ("complete transform of the code", "complete", "ex51", "transform", "complete_dual"),
    ("plain level enumerator of the dual", "level", "ex51", "dual", "plain_dual"),
    ("plain level transform of the code", "level", "ex51", "transform", "plain_dual"),
    ("spotty enumerator of the dual, t=2,1,1", "mspotty", "ex51", "dual", "spotty_dual"),
    ("spotty transform of the code, t=2,1,1", "mspotty", "ex51", "transform", "spotty_dual"),
)


def run_paper_examples():
    """Run the bundled instances against the golden fixtures.

    Returns (all_ok, lines); one line per check.
    """
    f2 = parse_ring_spec("F2")
    split = level_split((1, 0, 1, 1, 0, 0), LevelStructure((2, 1, 3)))
    got = ",".join("".join(str(x) for x in part) for part in split)
    checks = [("three-level split of 101100", got == FIXTURES["split"], got)]

    codes = {name: parse_code_spec(name, f2) for name in ("c1", "c2", "ex51")}
    found = []
    for name, kind, code, route, fixture in PAPER_CHECKS:
        shape = LevelStructure((2, 1, 1) if KINDS[kind].levels else (1, 1, 1))
        counts = count(kind, route, codes[code], shape, (2, 1, 1))
        text = render(kind, counts, f2.q, shape)
        ok = sorted(text.split(" + ")) == sorted(FIXTURES[fixture].split(" + "))
        checks.append((name, ok, f"expected {FIXTURES[fixture]!r}, got {text!r}"))
        found.append(counts)

    w1, w2, d1, d2 = found[:4]  # the chain enumerators of c1 and c2 and of their duals
    negative = ("expected-negative: equal primal enumerators, unequal duals", w1 == w2 and d1 != d2)
    checks.insert(5, (*negative, f"primals equal={w1 == w2}, duals equal={d1 == d2}"))

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
    rings = {name: parse_ring_spec(name) for name in CATALOG_RINGS}
    names = tuple(name for name, ring in rings.items() if ring.q <= bound)
    if not names:
        smallest = min(ring.q for ring in rings.values())
        raise ValueError(f"fuzz bound {bound} is below the smallest catalog ring size {smallest}")
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
                record[kind] = verify_identity(kind, code, levels, t=t, cap=bound).equal
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


def _read_code(args) -> tuple[int, LinearCode]:
    """The cap and the code of a call: --cap checked, then --ring read, then --code."""
    if args.cap is not None and args.cap < 1:
        raise ValueError(f"--cap must be positive, got {args.cap}")
    cap = args.cap if args.cap is not None else enumeration_cap()
    return cap, parse_code_spec(args.code, parse_ring_spec(args.ring), cap)


def _emit(args, text, json_obj) -> None:
    """Print the rendering --out asks for; both are callables, so only that one is built."""
    if args.out == "json":
        print(json.dumps(json_obj(), sort_keys=True, separators=(",", ":")))
    else:
        print(text())


def _resolve_shape(args, n: int, cap: int):
    """What the kind reads of --poset and --t: (levels, t), or (poset, None) for the poset kind."""
    kind = KINDS[args.kind]
    if not args.poset:
        needs = "this enumerator kind" if kind.levels else f"--kind {args.kind}"
        raise ValueError(f"{needs} needs --poset")
    shape = parse_poset_spec(args.poset, n, cap)
    if not kind.levels:
        return shape, None
    if isinstance(shape, Poset):  # a cover poset that is no hierarchy in coordinate order
        raise ValueError(shape.reason)
    if not kind.fold:  # only a kind that folds by t reads it
        return shape, None
    if not args.t:
        raise ValueError(f"--kind {args.kind} needs --t")
    return shape, parse_t_spec(args.t)


def cmd_enum(args) -> int:
    cap, code = _read_code(args)
    route = "transform" if args.via_transform else "dual" if args.dual else "code"
    if route not in KINDS[args.kind].routes:
        raise ValueError(f"the plain {args.kind} enumerator has no transform route")
    shape, t = _resolve_shape(args, code.n, cap)
    if args.via_transform and not args.dual:
        raise ValueError("--via-transform computes the dual enumerator; pass --dual")
    if args.dual:  # the listed dual needs q^n <= cap; the transform is held to it too, so both refuse alike
        check_ambient_cap(code.ring, code.n, cap)
    t = check_t(shape, t) if KINDS[args.kind].fold else t  # refused before any route runs
    counts = count(args.kind, route, code, shape, t, cap)
    spell = partial(render, args.kind, counts, code.ring.q, shape)
    _emit(args, spell, lambda: {"kind": args.kind, "enumerator": spell(json=True)})
    return 0


def cmd_dual(args) -> int:
    cap, code = _read_code(args)
    dual, ring = dual_code(code, cap), code.ring
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
    cap, code = _read_code(args)
    levels, t = _resolve_shape(args, code.n, cap)
    check_ambient_cap(code.ring, code.n, cap)  # the dual side works on R^n; ahead of verify_identity's check of t
    report = verify_identity(args.kind, code, levels, t=t, cap=cap)

    spell = partial(render, args.kind, q=code.ring.q, levels=levels)

    def text():
        if report.equal:
            return f"{args.kind}: EQUAL"
        return (
            f"{args.kind}: DIFFER\n  transform: {spell(report.lhs)}"
            f"\n  direct:    {spell(report.rhs)}"
        )

    def json_obj():
        sides = {"lhs": spell(report.lhs, json=True), "rhs": spell(report.rhs, json=True)}
        return {**report._asdict(), **sides}

    _emit(args, text, json_obj)
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


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subparser: a new one on every call, which is the caller's own."""
    parser = argparse.ArgumentParser(
        prog="pwenum",
        description="Level weight enumerators of linear codes over finite "
        "Frobenius rings, with exact MacWilliams-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, func):
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

    sp = add("enum", "compute one enumerator", cmd_enum)
    add_io(sp, kind=tuple(KINDS), t=True)
    sp.add_argument("--dual", action="store_true", help="enumerate the dual code")
    sp.add_argument(
        "--via-transform",
        action="store_true",
        help="compute the dual enumerator through the identity instead of enumerating the dual",
    )

    sp = add("dual", "print the dual code", cmd_dual)
    add_io(sp, poset=False)

    sp = add("verify", "check one identity against the scanned dual", cmd_verify)
    add_io(sp, kind=TRANSFORM_KINDS, t=True)

    sp = add("fuzz", "randomized identity checking over the ring catalog", cmd_fuzz)
    sp.add_argument("--fuzz-iters", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    bound = f"sampling bound on q^N (default {FUZZ_BOUND_DEFAULT})"
    sp.add_argument("--cap", type=int, help=bound)
    sp.add_argument("--out", choices=("text", "json"), default="text")

    add("paper-examples", "run the bundled worked-example corpus", cmd_paper_examples)
    return parser


# main's own parser, built on its first call: a parse leaves nothing on it and help reads
# COLUMNS when it prints.  It keeps the cmd_* bound at that build.
_parser = cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()  # parse_args reads sys.argv[1:] itself when argv is None
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
