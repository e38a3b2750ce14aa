"""Command-line front end.

Subcommands: analyze (scenario -> certified verdict), heart, weights,
group, probe, fixtures. Exit codes for analyze: 0 conclusive, 2
inconclusive, 1 error, 64 usage. All reports are stable text: integer
quantities only, sorted or fixed ordering throughout, so outputs are
byte-reproducible for golden tests. A certificate records --seed; no
computation reads it, since the MeatAxe is seed-free.

argparse (`build_parser`) is the one declaration of the options and the
one source of help and error text. A plain argv after a subcommand (exact
option strings, each store option followed by a value, and store_true
flags) is read straight from that subparser's actions, converting each
value with the action's own type. A value may start with '-' where
argparse reads it as a value too: it contains a space (so no option string
begins with it), no '=' (so no '--opt=' prefix is matched), and its first
two characters are no option string (so it is no '-h' with its argument
attached): '-x^5 + 1' is a value, '-x^5+1' and '-h 7' are not.
Every other argv (help, abbreviations, '--opt=value', other values
starting with '-', '--', unknown tokens, failed conversions, a missing
value or required option, no leading subcommand) goes through the whole
parser, so both paths give the same namespace and output.

`_run` is the one exit for a refused input: a ValueError (InvalidScenario,
TooLarge, an unreadable or unwritable path, ...) or an exhausted MeatAxe
search prints one `error: ...` line on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from pathlib import Path

from . import modules, probe, simplicity, verdict, weights
from .fields import is_prime
from .groups import (
    MATHIEU_ORDERS,
    MAX_Q_BITS,
    GroupTag,
    PermGroup,
    field_order,
    format_group_file,
    group_file_lines,
)

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    # the top parser's subcommand name -> subparser, set by `build_parser`
    commands: dict[str, _Parser]

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


_TAG_RE = re.compile(
    r"^(?:(?P<sa>[SA])|(?P<mat>M(?P<matn>" + "|".join(map(str, MATHIEU_ORDERS)) + "))"
    r"|(?P<psl>PSL2)[:(](?P<pslargs>[^)]*)\)?"
    r"|(?P<u3>U3)[:(](?P<u3args>[^)]*)\)?)$",
    re.IGNORECASE,
)


_PRIME_POWER_RE = re.compile(r"\s*(\d+)\s*(?:[\^,]\s*(\d+)\s*)?")
# a numeral with more digits than 2^MAX_Q_BITS is refused before int() reads it
_MAX_Q_DIGITS = len(str(1 << MAX_Q_BITS))


def _parse_prime_power(text: str) -> tuple[int, int]:
    """'13' -> (13, 1); '2^4', '2,4' or '16' -> (2, 4).

    A bare q is l^r for the largest r with an exact integer r-th root l,
    and a prime power exactly when that l is prime: were q = l^r = m^s
    with l prime and s > r, m would be a power of l below l. A bare q
    above MAX_Q_BITS bits is refused before that search.
    """
    m = _PRIME_POWER_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed prime power {text!r}: expected q, l^r or l,r")
    numerals = [g for g in m.groups() if g is not None]
    digits = max(len(g.lstrip("0")) for g in numerals)
    if digits > _MAX_Q_DIGITS:
        raise ValueError(f"q written with a {digits}-digit number is above the limit "
                         f"MAX_Q_BITS = {MAX_Q_BITS}")
    if len(numerals) == 2:
        return int(numerals[0]), int(numerals[1])
    value = field_order(int(numerals[0]), 1)
    if value > 1:
        for r in range(value.bit_length() - 1, 0, -1):
            ell = _integer_root(value, r)
            if ell**r == value:
                if is_prime(ell):
                    return ell, r
                break
    raise ValueError(f"{value} is not a prime power")


def _integer_root(value: int, r: int) -> int:
    """The integer r-th root of value >= 1, rounded down: Newton's method
    from 2^ceil(bits / r), which lies above the root, falls to it."""
    x = 1 << -(-value.bit_length() // r)
    while True:
        y = ((r - 1) * x + value // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def parse_group_tag(text: str, n: int | None) -> GroupTag:
    m = _TAG_RE.match(text.strip())
    if m is None:
        raise ValueError(f"unknown group tag {text!r}")
    if m.group("sa"):
        if n is None:
            raise ValueError("--n is required for symmetric/alternating groups")
        return GroupTag.symmetric(n) if m.group("sa").upper() == "S" else GroupTag.alternating(n)
    if m.group("mat"):
        tag = GroupTag.mathieu(int(m.group("matn")))
    elif m.group("psl"):
        tag = GroupTag.psl2(*_parse_prime_power(m.group("pslargs")))
    else:
        tag = GroupTag.psu3(*_parse_prime_power(m.group("u3args")))
    if n not in (None, tag.n):
        raise ValueError(f"tag degree {tag.n} of {tag.describe()} does not match n = {n}")
    return tag


def _group_file_generators(path: str) -> tuple[str, ...]:
    return tuple(group_file_lines(_read(path, "group file")))


def _read(path: str | Path, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc.strerror}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _build_scenario(args) -> verdict.Scenario:
    if args.poly:
        f = probe.parse_poly(args.poly)
        n = f.degree if args.n is None else args.n
        return verdict.Scenario(n, args.p, args.r, "poly", poly=args.poly,
                                assume_zeta=args.assume_zeta, seed=args.seed, parsed_poly=f)
    if args.group_file:
        # without --n the degree is the group's, which dispatch then finds cached
        gens = _group_file_generators(args.group_file)
        n = args.n if args.n is not None else verdict.custom_group(gens).degree
        return verdict.Scenario(n, args.p, args.r, "custom", generators=gens,
                                assume_zeta=args.assume_zeta, seed=args.seed)
    tag = parse_group_tag(args.group, args.n)
    return verdict.Scenario(tag.n, args.p, args.r, "tag", tag=tag,
                            assume_zeta=args.assume_zeta, seed=args.seed)


def _cmd_analyze(args) -> int:
    cert = verdict.dispatch(_build_scenario(args))
    sys.stdout.write(verdict.explain(cert))
    if args.json:
        _write(args.json, verdict.certificate_to_json(cert))
    return 0 if cert.conclusion.kind != "inconclusive" else 2


def _concrete_group(args) -> PermGroup:
    if args.group_file:
        return verdict.custom_group(_group_file_generators(args.group_file), args.n)
    tag = parse_group_tag(args.group, args.n)
    if tag.family.concrete is None:
        raise ValueError(f"no concrete permutation group is built for {tag.describe()}")
    return tag.family.concrete(tag)


def _cmd_heart(args) -> int:
    g = _concrete_group(args)
    judged = modules.judge_heart(g, args.p)
    h = judged.module
    print(f"group: {g.tag.describe()} on {g.degree} points, order {g.order}")
    print(f"heart: dimension {h.dim} ({h.kind}) over F_{args.p}")
    if judged.meataxe.irreducible:
        print(f"irreducible: yes (commutant dimension {judged.commutant})")
    else:
        print(f"irreducible: no (invariant subspace of dimension "
              f"{judged.meataxe.invariant_subspace.shape[0]})")
    v = simplicity.decide_heart_simplicity(g, g.tag, args.p)
    print(f"simplicity verdict: {v.level.name}")
    for item in v.evidence:
        print(f"  [{item.kind}] {item.statement}")
    if args.dump:
        _write(args.dump, modules.dumps(h))
    return 0


def _cmd_weights(args) -> int:
    params = weights.CurveParams(args.n, args.p, args.r)
    if args.n % args.p != 0:
        sys.stdout.write(weights.weight_profile(params).table())
        return 0
    print(f"not applicable: p = {args.p} divides n = {args.n} "
          "(no closed-form profile in this branch); "
          f"genus {weights.genus(params)}")
    return 0


def _cmd_group(args) -> int:
    g = _concrete_group(args)
    print(f"tag: {g.tag.describe()}")
    print(f"degree: {g.degree}")
    print(f"order: {g.order}")
    print(f"order (independent chain): {g.order_with_base('decreasing')}")
    print(f"transitive: {g.is_transitive()}")
    print(f"doubly transitive: {g.is_doubly_transitive()}")
    print("generators:")
    sys.stdout.write(format_group_file(g))
    return 0


def _cmd_probe(args) -> int:
    f = probe.parse_poly(args.poly)
    ev = probe.classify_galois(f, prime_budget=args.budget)
    print(f"polynomial: {f}")
    print(f"degree: {ev.degree}")
    print(f"discriminant: {ev.disc} (perfect square: {ev.disc_is_square})")
    print(f"irreducible witness prime: {ev.irreducible_witness}")
    print("cycle types observed (pattern @ first prime):")
    for pattern, p in ev.cycle_types:
        print(f"  {list(pattern)} @ {p}")
    tagtext = f" [{ev.conclusion_tag}]" if ev.conclusion_tag else ""
    print(f"conclusion: {ev.conclusion}{tagtext}")
    if ev.resolved_group:
        print(f"resolved group: {ev.resolved_group}")
    for reason in ev.reasons:
        print(f"  - {reason}")
    return 0


def _prime_budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= budget <= probe.MAX_PRIME_BUDGET:
        raise argparse.ArgumentTypeError(
            f"{budget} is outside 1..{probe.MAX_PRIME_BUDGET} (MAX_PRIME_BUDGET)")
    return budget


def _bundled_fixtures() -> Path:
    import importlib.resources

    return Path(str(importlib.resources.files("heartproof.data").joinpath("fixtures.jsonl")))


def run_fixture_line(line: str):
    """Returns (name, ok, message) for one JSONL fixture entry."""
    entry = json.loads(line)
    name = entry.get("name", "<unnamed>")
    expect = entry["expect"]
    try:
        scenario = verdict.scenario_from_dict(entry["scenario"])
        cert = verdict.dispatch(scenario)
    except ValueError as exc:  # InvalidScenario, or malformed input such as a bad generator
        if expect.get("error") == "invalid_scenario":
            return name, True, f"rejected as expected: {exc}"
        return name, False, f"unexpected rejection: {exc}"
    if expect.get("error"):
        return name, False, f"expected {expect['error']} but dispatch succeeded"
    problems = []
    if cert.conclusion.kind != expect["conclusion"]:
        problems.append(f"conclusion {cert.conclusion.kind} != {expect['conclusion']}")
    if expect.get("theorem") and cert.theorem != expect["theorem"]:
        problems.append(f"theorem {cert.theorem} != {expect['theorem']}")
    if expect.get("fields") is not None and list(cert.conclusion.fields) != expect["fields"]:
        problems.append(f"fields {list(cert.conclusion.fields)} != {expect['fields']}")
    if expect.get("first_failed") is not None:
        got = cert.first_failed.anchor if cert.first_failed else None
        if got != expect["first_failed"]:
            problems.append(f"first failed {got!r} != {expect['first_failed']!r}")
    if problems:
        return name, False, "; ".join(problems)
    return name, True, cert.conclusion.kind


def _cmd_fixtures(args) -> int:
    path = Path(args.run) if args.run else _bundled_fixtures()
    if not path.exists():
        raise ValueError(f"fixture file {path} does not exist")
    passed = failed = 0
    for lineno, raw in enumerate(_read(path, "fixture file").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, ok, message = run_fixture_line(line)
        except (json.JSONDecodeError, KeyError) as exc:
            print(f"{path}:{lineno}: parse error: {exc}", file=sys.stderr)
            return 1
        status = "pass" if ok else "FAIL"
        print(f"[{status}] {name}: {message}")
        if ok:
            passed += 1
        else:
            failed += 1
    if passed + failed == 0:
        print("warning: no fixtures found (empty file)")
    print(f"{passed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="heartproof",
                     description="certified endomorphism-ring verdicts for "
                                 "superelliptic jacobians")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add_group_args(p, need_p=True):
        p.add_argument("--group", help="group tag: S, A, M11..M24, PSL2(q), U3(q)")
        p.add_argument("--group-file", help="file with one generator per line "
                                            "(cycle notation, # comments)")
        p.add_argument("--n", type=int, help="degree (required for S/A)")
        if need_p:
            p.add_argument("--p", type=int, required=True, help="odd prime p")

    pa = sub.add_parser("analyze", help="dispatch a scenario to the theorem routes")
    add_group_args(pa)
    pa.add_argument("--poly", help="integer polynomial, e.g. 'x^5 - x - 1'")
    pa.add_argument("--r", type=int, default=1, help="exponent r in q = p^r")
    pa.add_argument("--assume-zeta", action="store_true",
                    help="assert that K contains a primitive q-th root of unity")
    pa.add_argument("--json", help="write the certificate JSON here")
    pa.add_argument("--seed", type=int, default=0)
    pa.set_defaults(func=_cmd_analyze)

    ph = sub.add_parser("heart", help="heart of a permutation action over F_p")
    add_group_args(ph)
    ph.add_argument("--seed", type=int, default=0)
    ph.add_argument("--dump", help="write the module dump here")
    ph.set_defaults(func=_cmd_heart)

    pw = sub.add_parser("weights", help="weight multiplicity profile")
    pw.add_argument("--n", type=int, required=True)
    pw.add_argument("--p", type=int, required=True)
    pw.add_argument("--r", type=int, default=1)
    pw.set_defaults(func=_cmd_weights)

    pg = sub.add_parser("group", help="construct and describe a named group")
    add_group_args(pg, need_p=False)
    pg.set_defaults(func=_cmd_group)

    pp = sub.add_parser("probe", help="Galois-group evidence for a polynomial")
    pp.add_argument("--poly", required=True)
    pp.add_argument("--budget", type=_prime_budget, default=40,
                    help=f"number of primes to sample, 1 to {probe.MAX_PRIME_BUDGET}")
    pp.set_defaults(func=_cmd_probe)

    pf = sub.add_parser("fixtures", help="replay scenario/expectation fixtures")
    pf.add_argument("--run", help="fixture JSONL path (default: bundled set)")
    pf.set_defaults(func=_cmd_fixtures)
    return parser


@cache
def _parser() -> _Parser:
    """The parser, built on the first `main` call rather than at import."""
    return build_parser()


def _plain_args(command: _Parser, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace `command.parse_known_args(tokens)` returns, for a plain
    argv (see the module docstring); None for any other."""
    values = {}
    it = iter(tokens)
    for token in it:
        action = command._option_string_actions.get(token)
        if type(action) is argparse._StoreTrueAction:
            values[action.dest] = True
            continue
        value = next(it, None)
        if (type(action) is not argparse._StoreAction or action.nargs is not None
                or action.choices is not None or value is None
                or value.startswith("-") and (" " not in value or "=" in value
                                              or value[:2] in command._option_string_actions)):
            return None
        try:
            values[action.dest] = (action.type or str)(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
    for action in command._actions:
        if action.dest not in values:
            if action.required:
                return None
            if action.default is not argparse.SUPPRESS:
                values[action.dest] = action.default
    return argparse.Namespace(**{**command._defaults, **values})


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    args = _plain_args(command, argv[1:]) if command else None
    if args is None:
        args = parser.parse_args(argv)
    else:
        args.command = argv[0]
    if args.command in ("analyze", "heart") and not (
        args.group or args.group_file or getattr(args, "poly", None)
    ):
        parser.error("one of --group, --group-file or --poly is required")
    return _run(args)


def _run(args) -> int:
    """The subcommand's exit code; an input it refuses is reported here."""
    try:
        return args.func(args)
    except (ValueError, modules.RandomnessExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
