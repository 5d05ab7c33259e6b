"""Command-line surface over the measure algebra.

All measure, ray, and report payloads are JSON; subsets on the command
line are 1-based comma lists, families are semicolon-separated, and the
literal token ``0`` names the empty set (``--odds 0`` prescribes the
empty set as an odd generator, omitting the flag prescribes none).

The argv grammar is ``multconv [--format {json,pretty}] <command> ...``,
read by one table, ``COMMANDS`` (each command's positionals, options,
handler and help line), and one reader, ``parse_args``, which accepts and
refuses what the argparse tree it replaced did:

- ``--opt value`` and ``--opt=value``; a unique prefix of an option name,
  an ambiguous one being an error;
- options before, between or after the positionals, the last of a
  repeated option winning; an int option reads ``int(text)``;
- a word that looks like a negative number (``-1``, ``-2.5``) or holds a
  space is a value; any other word starting with ``-`` is an option, and
  an unknown one an error, which lists the unknown words in argv order;
- ``--`` ends a command's options: every later word is a positional (an
  unknown one past the positionals).  As in argparse, the ``--`` itself
  is an unknown word when every positional was given before the last
  option (or the command has none).  Before the command, ``--`` is read
  as the command, or as no command if it is the last word;
- ``--format`` goes before the command; after it, it is unknown;
- ``-h`` or ``--help`` (or ``-hh``, or a prefix such as ``--he``) prints
  help generated from the table to stdout and returns 0, unless an
  ambiguous prefix appears anywhere before ``--``, or an error that
  argparse raised on the spot (a missing or refused value, a value given
  to a flag) comes first.

The reader departs from argparse in two corners: ``-hx`` is an error, as
on Python 3.10-3.12 (3.13 prints help), and a second ``--`` is a
positional (argparse gave that positional an empty list).  A usage error
writes the usage line of the program or of the command and then
``multconv: error: <what>`` to stderr, nothing to stdout, with the same
text on every Python.

Exit codes: 0 success (and universal decisions, and help), 3 negative
universality decision, 2 malformed input, violated precondition or usage
error, 1 failed verification suite.  ``main`` returns the code and
raises no ``SystemExit``.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .lifting import lift, lift_inverse
from .measures import AtomicMeasure, Measure, mconv, symmetrize
from .subsets import GeneratingPair, SubsetMask, gamma, mask_sort_key
from .sphere import SphereMeasure, radial_project, sconv
from .universality import UniversalityReport, _check_dim, _whole_space, decide_universal_rn


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _malformed(what: str, path: str, exc: Exception) -> InputError:
    # the text of a KeyError is only the key
    detail = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
    return InputError(f"malformed {what} in {path}: {detail}")


def _parse_measure(path: str) -> AtomicMeasure:
    data = _load_json(path)
    try:
        atoms = data.get("atoms", [])
        if atoms and "ray" in atoms[0]:
            return SphereMeasure.from_json(data)
        return Measure.from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise _malformed("measure", path, exc) from exc


def _parse_subset(text: str, dim: int) -> SubsetMask:
    text = text.strip()
    if text in ("0", ""):
        return SubsetMask.empty(dim)
    try:
        return SubsetMask.from_indices(dim, (int(t) for t in text.split(",")))
    except ValueError as exc:
        raise InputError(f"bad subset {text!r}: {exc}") from exc


def _parse_family(text: str | None, dim: int) -> list[SubsetMask]:
    if text is None or not text.strip():
        return []
    return [_parse_subset(part, dim) for part in text.split(";") if part.strip()]


def _compact(payload) -> str:
    """``json.dumps(payload, separators=(",", ":"))`` with the measures and
    reports in it written by their text writers, which give the bytes of
    their ``to_json()`` there."""
    if isinstance(payload, dict):
        return "{" + ",".join([f"{json.dumps(k)}:{_compact(v)}" for k, v in payload.items()]) + "}"
    if isinstance(payload, list):
        return "[" + ",".join(map(_compact, payload)) + "]"
    if isinstance(payload, (AtomicMeasure, UniversalityReport)):
        return payload.to_json_text()
    return json.dumps(payload)


def _emit(payload, fmt: str) -> None:
    """Write a payload of JSON values, measures and reports: compact output
    through the text writers (``_compact``), pretty output as
    ``json.dumps(..., indent=2)`` of their ``to_json()``."""
    if fmt == "json":
        text = _compact(payload)
    else:
        text = json.dumps(payload, indent=2, default=lambda obj: obj.to_json())
    sys.stdout.write(text + "\n")


def _cmd_convolve(args) -> int:
    a = _parse_measure(args.a)
    b = _parse_measure(args.b)
    if args.sphere or isinstance(a, SphereMeasure) or isinstance(b, SphereMeasure):
        result = sconv(a, b)
    else:
        result = mconv(a, b)
    _emit(result, args.format)
    return 0


def _cmd_project(args) -> int:
    mu = _parse_measure(args.input)
    e = _parse_subset(args.E, mu.dim)
    if args.sphere and isinstance(mu, Measure):
        mu = radial_project(mu)
    _emit(mu.project(e), args.format)
    return 0


def _cmd_decompose(args) -> int:
    mu = _parse_measure(args.input)
    components = []
    for e in sorted(mu.component_patterns(), key=mask_sort_key):
        components.append({"E": e.to_json(), "measure": mu.restrict_order(e)})
    order = mu.order_of()
    payload = {
        "components": components,
        "order": None if order is None else order.to_json(),
        "degree": mu.degree(),
    }
    _emit(payload, args.format)
    return 0


def _cmd_symmetrize(args) -> int:
    mu = _parse_measure(args.input)
    pair = GeneratingPair.make(
        mu.dim, _parse_family(args.evens, mu.dim), _parse_family(args.odds, mu.dim)
    )
    sym = gamma(pair)
    payload = {
        "result": symmetrize(mu, pair),
        "symmetry": {
            "evens": [m.to_json() for m in sorted(sym.evens, key=mask_sort_key)],
            "odds": [m.to_json() for m in sorted(sym.odds, key=mask_sort_key)],
            "proper": sym.proper,
        },
    }
    _emit(payload, args.format)
    return 0


def _cmd_lift(args) -> int:
    mu = _parse_measure(args.input)
    if not isinstance(mu, Measure):
        raise InputError("lift expects a point measure")
    _emit(lift(mu), args.format)
    return 0


def _cmd_lift_inverse(args) -> int:
    mu = _parse_measure(args.input)
    if not isinstance(mu, SphereMeasure):
        raise InputError("lift-inverse expects a sphere measure")
    _emit(lift_inverse(mu), args.format)
    return 0


def _parse_support(text: str, dim: int, sphere: bool) -> list[SubsetMask]:
    if text == "all":
        return _whole_space(dim, sphere)
    if text == "top":
        return [SubsetMask.full(dim)]
    return [_parse_subset(part, dim) for part in text.split(";")]


def _cmd_universal(args) -> int:
    nu = _parse_measure(args.input)
    sphere = args.sphere or isinstance(nu, SphereMeasure)
    if sphere and isinstance(nu, Measure):
        raise InputError("--sphere requires a sphere measure input")
    # before "all" enumerates 2**dim support sets
    _check_dim(nu.dim)
    pair = GeneratingPair.make(
        nu.dim, _parse_family(args.evens, nu.dim), _parse_family(args.odds, nu.dim)
    )
    report = decide_universal_rn(nu, _parse_support(args.support, nu.dim, sphere), pair)
    _emit(report, args.format)
    return 0 if report.universal else 3


def _cmd_zonoid(args) -> int:
    # imported here, like the suites in _cmd_verify, so that no other
    # command compiles them
    from .zonoids import Zonotope, decide_d_universal, generating_measure, singleton_support_check

    data = _load_json(args.input)
    try:
        z = Zonotope.from_json(data)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _malformed("zonotope", args.input, exc) from exc
    nu = generating_measure(z)
    if args.check == "singleton-support":
        payload = {"check": args.check, "result": singleton_support_check(nu)}
        _emit(payload, args.format)
        return 0
    unconditional = args.check == "unc-d-universal"
    report = decide_d_universal(nu, unconditional=unconditional)
    payload = {
        "check": args.check,
        "result": report.universal,
        "report": report,
    }
    _emit(payload, args.format)
    return 0


def _cmd_verify(args) -> int:
    from .harness import run_property_suite

    report = run_property_suite(args.suite, args.seed, args.trials)
    _emit(report, args.format)
    return 0 if report["passed"] else 1


class Option(NamedTuple):
    """An option of a command: where its value goes, its kind (``flag``,
    ``text`` or ``int``), its default, the values it accepts (any when
    empty), whether it must be given, and its help text."""

    dest: str
    kind: str
    default: object = None
    choices: tuple[str, ...] = ()
    required: bool = False
    help: str = ""


class Command(NamedTuple):
    """A command: its positionals in order, its options by name, its
    handler and its help line."""

    positionals: tuple[str, ...]
    options: dict[str, Option]
    handler: Callable
    help: str


PROG = "multconv"
DESCRIPTION = "exact multiplicative-convolution algebra of atomic measures"
EXIT_CODES = (
    "exit codes: 0 success or a universal decision, 3 a negative decision, "
    "1 a failed verification suite, 2 malformed input or a usage error"
)
# read before the command
GLOBAL_OPTIONS = {"--format": Option("format", "text", "json", ("json", "pretty"), help="output style")}
_EVENS = Option("evens", "text", help="even generators: semicolon-separated subsets")
_ODDS = Option("odds", "text", help="odd generators: semicolon-separated subsets")
COMMANDS = {
    "convolve": Command(
        ("a", "b"), {"--sphere": Option("sphere", "flag", False, help="use the sphere product")},
        _cmd_convolve, "convolve two measures",
    ),
    "project": Command(
        ("input",),
        {
            "--E": Option("E", "text", required=True, help="1-based comma list; 0 means the empty set"),
            "--sphere": Option("sphere", "flag", False, help="project the radial projection of a point measure"),
        },
        _cmd_project, "project onto a coordinate subspace or subsphere",
    ),
    "decompose": Command(("input",), {}, _cmd_decompose, "coordinate decomposition with order and degree"),
    "symmetrize": Command(
        ("input",), {"--evens": _EVENS, "--odds": _ODDS}, _cmd_symmetrize, "apply the even/odd symmetrisation of a pair"
    ),
    "lift": Command(("input",), {}, _cmd_lift, "lift a point measure to a symmetric sphere measure"),
    "lift-inverse": Command(("input",), {}, _cmd_lift_inverse, "invert the lift"),
    "universal": Command(
        ("input",),
        {
            "--evens": _EVENS,
            "--odds": _ODDS,
            "--support": Option("support", "text", "all", help="all, top, or semicolon-separated subsets"),
            "--sphere": Option("sphere", "flag", False, help="decide on the sphere (a sphere measure input)"),
        },
        _cmd_universal, "decide universality; exit 0 universal, 3 not",
    ),
    "zonoid": Command(
        ("input",),
        {
            "--check": Option(
                "check", "text", choices=("d-universal", "unc-d-universal", "singleton-support"), required=True,
                help="the check to run",
            ),
        },
        _cmd_zonoid, "checks on a zonotope's generating measure",
    ),
    "verify": Command(
        (),
        {
            "--suite": Option("suite", "text", required=True, help="the property suite"),
            "--seed": Option("seed", "int", 0, help="seed of the trials"),
            "--trials": Option("trials", "int", 100, help="number of trials"),
        },
        _cmd_verify, "run a property suite; exit 0 iff it passes",
    ),
}


# argparse's negative number: a word of this form is a value, not an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class UsageError(Exception):
    """A word the command table refuses, with the command whose usage line
    goes before the message (None for the program's)."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


def _option(word: str, options: dict[str, Option]) -> tuple[str | None, str | None] | None:
    """None for a word that is a value; for an option word, its full name
    among ``--help`` and ``options`` (None for an unknown option) and the
    text after its ``=`` (None without one).  A ``--`` word up to its ``=``
    is that name if it is one, else the names it begins, of which several
    are refused; ``-h`` followed by more ``h`` is help, by anything else
    help with a value."""
    if word[:1] != "-" or word == "-":
        return None
    if word[:2] == "--":
        name, eq, value = word.partition("=")
        if name == "--help" or name in options:
            return name, value if eq else None
        names = [n for n in ("--help", *options) if n.startswith(name)]
        if len(names) > 1:
            raise UsageError(f"ambiguous option: {word} could match {', '.join(names)}")
        if names:
            return names[0], value if eq else None
    elif word[:2] == "-h":
        return "--help", None if word.strip("h") == "-" else word[2:].removeprefix("=")
    if _NEGATIVE.match(word) or " " in word:
        return None
    return None, None


def _read_option(options: dict[str, Option], name: str, text: str | None, following: str | None,
                 values: dict) -> bool:
    """Store the option ``name`` in ``values``, with its ``=`` text or else
    the ``following`` word (None when the next word is not a value), and
    return whether it took that word."""
    option = options[name]
    if option.kind == "flag":
        if text is not None:
            raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
        values[option.dest] = True
        return False
    took = text is None
    if took:
        if following is None:
            raise UsageError(f"argument {name}: expected one argument")
        text = following
    if option.kind == "int":
        try:
            values[option.dest] = int(text)
        except ValueError:
            raise UsageError(f"argument {name}: invalid int value: {text!r}") from None
    elif option.choices and text not in option.choices:
        raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(option.choices)})")
    else:
        values[option.dest] = text
    return took


def _help(command: str | None, text: str | None, words: list[str]) -> int:
    """Print the help of the program or of a command, unless help was given
    a value or ``words`` (up to ``--``) hold a prefix of both global
    options (a word ``--=...``), which argparse refused before reading any
    word."""
    if text is not None:
        raise UsageError(f"argument -h/--help: ignored explicit argument {text!r}")
    for word in words:
        if word == "--":
            break
        _global(word)
    sys.stdout.write(help_text(command))
    return 0


def parse_args(argv: list[str]) -> SimpleNamespace | int:
    """The request in ``argv`` read by the command table, or the exit code
    after printing help (0, to stdout) or a usage error (2, to stderr)."""
    try:
        return _read(list(argv))
    except UsageError as exc:
        sys.stderr.write(f"{usage(exc.command)}\n{PROG}: error: {exc}\n")
        return 2


def _global(word: str) -> tuple[str | None, str | None] | None:
    """``_option`` of a word before the command, where ``--`` is a value:
    as in argparse, it is read as the command, which no command is."""
    return None if word == "--" else _option(word, GLOBAL_OPTIONS)


def _read(words: list[str]) -> SimpleNamespace | int:
    """Read the global options up to the first value (or ``--``), which
    names the command, then the command's words.  A ``--`` that ends the
    words names no command, and no ``--`` is an option's value, as in
    argparse."""
    values = {"format": "json"}
    extras: list[str] = []
    i, count = 0, len(words)
    end = count - (words[-1:] == ["--"])
    while i < end:
        kind = _global(words[i])
        if kind is None:
            break
        name, text = kind
        i += 1
        if name is None:
            extras.append(words[i - 1])
        elif name == "--help":
            return _help(None, text, words[i:])
        else:
            following = words[i] if i < count and words[i] != "--" and _global(words[i]) is None else None
            i += _read_option(GLOBAL_OPTIONS, name, text, following, values)
    else:
        raise UsageError("the following arguments are required: command")
    name = words[i]
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError(f"invalid command: {name!r} (choose from {', '.join(COMMANDS)})")
    values["command"] = name
    try:
        return _read_command(name, command, words[i + 1:], values, extras)
    except UsageError as exc:
        exc.command = name
        raise


def _read_command(name: str, command: Command, words: list[str], values: dict,
                  extras: list[str]) -> SimpleNamespace | int:
    """Read a command's words into ``values``, after the words before it
    left the unknown ``extras``.  Every word before ``--`` is looked up
    first, so that an ambiguous prefix is refused even after help."""
    options, positionals = command.options, command.positionals
    stop = words.index("--") if "--" in words else len(words)
    kinds = [_option(word, options) for word in words[:stop]]
    for option in options.values():
        values[option.dest] = option.default
    given: list[str] = []  # the positional words, in order
    # the positionals free at the last option and the values since it: a
    # "--" after it is an unknown word if none was free or the values
    # outnumber them, else a positional next to it takes it
    free, since = len(positionals), 0
    i = 0
    while i < stop:
        kind = kinds[i]
        i += 1
        if kind is None:
            since += 1
            # a value past the positionals is unknown where it stands
            (given if len(given) < len(positionals) else extras).append(words[i - 1])
            continue
        free, since = len(positionals) - len(given), 0
        opt, text = kind
        if opt is None:
            extras.append(words[i - 1])
        elif opt == "--help":
            return _help(name, text, words)
        else:
            following = words[i] if i < stop and kinds[i] is None else None
            i += _read_option(options, opt, text, following, values)
    if stop < len(words):
        if not free or since > free:
            extras.append("--")
        given += words[stop + 1:]
    missing = list(positionals[len(given):])
    # a required option has no default, and every value read is text
    missing += [opt for opt, option in options.items() if option.required and values[option.dest] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    extras += given[len(positionals):]  # the words after "--" that no positional takes
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _label(name: str, option: Option) -> str:
    """An option as the usage line and the help show it."""
    if option.kind == "flag":
        return name
    return f"{name} {{{','.join(option.choices)}}}" if option.choices else f"{name} {option.dest.upper()}"


def usage(command: str | None = None) -> str:
    """The usage line of the program or of one command."""
    if command is None:
        words, options, positionals = [PROG], GLOBAL_OPTIONS, ("<command> [<args>]",)
    else:
        words, options, positionals = [PROG, command], COMMANDS[command].options, COMMANDS[command].positionals
    words.append("[-h]")
    for name, option in options.items():
        text = _label(name, option)
        words.append(text if option.required else f"[{text}]")
    return "usage: " + " ".join(words + list(positionals))


def help_text(command: str | None = None) -> str:
    """The help of the program (its commands and global options) or of one
    command (its positionals and options), from the command table."""
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        head = [DESCRIPTION, "", "commands:"] + [f"  {name:14s}{c.help}" for name, c in COMMANDS.items()]
        options = GLOBAL_OPTIONS
        tail = ["", f"Run '{PROG} <command> -h' for the options of a command; --format goes before it.", EXIT_CODES]
    else:
        head = [COMMANDS[command].help]
        if COMMANDS[command].positionals:
            head += ["", "positional arguments: " + " ".join(COMMANDS[command].positionals)]
        options = COMMANDS[command].options
        tail = []
    for name, option in options.items():
        default = "" if option.required or option.kind == "flag" or option.default is None else f" (default {option.default})"
        rows.append((_label(name, option), option.help + (" (required)" if option.required else default)))
    width = max(len(label) for label, _ in rows) + 2
    lines = [usage(command), ""] + head + ["", "options:"] + [f"  {label:{width}s}{text}" for label, text in rows]
    return "\n".join(lines + tail) + "\n"


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):  # help was printed, or a usage error
        return args
    try:
        return COMMANDS[args.command].handler(args)
    except ValueError as exc:  # an InputError is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
