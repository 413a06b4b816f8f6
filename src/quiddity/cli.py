"""Command-line surface: argument parsing and dispatch for every command,
and the bodies of ``count`` and ``formula``.

Counts are always serialized as decimal strings; they outgrow 53-bit
floats well inside the supported parameter range.  Output is
deterministic for a fixed command line except for the elapsed_ms field.

Every call runs in a fresh interpreter and pays for the modules it
imports, and, without bytecode caching (PYTHONDONTWRITEBYTECODE), for
compiling them too.  So this module imports only ``modring`` and ``sl2``
itself: argv is read by one option table (``COMMANDS``), not ``argparse``
with its ``gettext`` and ``locale``, and a report is printed by
``_encode``, not ``json``.  Each command imports what it runs: all but
``formula`` the budget (``spec``); ``count`` the router (``route``),
which loads the count sources its route takes and never ``crt``;
``formula`` the closed forms (``formulas``).  The other bodies live in
the module ``COMMANDS`` names for them, imported only when the command
runs: ``crt`` in ``crt``, which loads ``formulas`` too; ``table`` and
``verify`` in ``reference``, whose suites load the harness (``maps``) as
they run it.  So a count compiles no other command's body.

The process entry is ``quiddity.__main__.main``; ``main(argv)`` here runs
one request in process and leaves the garbage collector as it finds it.
"""

import sys
import time
from importlib import import_module
from types import SimpleNamespace

from .modring import Modulus, NotAUnit
from .sl2 import Mat2, TARGET_NAMES, target_by_name


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_target(text: str, modulus: Modulus) -> tuple[Mat2, str]:
    if text in TARGET_NAMES:
        return target_by_name(text, modulus), text
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4:
        raise ValueError(f"target must be one of {TARGET_NAMES} or four comma-separated "
                         f"entries, got {text!r}")
    mat = Mat2(*parts, modulus)
    if mat.det() != 1:
        raise ValueError(f"target {text} has determinant {mat.det()}, not 1")
    return mat, ",".join(str(v) for v in mat.entries())


def _encode(value) -> str:
    """``json.dumps(value)`` for what a report holds: dicts, lists, strs,
    ints and None (the two_exponent of an odd modulus)."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_encode(k)}: {_encode(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_encode, value)) + "]"
    if isinstance(value, str):
        from _json import encode_basestring_ascii  # json's C escaper; table and verify skip it

        return encode_basestring_ascii(value)
    return "null" if value is None else int.__repr__(value)  # TypeError on other types


def _emit(report: dict):
    sys.stdout.write(_encode(report) + "\n")


# ---------------------------------------------------------------------------
# count


def cmd_count(args) -> int:
    from .route import route_count
    from .spec import SetSpec, constraint_text, parse_constraint

    modulus = Modulus(args.modulus)
    target, target_name = _parse_target(args.target, modulus)
    constraints = parse_constraint(args.constraint or "none")
    spec = SetSpec(args.size, target, constraints)
    started = time.perf_counter()
    count, method = route_count(spec, args.method, args.budget)
    _emit({
        "modulus": args.modulus,
        "size": args.size,
        "target": target_name,
        "constraint": next((constraint_text(*c) for c in constraints.items()), "none"),
        "method": method,
        "count": str(count),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    })
    return 0


# ---------------------------------------------------------------------------
# formula


# name -> (function in ``formulas``, its parameters in call order).  The
# function is looked up by name at call time, so a rebound module attribute
# (as a tracer installs) is the one called.
FORMULAS = {
    "gauss-bracket": ("gauss_bracket", ("m", "k")),
    "gauss-binom2": ("gauss_binom2", ("m", "k")),
    "u-count": ("u_count", ("n", "q", "sign")),
    "w4-ring4": ("w4_ring4", ("n", "sign")),
    "w-odd-2m": ("w_odd_2m", ("n_half", "m", "sign")),
    "delta-closed": ("delta_closed_form", ("n", "m", "target")),
    "delta-base": ("delta_base", ("n", "m", "target")),
    "delta-recursion": ("delta_recursion", ("prev", "prev2", "m")),
    "w4-2m": ("w4_2m", ("m", "sign")),
    "w-even-bounds": ("w_even_bounds", ("n_half", "m", "sign")),
    "w8-even": ("w8_even", ("n_half",)),
    "w8-odd": ("w8_odd", ("n_half", "sign")),
    "zero-pairs": ("zero_pair_count", ("m",)),
}


def cmd_formula(args) -> int:
    from . import formulas

    function, names = FORMULAS[args.name]
    params = {}
    for name in names:
        params[name] = getattr(args, name)
        if params[name] is None:
            raise ValueError(f"formula {args.name!r} needs --{name.replace('_', '-')}")
    value = getattr(formulas, function)(*params.values())
    report = {"formula": args.name, "params": params}
    if isinstance(value, tuple):  # w_even_bounds: a (lower, upper) sandwich
        report.update(lower=str(int(value[0])), upper=str(int(value[1])))
    else:
        report["value"] = str(int(value))
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


METHODS = ("auto", "formula", "dp", "brute")
SIGNS = ("+", "-")
HELP = {"-h", "--help"}
# The formula parameters that take a name; every other one takes an integer.
NAMED_PARAMS = {"sign": SIGNS, "target": TARGET_NAMES}

# The suites ``verify`` runs, in the order ``all`` runs them; the same keys
# as reference.SUITES, listed here so that parsing does not import it.
SUITE_NAMES = ("bijections", "recursion", "bounds", "crt", "totality")

# command -> ("module.handler", help line, options).  The handler's module
# is imported and the handler looked up by name at call time, as FORMULAS'
# functions are, so a request compiles only its own command's body.  An
# option may set its "kind" (int or str, called on its text), "default"
# (else None), "required", "choices" and "help"; --max-size arrives as
# args.max_size.
COMMANDS = {
    "count": ("cli.cmd_count", "count solution tuples for one configuration", {
        "modulus": {"kind": int, "required": True},
        "size": {"kind": int, "required": True},
        "target": {"default": "id",
                   "help": "id, neg-id, s, neg-s, t, neg-t, or four comma-separated entries"},
        "constraint": {"help": "aK-unit, aK-nonunit or aK=V"},
        "method": {"default": "auto", "choices": METHODS},
        "budget": {},
    }),
    "formula": ("cli.cmd_formula", "evaluate one closed-form expression", {
        "name": {"required": True, "choices": tuple(FORMULAS)},
        **{name.replace("_", "-"): {"choices": NAMED_PARAMS[name]} if name in NAMED_PARAMS
           else {"kind": int} for _, names in FORMULAS.values() for name in names},
    }),
    "table": ("reference.cmd_table", "print one reference table as CSV", {
        "which": {"required": True, "choices": ("odd-w-plus", "w8", "delta-id", "delta-s")},
        "rows": {"help": "row sizes, e.g. 3..10 or 3,5,7"},
    }),
    "verify": ("reference.cmd_verify", "run a verification suite", {
        "suite": {"required": True, "choices": (*SUITE_NAMES, "all")},
        "modulus": {"help": "moduli, e.g. 4,8"},
        "m": {"help": "2-power exponents, e.g. 2,3"},
        "sizes": {"help": "sizes, e.g. 5..10"},
        "max-size": {"kind": int},
        "budget": {},
    }),
    "crt": ("crt.cmd_crt", "assemble a count from coprime pieces", {
        "modulus": {"kind": int, "required": True},
        "size": {"kind": int, "required": True},
        "sign": {"default": "+", "choices": SIGNS},
        "method": {"default": "auto", "choices": METHODS},
    }),
}


def _parse(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """The command and its options, or (command, None) when -h or --help
    asks for its help (command None: the top level's).  Takes --opt value,
    --opt=value and a unique prefix of an option; the last of a repeated
    option wins."""
    if HELP & set(argv):
        return (argv[0] if argv[0] in COMMANDS else None), None
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ValueError(f"{got}; choose one of {', '.join(COMMANDS)}")
    command, tokens, given = argv[0], iter(argv[1:]), {}
    options = COMMANDS[command][2]
    for token in tokens:
        name, has_text, text = token.partition("=")
        keys = ([key for key in options if f"--{key}" == name]
                or [key for key in options if f"--{key}".startswith(name)])
        if len(keys) != 1:
            raise ValueError(f"{name!r} is not one of {command}'s options "
                             f"--{', --'.join(options)}")
        if not has_text:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ValueError(f"{command} --{keys[0]} needs a value")
        given[keys[0]] = text
    args = SimpleNamespace()
    for key, option in options.items():
        text, choices = given.get(key), option.get("choices")
        if text is None and option.get("required"):
            raise ValueError(f"{command} needs --{key}")
        try:
            value = option.get("default") if text is None else option.get("kind", str)(text)
        except ValueError:
            raise ValueError(f"{command} --{key} wants an integer, got {text!r}") from None
        if text is not None and choices and value not in choices:
            raise ValueError(f"{command} --{key} wants one of {', '.join(choices)}, got {text!r}")
        setattr(args, key.replace("-", "_"), value)
    return command, args


def _help(command: str | None) -> str:
    """Help from COMMANDS: the commands, or one command's options."""
    if command is None:
        head = "Exact counting and verification for lambda-quiddities over Z/NZ."
        rows = {name: line for name, (_, line, _) in COMMANDS.items()}
    else:
        _, head, options = COMMANDS[command]
        rows = {}
        for key, option in options.items():
            value = "{" + ",".join(option["choices"]) + "}" if "choices" in option else key.upper()
            required = option.get("required")
            rows[f"--{key} {value}"] = "required" if required else option.get("help", "")
    lines = [f"usage: quiddity {command or 'COMMAND'} [--OPTION VALUE ...]", "", head, "",
             *(f"  {name:<24} {text}".rstrip() for name, text in rows.items())]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Run one request, sys.argv[1:] when argv is None; return its exit code."""
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:  # -h or --help
            sys.stdout.write(_help(command))
            return 0
        if command != "formula":  # every command that can walk reads its budget once
            from .spec import default_budget, parse_budget

            given = getattr(args, "budget", None)  # count and verify take --budget
            args.budget = default_budget() if given is None else parse_budget(given, "--budget")
        module, _, handler = COMMANDS[command][0].partition(".")
        return getattr(import_module(f".{module}", __package__), handler)(args)
    except (ValueError, NotAUnit) as err:
        # A bad request exits 2 with its message.  ValueError covers parse
        # errors, CapExceeded, UnsupportedCase, BudgetExceeded and a
        # modulus too large to factor.
        sys.stderr.write(f"error: {err}\n")
        return 2
