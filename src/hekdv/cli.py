"""Command-line frontend: verification suites, simulation, expansions.

The command line is read from one table, ``COMMANDS``: each command's
handler, its positional and that positional's choices, and for each
option its type, default, choices, whether it is required and its help.
``parse``, the help printer and the usage errors all read that table.  An
option is given as ``--opt value`` or ``--opt=value``, and a unique prefix
of a flag stands for it (an ambiguous one is an error); a value that
starts with a dash is taken after a flag only when it is a plain negative
number (``-1``, ``-.5``), and otherwise needs ``--opt=value``; the last
occurrence of an option wins; options may come before or after the
positional; a stray positional, an unknown or ambiguous option, a missing
required option and a bad choice or number are usage errors.  ``-h`` or
``--help`` prints the help of hekdv or of the command before it.

Exit codes: 0 when every requested check passes, 1 on any failure (an
aborted simulation, or an internal error of the program), 2 on usage or
configuration errors.
"""

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from importlib import import_module
from types import SimpleNamespace

from .curve import CurveParams, in_Bg
from .errors import ConfigError, MemoryCapExceeded, SeedError, SingularityAbort
from .report import emit_report

# reference configuration: a nonsingular curve with an exact rational point
DEFAULT_Y = ("0", "0", "0", "0", "1", "1")          # Q = X^7 + X - 1
DEFAULT_P1 = ("1", "1")
DEFAULT_P2 = ("2", "auto")


def _suite(module, name):
    """The suite ``name`` of hekdv.<module>, which loads when the suite runs."""
    return lambda: getattr(import_module(f"hekdv.{module}"), name)()


SUITES = {
    "bm": _suite("verify_tables", "suite_bm"),
    "integrals": _suite("verify_tables", "suite_integrals"),
    "hamiltonian": _suite("verify_tables", "suite_hamiltonian"),
    "dkdv": _suite("verify_hierarchy", "suite_dkdv"),
    "psi": _suite("verify_hierarchy", "suite_psi"),
    "rational": _suite("ratlimit", "suite_rational"),
    "appendix": _suite("phiring", "suite_appendix"),
}
SUITE_ORDER = ("bm", "integrals", "hamiltonian", "dkdv", "rational", "appendix")


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{text!r} is not an exact rational") from None


def _parse_rationals(text, expect=None):
    parts = [p.strip() for p in text.split(",")]
    if expect is not None and len(parts) != expect:
        raise ConfigError(f"expected {expect} comma-separated values")
    return [_rational(p) for p in parts]


def _build_params(ns):
    ys = _parse_rationals(ns.y, expect=6)
    params = CurveParams.numeric(3, ys)
    if not in_Bg(params):
        raise ConfigError("curve parameters lie on the discriminant locus")
    return params


def _parse_point(text, params):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError("points are given as x,y (y may be 'auto')")
    x = _rational(parts[0])
    if parts[1] == "auto":
        from . import sim
        y = sim.curve_ordinate(params, x)
    else:
        y = _rational(parts[1])
    return (x, y)


def _write_or_print(doc, out_path):
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(ns):
    if ns.suite == "all":
        reports = []
        for name in SUITE_ORDER:
            reports.extend(SUITES[name]())
    else:
        reports = SUITES[ns.suite]()
    doc = emit_report(reports)
    _write_or_print(doc, ns.out)
    for check in doc["checks"]:
        print(f"{check['status']:4s} {check['id']}: {check['residual_summary']}",
              file=sys.stderr)
    return 0 if doc["overall"] == "PASS" else 1


def _cmd_simulate(ns):
    from . import sim
    params = _build_params(ns)
    p1 = _parse_point(ns.p1, params)
    p2 = _parse_point(ns.p2, params)
    s0 = sim.seed_state(params, p1, p2)
    try:
        traj = sim.integrate(ns.flow, s0, ns.t_end, rel_tol=ns.rel_tol,
                             abs_tol=ns.abs_tol, params=params)
    except SingularityAbort as exc:
        traj = exc.trajectory
    if ns.csv:
        traj.to_csv(ns.csv)
    d12, d14 = traj.relative_drift()
    doc = {
        "flow": ns.flow,
        "t_end": ns.t_end,
        "rel_tol": ns.rel_tol,
        "abs_tol": ns.abs_tol,
        "samples": len(traj.samples),
        "reached_time": traj.samples[-1][0],
        "relative_drift_H12": d12,
        "relative_drift_H14": d14,
        "aborted": traj.aborted,
        "abort_reason": traj.abort_reason,
        "steps": traj.step_stats(),
    }
    _write_or_print(doc, ns.out)
    return 1 if traj.aborted else 0


def _cmd_series(ns):
    from . import phiring
    series = phiring.phi_series_example1(ns.order)
    doc = {
        "series": "phi(t) branch through the origin at w5 = 1",
        "order": ns.order,
        "coefficients": [str(c) for c in series.coeffs],
    }
    _write_or_print(doc, ns.out)
    print(str(series), file=sys.stderr)
    return 0


def _cmd_commute(ns):
    from . import sim
    params = _build_params(ns)
    flows = tuple(f.strip() for f in ns.flows.split(","))
    if len(flows) != 2:
        raise ConfigError("--flows takes two comma-separated flow ids")
    p1 = _parse_point(ns.p1, params)
    p2 = _parse_point(ns.p2, params)
    s0 = sim.seed_state(params, p1, p2)
    rep = sim.commute_experiment(params, s0, ns.sigma, ns.tau,
                                 rel_tol=ns.rel_tol, abs_tol=ns.abs_tol,
                                 flows=flows)
    _write_or_print(rep, ns.out)
    return 0 if rep["pass"] else 1


# A command: its handler, its help, its options by flag name, and its
# positional (a name and the values it may take, or None).  An option: the
# type its text converts with, its default, its help, the values it may
# take (None for any) and whether it must be given.
Command = namedtuple("Command", "handler help options positional choices",
                     defaults=(None, ()))
Option = namedtuple("Option", "type default help choices required",
                    defaults=(None, False))


def _sim_options(more):
    return {
        "y": Option(str, ",".join(DEFAULT_Y),
                    "curve parameters c4,c6,c8,c10,c12,c14 as exact "
                    "rationals; the default is X^7+X-1"),
        "p1": Option(str, ",".join(DEFAULT_P1),
                     "first curve point x,y ('auto' ordinate allowed)"),
        "p2": Option(str, ",".join(DEFAULT_P2), "second curve point x,y"),
        "rel-tol": Option(float, 1e-12, "relative tolerance of a step"),
        "abs-tol": Option(float, 1e-14, "absolute tolerance of a step"),
        "out": Option(str, None, "write the JSON summary here"),
        **more,
    }


COMMANDS = {
    "verify": Command(
        _cmd_verify, "run a verification suite",
        {"out": Option(str, None, "write the JSON report here")},
        "suite", ("all", *SUITES)),
    "simulate": Command(_cmd_simulate, "integrate one flow", _sim_options({
        "flow": Option(str, None, "the flow to integrate",
                       choices=("I", "II", "T1", "T3"), required=True),
        "t-end": Option(float, 1.0,
                        "span of the run; a negative one runs backwards"),
        "csv": Option(str, None, "trajectory CSV path")})),
    "series": Command(
        _cmd_series, "series expansion of the divisor branch",
        {"order": Option(int, 15, "truncation order of the series"),
         "out": Option(str, None, "write the JSON series here")},
        "target", ("phi",)),
    "commute": Command(_cmd_commute, "flow commutativity experiment",
                       _sim_options({
        "sigma": Option(float, None, "span of the first flow", required=True),
        "tau": Option(float, None, "span of the second flow", required=True),
        "flows": Option(str, "T1,T3", "the two flow ids, comma-separated")})),
}

_HELP = {"-h": None, "--help": None}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(name):
    if name is None:
        return f"usage: hekdv {{{','.join(COMMANDS)}}} ..."
    cmd = COMMANDS[name]
    words = ["usage: hekdv", name]
    if cmd.positional:
        words.append(f"{{{','.join(cmd.choices)}}}")
    for flag, opt in cmd.options.items():
        meta = (f"{{{','.join(opt.choices)}}}" if opt.choices
                else flag.upper().replace("-", "_"))
        words.append(f"--{flag} {meta}" if opt.required
                     else f"[--{flag} {meta}]")
    return " ".join(words)


def _usage_error(name, message):
    return ConfigError(f"{message}\n{_usage(name)}")


def _help(name):
    """Print the help of a command, or of hekdv when ``name`` is None."""
    lines = [_usage(name), ""]
    if name is None:
        lines += ["exact verification and simulation for the deformed KdV "
                  "hierarchy on a genus-3 symmetric square", "", "commands:"]
        lines += [f"  {n:12s}{cmd.help}" for n, cmd in COMMANDS.items()]
        lines += ["", "options:"]
    else:
        cmd = COMMANDS[name]
        lines += [cmd.help, "", "options:"]
        for flag, opt in cmd.options.items():
            extra = " (required)" if opt.required else (
                f" (default {opt.default})" if opt.default is not None else "")
            lines.append(f"  --{flag:10s}{opt.help}{extra}")
    lines.append("  -h, --help  show this help and exit")
    print("\n".join(lines))
    return 0


def _classify(token, flags):
    """How ``token`` reads against ``flags``: None for a positional, else
    (flag, the text joined to it by '=' or None), the flag None for an
    option that names none.  A long option may be shortened to a prefix
    of one flag; a dash-led token is a positional only when it is a
    negative number or holds a space."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    name, eq, text = token.partition("=")
    text = text if eq else None
    if name in flags:
        return name, text
    if token[1] == "-":
        hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            raise ConfigError(f"ambiguous option: {token} could match "
                              f"{', '.join(hits)}")
        if hits:
            return hits[0], text
    elif token[:2] in flags:
        return token[:2], token[2:]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _parse_command(name, tokens, extras):
    cmd = COMMANDS[name]
    flags = {**_HELP, **{f"--{flag}": opt for flag, opt in cmd.options.items()}}
    # every token is read before any is used, so an ambiguous one is an
    # error wherever it stands
    kinds = [_classify(t, flags) for t in tokens]
    values = {flag.replace("-", "_"): opt.default
              for flag, opt in cmd.options.items()}
    i = 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i]
        i += 1
        if kind is None:
            if cmd.positional and cmd.positional not in values:
                if token not in cmd.choices:
                    raise _usage_error(name, f"invalid {cmd.positional}: "
                                             f"{token!r}")
                values[cmd.positional] = token
            else:
                extras.append(token)
            continue
        flag, text = kind
        if flag is None:
            extras.append(token)
            continue
        opt = flags[flag]
        if opt is None:
            if text is not None:
                raise _usage_error(name, f"{flag} takes no value")
            return _help, name
        if text is None:
            if i == len(tokens) or kinds[i] is not None:
                raise _usage_error(name, f"{flag} expects a value")
            text = tokens[i]
            i += 1
        try:
            value = opt.type(text)
        except ValueError:
            raise _usage_error(name, f"{flag}: invalid {opt.type.__name__} "
                                     f"value {text!r}") from None
        if opt.choices and value not in opt.choices:
            raise _usage_error(name, f"{flag}: invalid choice {value!r}")
        values[flag[2:].replace("-", "_")] = value
    # a required option has no default, and a given value is never None
    missing = [f"--{flag}" for flag, opt in cmd.options.items()
               if opt.required and values[flag.replace("-", "_")] is None]
    if cmd.positional and cmd.positional not in values:
        missing.insert(0, cmd.positional)
    if missing:
        raise _usage_error(name, f"missing {', '.join(missing)}")
    if extras:
        raise _usage_error(name, f"unrecognized {' '.join(extras)}")
    return cmd.handler, SimpleNamespace(**values)


def parse(argv):
    """(handler, namespace) of a command line, or (_help, command) when it
    asks for help; a usage error raises ConfigError."""
    argv, extras = list(argv), []
    for i, token in enumerate(argv):
        kind = _classify(token, _HELP)
        if kind is None:
            if token not in COMMANDS:
                raise _usage_error(None, f"invalid command: {token!r}")
            return _parse_command(token, argv[i + 1:], extras)
        flag, text = kind
        if flag is None:
            extras.append(token)
        elif text is not None:
            raise _usage_error(None, f"{flag} takes no value")
        else:
            return _help, None
    raise _usage_error(None, "missing command")


def run(argv=None):
    try:
        handler, ns = parse(sys.argv[1:] if argv is None else argv)
        return handler(ns)
    except (ConfigError, SeedError, MemoryCapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularityAbort as exc:
        # a simulation that could not finish, e.g. a commutativity leg
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a fault of the program, not of its input
        import traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
