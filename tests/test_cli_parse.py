"""The table parser of ``hekdv.cli`` against the argparse tree it replaced.

``build_parser`` is the reference: the argparse parser the command line
used to be read with.  The parity test runs both parsers in process on
drawn command lines and runs no command.  The ``--`` separator is left
out, since its handling by argparse differs across Python versions.
"""

import argparse
import contextlib
import io

from hypothesis import example, given, seed, settings, strategies as st

from hekdv import cli
from hekdv.errors import ConfigError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hekdv",
        description="exact verification and simulation for the deformed "
                    "KdV hierarchy on a genus-3 symmetric square")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=["all"] + list(cli.SUITES))
    pv.add_argument("--out", default=None, help="write the JSON report here")
    pv.set_defaults(func=cli._cmd_verify)

    def add_sim_args(p):
        p.add_argument("--y", default=",".join(cli.DEFAULT_Y),
                       help="curve parameters c4,c6,c8,c10,c12,c14 as exact "
                            "rationals (default X^7+X-1)")
        p.add_argument("--p1", default=",".join(cli.DEFAULT_P1),
                       help="first curve point x,y ('auto' ordinate allowed)")
        p.add_argument("--p2", default=",".join(cli.DEFAULT_P2),
                       help="second curve point x,y")
        p.add_argument("--rel-tol", type=float, default=1e-12)
        p.add_argument("--abs-tol", type=float, default=1e-14)
        p.add_argument("--out", default=None)

    ps = sub.add_parser("simulate", help="integrate one flow")
    add_sim_args(ps)
    ps.add_argument("--flow", choices=["I", "II", "T1", "T3"], required=True)
    ps.add_argument("--t-end", type=float, default=1.0,
                    help="span of the run; a negative one runs backwards")
    ps.add_argument("--csv", default=None, help="trajectory CSV path")
    ps.set_defaults(func=cli._cmd_simulate)

    pse = sub.add_parser("series", help="series expansion of the divisor branch")
    pse.add_argument("target", choices=["phi"])
    pse.add_argument("--order", type=int, default=15)
    pse.add_argument("--out", default=None)
    pse.set_defaults(func=cli._cmd_series)

    pc = sub.add_parser("commute", help="flow commutativity experiment")
    add_sim_args(pc)
    pc.add_argument("--sigma", type=float, required=True)
    pc.add_argument("--tau", type=float, required=True)
    pc.add_argument("--flows", default="T1,T3")
    pc.set_defaults(func=cli._cmd_commute)
    return parser


def reference(argv):
    """"help", "error", or the handler and the repr of the values."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "error"
    values = vars(ns)
    handler = values.pop("func")
    values.pop("command")
    return handler, repr(sorted(values.items()))


def table(argv):
    """The same reading of ``argv`` by ``cli.parse``."""
    try:
        handler, ns = cli.parse(argv)
    except ConfigError:
        return "error"
    if handler is cli._help:
        return "help"
    return handler, repr(sorted(vars(ns).items()))


def forms(flags):
    """Each flag and each of its proper prefixes longer than "--"."""
    return sorted({flag[:k] for flag in flags for k in range(3, len(flag) + 1)})


# every flag of every command and its prefixes: unique for some commands,
# ambiguous or unknown for others
FLAGS = forms({f"--{flag}" for cmd in cli.COMMANDS.values()
               for flag in cmd.options} | {"--help"})
VALUES = ["1/3,auto", "-1", "-.5", "-1e-3", "nan", "x", "0.1", "7", "",
          "I", "T3", "all", "phi", "T1,T3"]
NOISE = ["-h", "--bogus", "nonsense", "x", "-1", "-1e-3",
         *sorted({c for cmd in cli.COMMANDS.values() for c in cmd.choices})]
REQUIRED = {"verify": ["bm"], "series": ["phi"],
            "simulate": ["--flow", "II"],
            "commute": ["--sigma", "0.1", "--tau", "-1"]}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from([*cli.COMMANDS, *cli.COMMANDS, "bogus"]))
    own = forms(f"--{flag}" for flag in getattr(cli.COMMANDS.get(name),
                                                "options", ()))
    value = st.sampled_from(VALUES)
    pair = st.tuples(st.sampled_from(own or FLAGS), value)
    unit = st.one_of(pair.map(list), pair.map(list),
                     pair.map(lambda fv: [f"{fv[0]}={fv[1]}"]),
                     st.tuples(st.sampled_from(FLAGS), value).map(list),
                     st.sampled_from(NOISE + FLAGS).map(lambda tok: [tok]))
    body = [tok for part in draw(st.lists(unit, max_size=3)) for tok in part]
    if name in REQUIRED and draw(st.integers(0, 3)):
        # mostly well-formed lines, so that many are accepted
        at = draw(st.integers(0, len(body)))
        body[at:at] = REQUIRED[name]
    head = draw(st.sampled_from([[]] * 6 + [["-h"], ["--bogus"], ["x"]]))
    return [*head, name, *body]


@seed(20261020)
@settings(max_examples=600)
@given(argvs())
@example(["verify", "all", "--o", "x"])                 # a unique prefix
@example(["simulate", "--fl", "I", "--t-end", "-1e-3"])  # not a number
@example(["simulate", "--flow", "I", "--t-end", "-.5"])
@example(["simulate", "--flow", "I", "--t-end=-1e-3"])
@example(["commute", "--sigma", "1", "--t", "2", "--tau", "3"])
@example(["series", "--o", "3", "phi"])                 # ambiguous
@example(["verify", "--out", "a", "bm", "--out=b"])
@example(["verify", "bm", "stray"])
@example(["-h", "verify", "bm"])
@example(["--bogus", "verify", "bm", "-h"])
@example(["simulate", "-h", "--p"])
@example(["verify", "--help=x", "bm"])
@example([])
def test_table_parser_reads_as_argparse(argv):
    assert table(argv) == reference(argv), argv


def test_values_and_handlers_match_the_reference():
    argv = ["simulate", "--flow", "T1", "--t-e", "-.5", "--rel-tol=1e-9",
            "--y", "0,0,0,0,1,1/2", "--p1=-1/2,auto"]
    handler, ns = cli.parse(argv)
    assert handler is cli._cmd_simulate
    assert (ns.flow, ns.t_end, ns.rel_tol, ns.abs_tol, ns.y, ns.p1, ns.p2,
            ns.csv, ns.out) == ("T1", -0.5, 1e-9, 1e-14, "0,0,0,0,1,1/2",
                                "-1/2,auto", "2,auto", None, None)
    assert table(argv) == reference(argv)
