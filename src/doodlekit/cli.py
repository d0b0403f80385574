"""Command-line front end.

Every subcommand is a thin adapter over one library call; output is plain
deterministic text suitable for golden files.  Exit codes: 0 success /
Equivalent / isomorphic; 1 proved distinct (Distinct verdicts,
non-isomorphic data, separated words); 2 Unknown (including a separation
test that proves nothing); 64 usage error; 65 parse or validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import __version__
from .alexander import braid
from .errors import CertificateError, DoodleError
from .freegroup import mu, separating_generator, verify_relations
from .gauss import closure_gauss, format_gauss, isomorphic, parse_gauss
from .markov import (
    Budget,
    Distinct,
    Equivalent,
    format_certificate,
    verify_certificate,
)
from .markov import equivalent_closures
from .words import (
    _quoted,
    closure_components,
    format_word,
    format_word_file,
    free_reduce,
    parse_word,
    pi,
)

USAGE_ERROR = 64
DATA_ERROR = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _int(text: str) -> int:
    """An int option; argparse's own message would quote all of a long value."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


def _build_parser() -> _Parser:
    p = _Parser(prog="doodlekit", description=__doc__)
    p.add_argument("--version", action="version", version=f"doodlekit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def word_cmd(name, help_):
        c = sub.add_parser(name, help=help_)
        c.add_argument("--n", type=_int, required=True, help="strand count")
        c.add_argument("word", help="word tokens, e.g. 's1 r2'")
        return c

    word_cmd("reduce", "delete adjacent equal letters")
    word_cmd("pi", "permutation of the word in cycle form")
    word_cmd("components", "number of closure components")
    word_cmd("mu", "free-group substitution images of the word")

    c = sub.add_parser("verify-relations", help="check the defining relations under mu")
    c.add_argument("--n", type=_int, required=True)

    c = sub.add_parser("separates", help="sound inequality test via mu")
    c.add_argument("--n", type=_int, required=True)
    c.add_argument("word1")
    c.add_argument("word2")

    c = sub.add_parser("gauss-validate", help="validate a Gauss data file")
    c.add_argument("path")

    c = sub.add_parser("gauss-iso", help="crossing bijection between two Gauss files")
    c.add_argument("path1")
    c.add_argument("path2")

    c = sub.add_parser("closure-gauss", help="Gauss data of the closure of a word")
    c.add_argument("--n", type=_int, required=True)
    c.add_argument("word")

    c = sub.add_parser("braid", help="braiding: Gauss file in, word file out")
    c.add_argument("path")

    c = sub.add_parser("equiv", help="budgeted Markov-move equivalence search")
    c.add_argument("--n1", type=_int, required=True)
    c.add_argument("--n2", type=_int, required=True)
    c.add_argument("word1")
    c.add_argument("word2")
    c.add_argument("--max-states", type=_int, default=Budget.max_states)
    c.add_argument("--max-len", type=_int, default=None)
    c.add_argument("--max-n", type=_int, default=None)

    c = sub.add_parser("verify-cert", help="replay an equivalence certificate")
    c.add_argument("path")
    return p


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DoodleError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out):  # argparse prints --version / --help there
            args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"doodlekit: {exc}", file=err)
        return USAGE_ERROR
    except SystemExit as exc:  # --version / --help
        return 0 if exc.code in (0, None) else USAGE_ERROR

    try:
        if args.command == "reduce":
            print(format_word(free_reduce(parse_word(args.word, args.n))), file=out)
            return 0
        if args.command == "pi":
            print(pi(parse_word(args.word, args.n)).cycle_string(), file=out)
            return 0
        if args.command == "components":
            print(closure_components(parse_word(args.word, args.n)), file=out)
            return 0
        if args.command == "mu":
            endo = mu(parse_word(args.word, args.n))
            for k in range(1, args.n + 1):
                print(f"x{k} -> {endo.image(k)}", file=out)
            return 0
        if args.command == "verify-relations":
            report = verify_relations(args.n)
            good = sum(r.holds for r in report)
            print(f"{good}/{len(report)} relations hold", file=out)
            return 0 if good == len(report) else 1
        if args.command == "separates":
            u = parse_word(args.word1, args.n)
            v = parse_word(args.word2, args.n)
            witness = separating_generator(u, v)
            if witness is None:
                print("not separated by mu (proves nothing)", file=out)
                return 2
            print(
                f"separated at x{witness}: "
                f"{mu(u).image(witness)} vs {mu(v).image(witness)}",
                file=out,
            )
            return 1
        if args.command == "gauss-validate":
            parse_gauss(_read(args.path))
            print("ok", file=out)
            return 0
        if args.command == "gauss-iso":
            g1 = parse_gauss(_read(args.path1))
            g2 = parse_gauss(_read(args.path2))
            sigma = isomorphic(g1, g2)
            if sigma is None:
                print("not isomorphic", file=out)
                return 1
            print(" ".join(f"{k}->{v}" for k, v in enumerate(sigma, start=1)) or "()", file=out)
            return 0
        if args.command == "closure-gauss":
            print(format_gauss(closure_gauss(parse_word(args.word, args.n))), end="", file=out)
            return 0
        if args.command == "braid":
            w = braid(parse_gauss(_read(args.path)))
            print(format_word_file(w), end="", file=out)
            return 0
        if args.command == "equiv":
            u = parse_word(args.word1, args.n1)
            v = parse_word(args.word2, args.n2)
            budget = Budget(args.max_states, args.max_len, args.max_n)
            verdict = equivalent_closures(u, v, budget)
            if isinstance(verdict, Equivalent):
                print(format_certificate(u, v, verdict.trace), end="", file=out)
                return 0
            if isinstance(verdict, Distinct):
                print(
                    f"distinct: {verdict.invariant} "
                    f"{verdict.left_value} vs {verdict.right_value}",
                    file=out,
                )
                return 1
            print(f"unknown: budget exhausted after {verdict.states_explored} states", file=out)
            return 2
        trace = verify_certificate(_read(args.path))  # verify-cert, the last subcommand
        print(f"certificate ok: {len(trace.steps)} steps", file=out)
        return 0
    except CertificateError as exc:
        print(f"doodlekit: bad certificate: {exc}", file=err)
        return DATA_ERROR
    except DoodleError as exc:
        print(f"doodlekit: {exc}", file=err)
        return DATA_ERROR
    except OSError as exc:
        print(f"doodlekit: {exc}", file=err)
        return DATA_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
