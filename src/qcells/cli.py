"""Command-line front end: verify minors, sweep Weyl groups, print images.

Subcommands
-----------
verify         check the predicted monomial for one word at one or all k
sweep          verify every element / reduced word / position of a type
feigin-minor   print the image of a flag minor and its cross-check
reduced-words  list reduced words of an element, or all elements
selftest       run a small fixed battery of known values

Exit codes: 0 all checks pass, 1 some identity failed (a failed chamber
ansatz recovery included), 2 bad usage or environment, 3 the presentation
search cap was exhausted and no identity failed.  Each instance gets one
status, "ok", "MISMATCH" or "CAP", where it is checked, and the exit code of
verify, sweep, feigin-minor and selftest is read from the tally of those
statuses by one rule, under which a failed identity outranks a capped
search.

Defaults for --search-cap (verify and sweep) and --format can be
overridden with the environment variables QCELLS_SEARCH_CAP and
QCELLS_FORMAT; each is read, and checked, only by the subcommands that
take its option.

A single verification is mostly interpreter start-up, so importing this
module loads nothing beyond argparse and the package itself, and json is
imported only when the first JSON record is printed.  For the same reason
the entry point, run(), ends the process without interpreter finalization
once main() has returned and stdout and stderr are flushed: tearing down
the modules and freeing every module, memo and torus element a run built
would only delay the exit.  Nothing is lost by it, since the package opens
no file besides stdout and stderr and registers no atexit hook.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator

from .cartan import (
    RootDatum,
    Weight,
    build_root_datum,
    is_reduced,
    reduced_words,
    weyl_elements,
)
from .cells import (
    MinorRoutesDisagree,
    PresentationError,
    chamber_ansatz,
    feigin_minor,
    verify_theorem,
)
from .hwmod import ModuleTooLarge
from .qtorus import TorusPresentation, torus_str
from .scalars import scalar_str

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(Exception):
    """Invalid command-line input (reported on stderr, exit code 2)."""


_FORMATS = ("text", "json")
_DEFAULT_SEARCH_CAP = 3


def _int_field(text: str) -> int:
    """The one rule for an integer on the command line: a signed run of
    ASCII digits 0-9, spaces around it ignored.  Raises ValueError on
    anything else: an inner space, or an underscore or a digit of another
    script, such as "١" or "２", which int() would accept."""
    field = text.strip(" ")
    digits = field.lstrip("+-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(field)


def _nonneg_int(text: str) -> int:
    """Option type for caps and bounds: an integer >= 0."""
    try:
        value = _int_field(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _format_name(text: str) -> str:
    if text not in _FORMATS:
        raise argparse.ArgumentTypeError(
            f"expected one of {', '.join(_FORMATS)}, got {text!r}"
        )
    return text


def _env_default(name: str, parse: Callable[[str], object], fallback: object) -> object:
    """Option default from the environment, checked like the option itself."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return parse(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{name}: {exc}") from None


def _datum(cartan: str) -> RootDatum:
    try:
        return build_root_datum(cartan.strip())
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _int_fields(text: str) -> tuple[int, ...]:
    """The comma-separated integers of text, each read by _int_field, and
    none for a blank text.  Raises ValueError on any field _int_field
    rejects, an empty one included."""
    if not text.strip(" "):
        return ()
    return tuple(_int_field(f) for f in text.split(","))


def _parse_word(text: str, datum: RootDatum) -> tuple[int, ...]:
    try:
        letters = _int_fields(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse word {text!r}: letters must be integers") from exc
    if not letters:
        raise UsageError("word must contain at least one letter")
    bad = [i for i in letters if i not in datum.index_set]
    if bad:
        raise UsageError(
            f"letter {bad[0]} is outside the index set 1..{len(datum.index_set)}"
        )
    return letters


def _parse_reduced_word(text: str, datum: RootDatum) -> tuple[int, ...]:
    letters = _parse_word(text, datum)
    if not is_reduced(datum, letters):
        raise UsageError(f"word {','.join(map(str, letters))} is not reduced")
    return letters


def _parse_lambda(text: str, datum: RootDatum) -> Weight:
    try:
        coords = _int_fields(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse weight {text!r}") from exc
    if len(coords) != len(datum.index_set):
        raise UsageError(
            f"weight needs {len(datum.index_set)} coordinates, got {len(coords)}"
        )
    lam = Weight(coords)
    if not lam.is_dominant():
        raise UsageError("weight must be dominant (all coordinates >= 0)")
    return lam


def _parse_k(text: str, word: tuple[int, ...]) -> list[int]:
    if text == "all":
        return list(range(1, len(word) + 1))
    try:
        k = _int_field(text)
    except ValueError as exc:
        raise UsageError(f"--k must be an integer or 'all', got {text!r}") from exc
    if not 1 <= k <= len(word):
        raise UsageError(f"k={k} is out of range for a word of length {len(word)}")
    return [k]


def _run_instance(
    cartan: str, pres: TorusPresentation, k: int, search_cap: int
) -> tuple[str, dict[str, object]]:
    """Check one instance and return (status, record).  The status is "ok",
    "MISMATCH" (a failed identity, a failed chamber ansatz recovery or
    disagreeing minor routes) or "CAP" (the presentation search was capped),
    and it is decided here, where each outcome is met."""
    rec: dict[str, object] = {"cartan": cartan, "word": list(pres.letters), "k": k}
    try:
        rep = verify_theorem(pres, k, search_cap)
    except PresentationError as exc:
        rec["error"] = str(exc)
        return "CAP", rec
    except MinorRoutesDisagree as exc:
        # the inverse twist could not trust its minor: a failed identity
        rec["equal"] = False
        rec["minor_mismatch"] = f"{torus_str(exc.closed)} vs {torus_str(exc.paired)}"
        return "MISMATCH", rec
    chamber = chamber_ansatz(pres, k)
    rec.update(lhs=torus_str(rep.lhs), rhs=torus_str(rep.rhs), equal=rep.equal)
    rec["presentation"] = {
        "lambda": list(rep.uprime.lam.coords),
        "uprime_coeffs": [scalar_str(c) for c in rep.uprime.coeffs],
    }
    if chamber.exponent_match:
        rec["residual_q_power"] = chamber.residual_q_power
    else:
        # the product of minors that should have been q^r t_k
        rec["chamber_mismatch"] = torus_str(chamber.lhs)
    return ("ok" if rep.equal and chamber.exponent_match else "MISMATCH"), rec


def _shown(status: str, rec: dict[str, object]) -> str:
    """What a selftest line shows of a record: its lhs, or else the error of
    its capped search or its disagreeing minor routes, which is all that its
    text line shows too."""
    if status == "CAP":
        return rec["error"]
    if "minor_mismatch" in rec:
        return f"minor routes disagree: {rec['minor_mismatch']}"
    return rec["lhs"]


def _text_line(status: str, rec: dict[str, object]) -> str:
    head = f"{rec['cartan']} word {','.join(map(str, rec['word']))} k={rec['k']}: {status}"
    if "lhs" not in rec:
        return f"{head}  {_shown(status, rec)}"
    parts = [head, f"lhs = {rec['lhs']}"]
    if not rec["equal"]:
        parts.append(f"rhs = {rec['rhs']}")
    parts.append(f"lam' = {','.join(map(str, rec['presentation']['lambda']))}")
    if "residual_q_power" in rec:
        parts.append(f"t_{rec['k']} residual q^{rec['residual_q_power']}")
    else:
        parts.append(f"t_{rec['k']} not recovered: {rec['chamber_mismatch']}")
    return "  ".join(parts)


def _print(record: object, fmt: str, text: Callable[[], Iterable[str]]) -> None:
    """Print record as one JSON line, or else each line of text(), which is
    called only here, so that a JSON run renders no text.  json is imported
    on the first JSON record, so that a text-format command never loads it."""
    if fmt == "json":
        import json

        print(json.dumps(record, ensure_ascii=False))
    else:
        for line in text():
            print(line)


def _exit_code(tally: Counter[str]) -> int:
    """The exit code of a tally of statuses: 1 if any identity failed, else 3
    if any search was capped, else 0."""
    if tally["MISMATCH"]:
        return EXIT_MISMATCH
    return EXIT_CAP if tally["CAP"] else EXIT_OK


def _emit_records(
    instances: Iterable[tuple[TorusPresentation, int]], cartan: str, search_cap: int, fmt: str
) -> Counter[str]:
    """Run instances in order, printing each one's record before the next
    runs, and return the tally of their statuses."""
    tally: Counter[str] = Counter()
    for pres, k in instances:
        status, rec = _run_instance(cartan, pres, k, search_cap)
        tally[status] += 1
        _print(rec, fmt, lambda: [_text_line(status, rec)])
    return tally


def cmd_verify(args: argparse.Namespace) -> int:
    datum = _datum(args.cartan)
    word = _parse_reduced_word(args.word, datum)
    ks = _parse_k(args.k, word)
    pres = TorusPresentation(datum, word)
    tally = _emit_records([(pres, k) for k in ks], datum.name, args.search_cap, args.format)
    return _exit_code(tally)


def _sweep_instances(
    datum: RootDatum, max_length: int | None
) -> Iterator[tuple[TorusPresentation, int]]:
    """Every (word, k) of a sweep in its order, each word's presentation made
    only when the sweep reaches it."""
    for w in weyl_elements(datum, max_length):
        if not w:
            continue
        for word in reduced_words(datum, w):
            pres = TorusPresentation(datum, word)
            for k in range(1, len(word) + 1):
                yield pres, k


def cmd_sweep(args: argparse.Namespace) -> int:
    datum = _datum(args.cartan)
    tally = _emit_records(
        _sweep_instances(datum, args.max_length), datum.name, args.search_cap, args.format
    )
    total = sum(tally.values())
    summary = {
        "cartan": datum.name,
        "instances": total,
        "equal": tally["ok"],
        "mismatched": tally["MISMATCH"],
        "capped": tally["CAP"],
    }
    _print(
        {"summary": summary},
        args.format,
        lambda: [
            f"{datum.name}: {total} instances, {tally['ok']} equal, "
            f"{tally['MISMATCH']} mismatched, {tally['CAP']} capped"
        ],
    )
    return _exit_code(tally)


def cmd_feigin_minor(args: argparse.Namespace) -> int:
    datum = _datum(args.cartan)
    word = _parse_reduced_word(args.word, datum)
    lam = _parse_lambda(getattr(args, "lambda"), datum)
    pres = TorusPresentation(datum, word)
    # feigin_minor checks its closed form against the module pairing itself
    try:
        closed = pairing = feigin_minor(pres, lam)
        status = "ok"
    except MinorRoutesDisagree as exc:
        closed, pairing, status = exc.closed, exc.paired, "MISMATCH"
    except ModuleTooLarge as exc:
        raise UsageError(str(exc)) from None
    rec = {
        "cartan": datum.name,
        "word": list(word),
        "lambda": list(lam.coords),
        "closed_form": torus_str(closed),
        "pairing": torus_str(pairing),
        "equal": status == "ok",
    }
    _print(
        rec,
        args.format,
        lambda: [
            rec["closed_form"],
            f"pairing route: {rec['pairing']}",
            f"equal: {'yes' if rec['equal'] else 'NO'}",
        ],
    )
    return _exit_code(Counter([status]))


def cmd_reduced_words(args: argparse.Namespace) -> int:
    datum = _datum(args.cartan)
    if args.word is not None:
        word = _parse_word(args.word, datum)
        words = reduced_words(datum, word)
        rec = {
            "cartan": datum.name,
            "word": list(word),
            "reduced_words": [list(w) for w in words],
        }
        _print(rec, args.format, lambda: (",".join(map(str, w)) for w in words))
        return EXIT_OK
    elements = [w for w in weyl_elements(datum, args.max_length) if w]
    counts = [(w, len(reduced_words(datum, w))) for w in elements]
    rec = {
        "cartan": datum.name,
        "elements": [{"word": list(w), "reduced_words": n} for w, n in counts],
    }
    _print(
        rec,
        args.format,
        lambda: (f"{','.join(map(str, w))}  ({n} reduced words)" for w, n in counts),
    )
    return EXIT_OK


_SELFTEST = (
    ("A1", (1,), 1, "q^1 · t1^-1"),
    ("A2", (1, 2, 1), 1, "q^1 · t1^-1"),
    ("A2", (1, 2, 1), 2, "q^2 · t1^-1 t2^-1"),
    ("A2", (1, 2, 1), 3, "q^2 · t2^-1 t3^-1"),
    ("B2", (2, 1, 2, 1), 2, None),
    ("G2", (1, 2), 2, None),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    tally: Counter[str] = Counter()

    def report(name: str, status: str, shown: str) -> None:
        tally[status] += 1
        print(f"{name}: {'ok' if status == 'ok' else 'FAIL'}  {shown}")

    for cartan, word, k, expect in _SELFTEST:
        pres = TorusPresentation(_datum(cartan), word)
        status, rec = _run_instance(cartan, pres, k, _DEFAULT_SEARCH_CAP)
        shown = _shown(status, rec)
        if status == "ok" and expect not in (None, shown):
            status = "MISMATCH"
        report(f"{cartan} word {','.join(map(str, word))} k={k}", status, shown)
    try:
        minor = feigin_minor(TorusPresentation(_datum("A2"), (1, 2, 1)), Weight((1, 0)))
    except MinorRoutesDisagree as exc:
        status, shown = "MISMATCH", str(exc)
    else:
        shown = torus_str(minor)
        status = "ok" if shown == "t2 t3" else "MISMATCH"
    report("A2 word 1,2,1 minor lambda=1,0", status, shown)
    failed = sum(tally.values()) - tally["ok"]
    print(f"selftest: {'all passed' if not failed else f'{failed} failed'}")
    return _exit_code(tally)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcells",
        description="Verify quantum torus images of flag minors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, word_required: bool = True) -> None:
        p.add_argument("--cartan", required=True, help="Cartan type, e.g. A2, B2, G2")
        if word_required:
            p.add_argument("--word", required=True, help="comma-separated letters, 1-based")
        p.add_argument("--format", choices=_FORMATS)

    def searching(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--search-cap",
            type=_nonneg_int,
            help=(
                "largest coordinate sum of the presenting highest weights tried"
                " after varpi_{i_k} and each varpi_{i_k} + varpi_j, which are"
                " always tried"
            ),
        )

    p = sub.add_parser("verify", help="check predicted monomials for one word")
    common(p)
    searching(p)
    p.add_argument("--k", default="all", help="position (1-based) or 'all'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify a whole Weyl group")
    common(p, word_required=False)
    searching(p)
    p.add_argument(
        "--max-length", type=_nonneg_int, default=None, help="bound on Weyl element length"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("feigin-minor", help="print the image of one flag minor")
    common(p)
    p.add_argument(
        "--lambda",
        required=True,
        help="dominant weight, comma-separated coordinates",
    )
    p.set_defaults(func=cmd_feigin_minor)

    p = sub.add_parser("reduced-words", help="list reduced words or elements")
    p.add_argument("--cartan", required=True)
    p.add_argument("--word", default=None, help="element given by any word over the letters")
    p.add_argument("--max-length", type=_nonneg_int, default=None)
    p.add_argument("--format", choices=_FORMATS)
    p.set_defaults(func=cmd_reduced_words)

    p = sub.add_parser("selftest", help="run a fixed battery of known values")
    p.set_defaults(func=cmd_selftest)

    return parser


# (option dest, environment variable, parse, fallback): defaults of options
# that only some subcommands take, read and checked only for those
_ENV_DEFAULTS = (
    ("search_cap", "QCELLS_SEARCH_CAP", _nonneg_int, _DEFAULT_SEARCH_CAP),
    ("format", "QCELLS_FORMAT", _format_name, "text"),
)


# Options whose value may start with "-" and a digit.  argparse reads such a
# value ("--lambda -1,0") as an unknown option, so it is joined to its option
# first ("--lambda=-1,0") and meets the option's own check; no qcells option
# itself starts with "-" and a digit.  argparse also takes an option by a
# prefix that names it alone, so a prefix of exactly one of these options
# ("--lam -1,0") is joined too.
_SIGNED_OPTIONS = ("--word", "--lambda", "--k", "--search-cap", "--max-length")


def _signed_option(arg: str) -> bool:
    return arg.startswith("--") and sum(opt.startswith(arg) for opt in _SIGNED_OPTIONS) == 1


def _join_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and _signed_option(out[-1]) and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(
            _join_signed_values(sys.argv[1:] if argv is None else argv)
        )
        for dest, name, parse, fallback in _ENV_DEFAULTS:
            if hasattr(args, dest):
                default = _env_default(name, parse, fallback)
                if getattr(args, dest) is None:
                    setattr(args, dest, default)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Entry point of ``python -m qcells.cli`` and the ``qcells`` script:
    run main(), flush stdout and stderr, and end the process with
    os._exit(code), skipping interpreter finalization.  The output is
    complete by then, and the package opens no file besides stdout and
    stderr and registers no atexit hook, so finalization would only free
    what the run built.  An exception from main() propagates as usual, and
    if a flush fails, SystemExit(code) hands the exit to the interpreter,
    which retries the flush and reports its failure as it always does."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    run()
