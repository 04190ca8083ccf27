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
search cap was exhausted and no identity failed.  In verify, sweep and
selftest a failed identity outranks a capped search.

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
    VerificationReport,
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


def _record(
    cartan: str,
    word: tuple[int, ...],
    k: int,
    rep: VerificationReport,
    chamber: VerificationReport,
) -> dict[str, object]:
    rec: dict[str, object] = {
        "cartan": cartan,
        "word": list(word),
        "k": k,
        "lhs": torus_str(rep.lhs),
        "rhs": torus_str(rep.rhs),
        "equal": rep.equal,
        "presentation": {
            "lambda": list(rep.uprime.lam.coords),
            "uprime_coeffs": [scalar_str(c) for c in rep.uprime.coeffs],
        },
    }
    if chamber.exponent_match:
        rec["residual_q_power"] = chamber.residual_q_power
    else:
        # the product of minors that should have been q^r t_k
        rec["chamber_mismatch"] = torus_str(chamber.lhs)
    return rec


def _passed(rec: dict[str, object]) -> bool:
    return rec["equal"] and "chamber_mismatch" not in rec


def _text_line(rec: dict[str, object]) -> str:
    word = ",".join(map(str, rec["word"]))
    if "error" in rec:
        return f"{rec['cartan']} word {word} k={rec['k']}: CAP  {rec['error']}"
    if "minor_mismatch" in rec:
        return (
            f"{rec['cartan']} word {word} k={rec['k']}: MISMATCH  "
            f"minor routes disagree: {rec['minor_mismatch']}"
        )
    status = "ok" if _passed(rec) else "MISMATCH"
    lamp = ",".join(map(str, rec["presentation"]["lambda"]))
    parts = [
        f"{rec['cartan']} word {word} k={rec['k']}: {status}",
        f"lhs = {rec['lhs']}",
        f"lam' = {lamp}",
    ]
    if not rec["equal"]:
        parts.insert(2, f"rhs = {rec['rhs']}")
    if "residual_q_power" in rec:
        parts.append(f"t_{rec['k']} residual q^{rec['residual_q_power']}")
    if "chamber_mismatch" in rec:
        parts.append(f"t_{rec['k']} not recovered: {rec['chamber_mismatch']}")
    return "  ".join(parts)


def _run_instance(
    cartan: str, pres: TorusPresentation, k: int, search_cap: int
) -> dict[str, object]:
    try:
        rep = verify_theorem(pres, k, search_cap)
    except PresentationError as exc:
        return {"cartan": cartan, "word": list(pres.letters), "k": k, "error": str(exc)}
    except MinorRoutesDisagree as exc:
        # the inverse twist could not trust its minor: a failed identity
        return {
            "cartan": cartan,
            "word": list(pres.letters),
            "k": k,
            "equal": False,
            "minor_mismatch": f"{torus_str(exc.closed)} vs {torus_str(exc.paired)}",
        }
    chamber = chamber_ansatz(pres, k)
    return _record(cartan, pres.letters, k, rep, chamber)


def _emit_records(
    instances: Iterable[tuple[TorusPresentation, int]],
    cartan: str,
    search_cap: int,
    fmt: str,
) -> tuple[int, int, int]:
    """Run instances in order, printing one record each.

    Returns (total, passed, capped).
    """
    total = passed = capped = 0
    for pres, k in instances:
        rec = _run_instance(cartan, pres, k, search_cap)
        total += 1
        if "error" in rec:
            capped += 1
        elif _passed(rec):
            passed += 1
        if fmt == "json":
            _print_json(rec)
        else:
            print(_text_line(rec))
    return total, passed, capped


def _print_json(obj: object) -> None:
    """Print one JSON record on a line of its own.  json is imported here, on
    the first record, so that a text-format command never loads it."""
    import json

    print(json.dumps(obj, ensure_ascii=False))


def _exit_code(mismatched: int, capped: int) -> int:
    """1 if any identity failed, else 3 if any search was capped, else 0."""
    if mismatched:
        return EXIT_MISMATCH
    return EXIT_CAP if capped else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    datum = _datum(args.cartan)
    word = _parse_reduced_word(args.word, datum)
    ks = _parse_k(args.k, word)
    pres = TorusPresentation(datum, word)
    instances = [(pres, k) for k in ks]
    total, passed, capped = _emit_records(
        instances, datum.name, args.search_cap, args.format
    )
    return _exit_code(total - passed - capped, capped)


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
    total, passed, capped = _emit_records(
        _sweep_instances(datum, args.max_length), datum.name, args.search_cap, args.format
    )
    mismatched = total - passed - capped
    if args.format == "json":
        summary = {
            "summary": {
                "cartan": datum.name,
                "instances": total,
                "equal": passed,
                "mismatched": mismatched,
                "capped": capped,
            }
        }
        _print_json(summary)
    else:
        print(
            f"{datum.name}: {total} instances, {passed} equal, "
            f"{mismatched} mismatched, {capped} capped"
        )
    return _exit_code(mismatched, capped)


def cmd_feigin_minor(args: argparse.Namespace) -> int:
    datum = _datum(args.cartan)
    word = _parse_reduced_word(args.word, datum)
    lam = _parse_lambda(getattr(args, "lambda"), datum)
    pres = TorusPresentation(datum, word)
    # feigin_minor checks its closed form against the module pairing itself
    try:
        closed = pairing = feigin_minor(pres, lam)
        equal = True
    except MinorRoutesDisagree as exc:
        closed, pairing, equal = exc.closed, exc.paired, False
    except ModuleTooLarge as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        rec = {
            "cartan": datum.name,
            "word": list(word),
            "lambda": list(lam.coords),
            "closed_form": torus_str(closed),
            "pairing": torus_str(pairing),
            "equal": equal,
        }
        _print_json(rec)
    else:
        print(torus_str(closed))
        print(f"pairing route: {torus_str(pairing)}")
        print(f"equal: {'yes' if equal else 'NO'}")
    return EXIT_OK if equal else EXIT_MISMATCH


def cmd_reduced_words(args: argparse.Namespace) -> int:
    datum = _datum(args.cartan)
    if args.word is not None:
        word = _parse_word(args.word, datum)
        words = reduced_words(datum, word)
        if args.format == "json":
            rec = {
                "cartan": datum.name,
                "word": list(word),
                "reduced_words": [list(w) for w in words],
            }
            _print_json(rec)
        else:
            for w in words:
                print(",".join(map(str, w)))
        return EXIT_OK
    elements = [w for w in weyl_elements(datum, args.max_length) if w]
    if args.format == "json":
        rec = {
            "cartan": datum.name,
            "elements": [
                {"word": list(w), "reduced_words": len(reduced_words(datum, w))}
                for w in elements
            ],
        }
        _print_json(rec)
    else:
        for w in elements:
            n = len(reduced_words(datum, w))
            print(f"{','.join(map(str, w))}  ({n} reduced words)")
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
    failures = capped = 0
    for cartan, word, k, expect in _SELFTEST:
        pres = TorusPresentation(_datum(cartan), word)
        rec = _run_instance(cartan, pres, k, _DEFAULT_SEARCH_CAP)
        if "error" in rec:
            capped += 1
            ok, shown = False, rec["error"]
        elif "minor_mismatch" in rec:
            ok, shown = False, f"minor routes disagree: {rec['minor_mismatch']}"
        else:
            shown = rec["lhs"]
            ok = _passed(rec) and (expect is None or shown == expect)
        status = "ok" if ok else "FAIL"
        print(f"{cartan} word {','.join(map(str, word))} k={k}: {status}  {shown}")
        if not ok:
            failures += 1
    try:
        minor = feigin_minor(TorusPresentation(_datum("A2"), (1, 2, 1)), Weight((1, 0)))
    except MinorRoutesDisagree as exc:
        ok, shown = False, str(exc)
    else:
        shown = torus_str(minor)
        ok = shown == "t2 t3"
    print(f"A2 word 1,2,1 minor lambda=1,0: {'ok' if ok else 'FAIL'}  {shown}")
    if not ok:
        failures += 1
    print(f"selftest: {'all passed' if failures == 0 else f'{failures} failed'}")
    return _exit_code(failures - capped, capped)


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
