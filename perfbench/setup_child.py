"""What the qcells CLI pays before its first verification, as its own process.

Usage: python3 perfbench/setup_child.py <qcells arguments...>

Starts the interpreter, imports the CLI module (and with it every layer),
builds the root datum, and enumerates the instances the command would run:
Weyl elements, their reduced words and one torus presentation per word for
``sweep``; the parsed word, its presentation and the weight otherwise.  It
uses only the public names of the package.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("command")
    parser.add_argument("--cartan", required=True)
    parser.add_argument("--max-length", type=int, default=None)
    parser.add_argument("--word", default=None)
    parser.add_argument("--lambda", dest="lam", default=None)
    args, _ = parser.parse_known_args(argv)

    import qcells.cli  # noqa: F401  (the import the CLI entry point pays)
    from qcells import TorusPresentation, Weight, build_root_datum
    from qcells.cartan import is_reduced, reduced_words, weyl_elements

    datum = build_root_datum(args.cartan)
    instances = []
    if args.command == "sweep":
        for w in weyl_elements(datum, args.max_length):
            if w:
                for word in reduced_words(datum, w):
                    pres = TorusPresentation(datum, word)
                    instances.extend((pres, k) for k in range(1, len(word) + 1))
    else:
        word = tuple(int(x) for x in args.word.split(","))
        if not is_reduced(datum, word):
            print(f"word {args.word} is not reduced", file=sys.stderr)
            return 1
        pres = TorusPresentation(datum, word)
        instances.extend((pres, k) for k in range(1, len(word) + 1))
        if args.lam is not None:
            Weight(tuple(int(x) for x in args.lam.split(",")))
    return 0 if instances else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
