"""The one command-line runner behind every ``python -m repro.<package>``.

A front end is a table of :class:`Verb` rows, and its ``main(argv)`` is
``run(prog, VERBS, argv)``.  The runner does, once for all six front
ends (``experiments``, ``campaigns``, ``serve``, ``verify``, the
``store`` verbs and ``obs``):

* lists the table when called bare or with ``-h``;
* builds only the chosen verb's parser, so a verb imports nothing
  another verb needs;
* prints a :class:`Refused` — and an argument the parser rejects — as
  one line, ``error: <reason>``, and exits 2;
* exits 0 quietly when stdout is closed under it (``... | head -1``);
* lets every other exception propagate with its traceback: an error out
  of a running simulation is a bug, not a refusal.

Exit codes, the same for every front end: 0 done; 1 a check or gate
found a failure; 2 the input was refused; 3 the question has no answer
(``serve query`` unresolved, ``obs history --gate`` without a baseline,
``verify check`` on a case whose exploration overflowed).

Standard library only: importing the runner loads nothing a verb has not
asked for.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from typing import Any, NoReturn


class Refused(ValueError):
    """A command line asks for what cannot be done; the runner prints the
    reason as ``error: <reason>`` and exits 2.  A :class:`ValueError`,
    so library callers that catch that keep working."""


@dataclass(frozen=True)
class Verb:
    name: str
    help: str
    #: Declares the verb's flags on its own parser; ``None`` for a row
    #: that hands its argv, unparsed, to another front end.
    add_arguments: Callable[[argparse.ArgumentParser], None] | None
    #: ``run(args) -> exit code`` (the argv list for a handing-on row).
    run: Callable[[Any], int]


def delegate(name: str, help: str, module: str) -> Verb:
    """A row that runs *module*'s ``main`` over the rest of the argv."""
    return Verb(name, help, None,
                lambda argv: import_module(module).main(argv))


@contextmanager
def refusing(prefix: str = "") -> Iterator[None]:
    """Refuse what the block raises while reading input: an
    :class:`OSError` (a path that cannot be opened) or a
    :class:`ValueError` (a value that does not parse or validate)
    becomes :class:`Refused` reading ``<prefix><reason>``."""
    try:
        yield
    except Refused:
        raise
    except (OSError, ValueError) as exc:
        raise Refused(f"{prefix}{exc}") from exc


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask where the
    OS keeps one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks (macOS, Windows)
        return os.cpu_count() or 1


def positive_count(text: str) -> int:
    """An argparse ``type``: a worker or repeat count, at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"need at least 1, not {count}")
    return count


class _Parser(argparse.ArgumentParser):
    """A verb's parser: what it rejects is a refusal like any other."""

    def error(self, message: str) -> NoReturn:
        raise Refused(message)


def run(prog: str, verbs: Sequence[Verb], argv: list[str] | None = None) -> int:
    """Run the verb ``argv[0]`` names (``sys.argv[1:]`` by default)."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        if not argv or argv[0] in ("-h", "--help"):
            print(f"usage: {prog} <verb> [options]   "
                  "(<verb> --help lists a verb's options)\n")
            width = max(len(verb.name) for verb in verbs)
            for verb in verbs:
                print(f"  {verb.name:<{width}}  {verb.help}")
            code = 0
        else:
            verb = next((v for v in verbs if v.name == argv[0]), None)
            if verb is None:
                names = ", ".join(sorted(v.name for v in verbs))
                print(f"unknown verb {argv[0]!r}; expected one of {names}",
                      file=sys.stderr)
                return 2
            if verb.add_arguments is None:
                code = verb.run(argv[1:])
            else:
                parser = _Parser(
                    prog=f"{prog} {verb.name}", description=verb.help
                )
                verb.add_arguments(parser)
                code = verb.run(parser.parse_args(argv[1:]))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader (`... | head`) closed stdout: point it at devnull so
        # the interpreter's exit flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
