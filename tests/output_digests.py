"""Digests of the CLI's output on every benchmark command, and of the verify suites.

Each entry is the SHA-256 of one (argv, exit code, stdout, stderr) of a
perfbench/inputs.py sweep or cli-mix command, seeds 1-3, run in process
through cli.main with no --output and, where the subcommand takes one, with
--output csv and with --output json; one more entry digests
repr(run_suite("all")). The temporary directory that holds the input files
reads as {tmp} in argv and stderr, and warnings are written to stderr every
time they are raised. test_output_digests.py recomputes every entry and
names each one that differs from output_digests.txt. A change meant to alter output rewrites the file with

    PYTHONPATH=src python tests/output_digests.py

which prints the names of the changed entries to stdout, one a line, for
the change's record. The digests pin numpy and the C library as well as
pointfam, so the file's header names the Python and numpy versions.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import platform
import sys
import tempfile
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from pointfam import cli
from pointfam.suites import run_suite

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "output_digests.txt"
SEEDS = (1, 2, 3)
OUTPUTS = ((), ("--output", "csv"), ("--output", "json"))


def _inputs_module() -> types.ModuleType:
    """perfbench/inputs.py (stdlib only), executed from its source so that nothing is written there."""
    path = HERE.parent / "perfbench" / "inputs.py"
    module = types.ModuleType("perfbench_inputs")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _digest(*parts: str) -> str:
    """SHA-256 of the parts, each prefixed by its length so that no two part lists hash alike."""
    sha = hashlib.sha256()
    for part in parts:
        data = part.encode()
        sha.update(b"%d:%b" % (len(data), data))
    return sha.hexdigest()


def versions() -> str:
    return f"python {platform.python_version()}, numpy {np.__version__}"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def compute(tmp: Path) -> dict[str, str]:
    """{entry name: SHA-256} for every command and the suites, with input files under tmp."""
    inputs = _inputs_module()
    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        for workload, make in (("sweep", inputs.sweep_inputs), ("cli-mix", inputs.cli_mix_inputs)):
            for seed in SEEDS:
                for cmd, extra in itertools.product(make(seed, tmp / f"{workload}-{seed}"), OUTPUTS):
                    if extra and "output" not in cli._build_parser().parse_args(cmd["argv"]):
                        continue  # verify always writes JSON and takes no --output
                    argv = [*cmd["argv"], *extra]
                    code, out, err = _run(argv)
                    name = " ".join((workload, str(seed), cmd["label"], *extra))
                    argv_text, err = (text.replace(str(tmp), "{tmp}") for text in (json.dumps(argv), err))
                    digests[name] = _digest(argv_text, str(code), out, err)
        digests['run_suite("all")'] = _digest(repr(run_suite("all")))
    return digests


def read() -> tuple[str, dict[str, str]]:
    """The versions line and the {entry name: SHA-256} table of DIGEST_FILE."""
    lines = DIGEST_FILE.read_text(encoding="utf-8").splitlines()
    recorded = {name: digest for digest, name in (line.split("  ", 1) for line in lines[2:])}
    return lines[1].removeprefix("# "), recorded


def changed(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """Names of the entries that differ between two tables, or are in only one of them."""
    return [name for name in {**recorded, **current} if recorded.get(name) != current.get(name)]


def write(digests: dict[str, str]) -> None:
    header = [
        "# SHA-256 of (argv, exit code, stdout, stderr) per entry, written by tests/output_digests.py",
        f"# {versions()}",
    ]
    body = [f"{digest}  {name}" for name, digest in digests.items()]
    DIGEST_FILE.write_text("\n".join(header + body) + "\n", encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute(Path(tmp))
    names = changed(read()[1] if DIGEST_FILE.exists() else {}, digests)
    write(digests)
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}; {len(names)} entries changed:", file=sys.stderr)
    for name in names:
        print(name)
