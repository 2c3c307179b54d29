"""The benchmark's workloads: set-up, one operation, and output checks.

sweep    in process: one operation is one pass over the large-input
         subcommands through pointfam.cli.main, stdout captured.
verify   in process: one operation is suites.run_suite("all"), the work of
         `pointfam verify --suite all`.
cli-mix  one fresh `pointfam` process per operation, cycling through all
         ten subcommands with small inputs, plus three inputs that the
         program's input checks let through.

Each workload checks an output fully the first time it sees it and by
digest when the same bytes come back, so repeated operations stay cheap
to check without trusting unchecked bytes. The references (oracles, and
with them mpmath) are imported only when a check is made, so a
fresh-interpreter set-up that only runs an operation holds nothing but
pointfam's memory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# What the `pointfam` console script (pointfam.cli:main) runs.
CLI_ENTRY = "import sys; from pointfam.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120

SCATTER_SAMPLE_ROWS = 64


def source_present() -> bool:
    return (SRC / "pointfam" / "__init__.py").is_file()


def import_pointfam():
    """Import the package from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pointfam
    import pointfam.cli  # noqa: F401  (the CLI pulls in every layer)

    if not Path(pointfam.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pointfam imported from {pointfam.__file__}, not from {SRC}")
    return pointfam


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checked:
    """Runs the full check on each distinct output once; reports each problem once."""

    def __init__(self):
        self._seen: set = set()

    def problems(self, label: str, check, out: str) -> list[str]:
        key = (label, _digest(out))
        if key in self._seen:
            return []
        self._seen.add(key)
        try:
            found = check(out)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:  # valid JSON of the wrong shape
            found = [f"malformed output: {type(exc).__name__}: {exc}"]
        return [f"{label}: {p}" for p in found]


def _checker(label: str, spec: dict, rows_seed: str):
    """The output check for one command, bound to its inputs."""
    import oracles

    if label.startswith("scan-") or label == "diffraction-scan":
        return lambda out: oracles.check_diffraction_scan(spec, out)
    if label.startswith("nbody-eval"):
        return lambda out: oracles.check_nbody_eval(spec, out)
    if label == "scatter":
        count = spec["count"]
        rows = range(count)
        if count > SCATTER_SAMPLE_ROWS:
            rows = [0, count - 1] + random.Random(rows_seed).sample(range(1, count - 1), SCATTER_SAMPLE_ROWS - 2)
        return lambda out: oracles.check_scatter(spec, out, rows)
    check = {
        "params-check": oracles.check_params_echo,
        "bound": oracles.check_bound,
        "phase-diagram": oracles.check_phase_diagram,
        "nbody": oracles.check_nbody,
        "diffraction": oracles.check_diffraction,
        "mcguire": oracles.check_mcguire,
        "verify": oracles.check_verify_cli,
    }[label]
    return lambda out: check(spec, out)


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, workdir: Path):
        import pointfam.cli

        self._cli = pointfam.cli
        self.commands = inputs.sweep_inputs(seed, workdir)
        self._rows_seed = f"sweep-rows:{seed}"
        self._checks = None  # built on the first check
        self._checked = Checked()

    def op(self) -> list[tuple]:
        """One pass: (label, exit code, stdout, stderr) per command."""
        results = []
        for cmd in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = self._cli.main(list(cmd["argv"]))
            results.append((cmd["label"], rc, out.getvalue(), err.getvalue()))
        return results

    def failure(self, result) -> str | None:
        bad = [f"{label} exit {rc}: {err.strip()[-200:]}" for label, rc, _, err in result if rc != 0]
        return "; ".join(bad) or None

    def check(self, result) -> list[str]:
        if self._checks is None:
            self._checks = {c["label"]: _checker(c["label"], c["spec"], self._rows_seed) for c in self.commands}
        problems = []
        for label, rc, out, _ in result:
            if rc == 0:
                problems += self._checked.problems(label, self._checks[label], out)
        return problems

    def digest(self, result) -> str:
        sha = hashlib.sha256()
        for label, rc, out, _ in result:  # one output at a time: no joined copy of the pass
            sha.update(f"{label}\0{rc}\0".encode())
            sha.update(out.encode())
        return sha.hexdigest()

    @staticmethod
    def stdout_bytes(result) -> int:
        return sum(len(out.encode()) for _, _, out, _ in result)


class Verify:
    name = "verify"

    def __init__(self, seed: int, workdir: Path):
        # The suites fix their own draws, so the seed does not enter this workload.
        import pointfam.suites

        self._suites = pointfam.suites
        self._checked = Checked()

    def op(self):
        return self._suites.run_suite("all")

    def failure(self, result) -> str | None:
        return None

    def check(self, result) -> list[str]:
        import oracles

        reports, _ = result
        checks = [dataclasses.asdict(r) for r in reports]
        return self._checked.problems("verify --suite all", lambda _: oracles.check_verify_all(checks), repr(checks))

    def digest(self, result) -> str:
        return _digest(repr(result))


IN_PROCESS = {"sweep": Sweep, "verify": Verify}


def setup(name: str, seed: int, workdir: Path):
    """Import pointfam, make the inputs and run one warm-up operation; returns (workload, result)."""
    import_pointfam()
    workload = IN_PROCESS[name](seed, workdir)
    return workload, workload.op()


class CliMix:
    name = "cli-mix"

    def __init__(self, seed: int, workdir: Path):
        self.ops = inputs.cli_mix_inputs(seed, workdir)
        self._checks = {op["label"]: _checker(op["label"], op["spec"], f"mix-rows:{seed}") for op in self.ops if not op["robust"]}
        self._checked = Checked()
        self._env = child_env()

    def call(self, op: dict, traced: bool = False) -> tuple[float, int, str, str]:
        """Run one pointfam process; returns (wall seconds, exit code, stdout, stderr)."""
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), "traced-cli", *op["argv"]]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *op["argv"]]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self._env, timeout=CLI_TIMEOUT_S)
        return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr

    def judge(self, op: dict, rc: int, out: str, err: str) -> tuple[str | None, list[str]]:
        """(failure reason or None, output problems) for one call."""
        if op["robust"]:
            import oracles

            reason = oracles.robust_outcome(rc, out, err)
            return (f"{op['label']}: {reason}" if reason else None), []
        if rc != 0:
            return f"{op['label']}: exit {rc}: {err.strip()[-200:]}", []
        return None, self._checked.problems(op["label"], self._checks[op["label"]], out)
