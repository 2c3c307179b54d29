"""Self-test of the benchmark: its checks catch corrupted outputs, and every workload runs.

    python3 perfbench/selftest.py          # about two minutes on a 2-vCPU host
    python3 perfbench/selftest.py -k Checks  # the output checks only, a few seconds

Real outputs come from the checkout's pointfam, run in process on the
cli-mix inputs of one seed; each check must accept the real output and
reject it after one value is corrupted.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
import inputs
import oracles
import run
import workloads

HERE = Path(__file__).resolve().parent
SEED = 7


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = workloads.import_pointfam().cli.main(argv)
    if rc != 0:
        raise AssertionError(f"pointfam {' '.join(argv)} exited {rc}")
    return out.getvalue()


def edit_json(out: str, edit) -> str:
    data = json.loads(out)
    edit(data)
    return json.dumps(data, indent=2)


def edit_csv(out: str, row: int, column: int, edit) -> str:
    lines = out.splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = repr(edit(float(cells[column])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def last_digits(x: float) -> float:
    """x with its 14th significant digit changed."""
    return x * (1 + 1e-13)


def edit_verify_json(out: str, edit) -> str:
    lines = out.splitlines()
    start = lines.index("{")
    return "\n".join(lines[:start]) + "\n" + edit_json("\n".join(lines[start:]), edit) + "\n"


def first_state(key, change):
    return lambda d: d["states"][0].__setitem__(key, change(d["states"][0][key]))


# label -> {what the corruption is: corrupt(output) -> output}
CORRUPTIONS = {
    "params-check": {
        "mass off in its last digit": lambda out: edit_json(out, lambda d: d.__setitem__("mass", math.nextafter(d["mass"], 0.0))),
    },
    "bound": {
        "kappa off in its last digits": lambda out: edit_json(out, first_state("kappa", last_digits)),
        "energy off in its last digits": lambda out: edit_json(out, first_state("energy", last_digits)),
        "eta conjugated": lambda out: edit_json(out, first_state("eta_im", lambda v: -v)),
    },
    "scatter": {
        "unitarity-violating row": lambda out: edit_csv(out, 5, 2, lambda v: v + 1e-9),
        "T+ conjugated in a checked row (still unitary)": lambda out: edit_csv(out, 0, 4, lambda v: -v),
        "k off the requested grid": lambda out: edit_csv(out, 3, 0, lambda v: v * (1 + 1e-9)),
        "row missing": lambda out: "\n".join(out.splitlines()[:-1]) + "\n",
    },
    "phase-diagram": {
        "one count wrong": lambda out: edit_csv(out, 7, 2, lambda v: float((int(v) + 1) % 3)),
    },
    "nbody": {
        "energy off in its last digits": lambda out: edit_json(out, first_state("energy", last_digits)),
        "odd coefficient flipped": lambda out: edit_json(out, first_state("c_odd_re", lambda v: -v)),
        "symmetry label wrong": lambda out: edit_json(out, first_state("symmetry", lambda v: "symmetric")),
    },
    "nbody-eval": {
        "parity sign flipped": lambda out: edit_csv(out, 2, 3, lambda v: -v),
        "psi off by 1e-10": lambda out: edit_csv(out, 4, 3, lambda v: v * (1 + 1e-10)),
    },
    "diffraction": {
        "two-path amplitude off": lambda out: edit_json(out, lambda d: d.__setitem__("amp_two_path_re", d["amp_two_path_re"] + 1e-10)),
        "k2 breaks k1 + k3 = k2": lambda out: edit_json(out, lambda d: d.__setitem__("k2", d["k2"] * (1 + 1e-11))),
    },
    "diffraction-scan": {
        "verdict flipped": lambda out: edit_json(out, lambda d: d.__setitem__("verdict", not d["verdict"])),
        "residual above tolerance": lambda out: edit_json(out, lambda d: d.__setitem__("max_residual", 1e-9)),
    },
    "mcguire": {
        "energy off in its last digits": lambda out: edit_json(out, lambda d: d.__setitem__("energy", last_digits(d["energy"]))),
    },
    "verify": {
        "a failed check": lambda out: edit_verify_json(out, lambda d: d["checks"][0].__setitem__("passed", False)),
        "negative control reads 1": lambda out: edit_verify_json(
            out, lambda d: d["checks"][-1].__setitem__("max_residual", 1.0)),
    },
}


class Checks(unittest.TestCase):
    """Every output check accepts the real output and rejects each corruption of it."""

    @classmethod
    def setUpClass(cls):
        cls.workdir = workloads.ROOT / ".perfbench" / "selftest-checks"
        cls.mix = workloads.CliMix(SEED, cls.workdir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_every_check_has_corruptions(self):
        labels = {op["label"] for op in self.mix.ops if not op["robust"]}
        self.assertEqual(labels, set(CORRUPTIONS))

    def test_corruptions_are_caught(self):
        for op in self.mix.ops:
            if op["robust"]:
                continue
            check = self.mix._checks[op["label"]]
            out = cli_output(op["argv"])
            with self.subTest(op["label"], output="real"):
                self.assertEqual(check(out), [])
            for what, corrupt in CORRUPTIONS[op["label"]].items():
                with self.subTest(op["label"], corruption=what):
                    bad = corrupt(out)
                    self.assertNotEqual(bad, out)
                    self.assertNotEqual(check(bad), [], what)

    def test_wrongly_shaped_output_is_a_problem(self):
        for op in self.mix.ops:
            if not op["robust"]:
                with self.subTest(op["label"]):
                    found = workloads.Checked().problems(op["label"], self.mix._checks[op["label"]], "[1, 2]\n")
                    self.assertNotEqual(found, [])

    def test_generic_scan_must_show_diffraction(self):
        p = inputs.generic_params(inputs.rng_for("selftest", SEED))
        path = inputs.write_params(self.workdir / "generic-scan.json", p)
        spec = dict(params=p, samples=300, free=False)
        out = cli_output(["diffraction-scan", "--params", path, "--samples", "300"])
        self.assertEqual(oracles.check_diffraction_scan(spec, out), [])
        flipped = edit_json(out, lambda d: d.__setitem__("verdict", True))
        self.assertNotEqual(oracles.check_diffraction_scan(spec, flipped), [])

    def test_verify_suite_reports(self):
        checks = [
            dict(check_name="bound-spectrum vs bracketing oracle", max_residual=1e-15, samples=10, passed=True, tolerance=1e-10),
            dict(check_name="negative control: constraint break detected", max_residual=0.0, samples=1, passed=True, tolerance=0.5),
        ]
        self.assertIn("no check named like 'flux conservation'", oracles.check_verify_all(checks))
        self.assertEqual(oracles.check_verify_checks(checks), [])
        checks[1]["max_residual"] = 0.4  # within tolerance, but a control must read 0
        self.assertNotEqual(oracles.check_verify_checks(checks), [])

    def test_phase_count_matches_exact_roots(self):
        # alpha*gamma = 1 puts one root at 0, which is not positive.
        self.assertEqual(oracles.positive_root_count(-1.0, -1.0, 1.0), 1)
        self.assertEqual(oracles.positive_root_count(-1.0, -1.0, -1.0), 0)
        self.assertEqual(oracles.positive_root_count(-2.0, -2.0, 1.0), 2)
        self.assertEqual(oracles.positive_root_count(0.5, -0.5, 1.0), 1)

    def test_robust_outcomes(self):
        self.assertIsNone(oracles.robust_outcome(1, "", "bound: kappa overflows\n"))
        self.assertIsNone(oracles.robust_outcome(0, '{"kappa": 1.5}', ""))
        self.assertIsNotNone(oracles.robust_outcome(0, '{"theta": nan}', ""))
        self.assertIsNotNone(oracles.robust_outcome(0, '{"energy": -Infinity}', ""))
        self.assertIsNotNone(oracles.robust_outcome(0, '{"energy": -1e999}', ""))
        self.assertIsNotNone(oracles.robust_outcome(1, "", "Traceback (most recent call last):\n  ...\n"))
        self.assertIsNotNone(oracles.robust_outcome(2, "", "x\n"))


def bench(*args: str, cwd: Path = workloads.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE.relative_to(workloads.ROOT) / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


class Runs(unittest.TestCase):
    """Each workload runs briefly end to end; the traced mode reports every per-layer metric."""

    manifest = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

    def result(self, *args: str) -> dict:
        proc = bench(*args)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def assert_metrics(self, res: dict, kind: str) -> None:
        units = {m["name"]: m["unit"] for m in self.manifest[kind]}
        self.assertEqual({name: m["unit"] for name, m in res["metrics"].items()}, units)

    def test_workloads_run(self):
        self.assertEqual([w["name"] for w in self.manifest["workloads"]], list(run.WORKLOADS[:2]))
        for workload in run.WORKLOADS:
            with self.subTest(workload):
                res = self.result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
                self.assertTrue(res["correct"])
                self.assert_metrics(res, "end_to_end")
                self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))
                robust = len(inputs.ROBUSTNESS_INPUTS)
                rounds = res["attempted"] // 13 if workload == "cli-mix" else 0
                self.assertEqual(res["failed"], robust * rounds)

    def test_traced_run(self):
        res = self.result("--workload", "sweep", "--seed", "3", "--seconds", "1", "--trace", "1")
        self.assertTrue(res["correct"])
        self.assert_metrics(res, "per_layer")
        timed = [name for name, m in res["metrics"].items() if not name.startswith("trace.")]
        self.assertTrue(all(res["metrics"][name]["value"] > 0 for name in timed))

    def test_times_are_scaled_by_the_host_probe(self):
        slow = [2 * hostspeed.REFERENCE_MS / 1e3] * 3  # the host ran at half the reference speed
        scaled = run._timings([4.0, 5.0, 6.0], [1.0, 3.0, 2.0], slow)
        self.assertAlmostEqual(scaled["setup_s"]["value"], 2.5)
        self.assertAlmostEqual(scaled["op_ms"]["value"], 1000.0)
        self.assertAlmostEqual(run._timings([5.0], [2.0], None)["op_ms"]["value"], 2000.0)
        self.assertGreater(hostspeed.probe(), 0.0)

    def test_setup_probe_runs_no_check(self):
        """A fresh-interpreter set-up loads no reference, so its memory peak is the program's."""
        code = ("import sys, workloads; from pathlib import Path; "
                "workloads.setup('sweep', 3, Path(sys.argv[1])); "
                "print(sorted({'oracles', 'mpmath'} & set(sys.modules)))")
        workdir = workloads.ROOT / ".perfbench" / "selftest-probe"
        try:
            proc = subprocess.run([sys.executable, "-c", code, str(workdir)], capture_output=True,
                                  text=True, cwd=HERE, timeout=300)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout.strip(), "[]")

    def test_refuses_without_sources(self):
        bare = workloads.ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
