"""Benchmark for pointfam: end-to-end metrics per workload, or per-layer metrics when traced.

    python3 perfbench/run.py --workload {sweep,verify,cli-mix} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; problems and failures go to
stderr. See README.md in this directory for the workloads, the metrics and
how they relate.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from workloads import HERE, ROOT

# The benchmark's workloads (BENCHMARK.json), then cli-mix, which is kept for
# runs by hand and the traced mode: its runs did not repeat within the bound.
WORKLOADS = ("sweep", "verify", "cli-mix")
# An untraced run sets up once, then SETUPS_BEFORE more times before the
# timed loop and SETUPS_AFTER more times after it; setup_s is the median.
SETUPS_BEFORE = 1
SETUPS_AFTER = 1
IMPORT_PROBES = 3  # fresh-interpreter imports per traced run
LAYER_PASSES = 2  # traced sweep + verify passes per traced run
CHILD_TIMEOUT_S = 150
MAX_REPORTED = 20

# Per-layer metrics read from the tracer: (metric, function, statistic, scale, unit).
# per_call: total time / calls; self_per_call: self time / calls;
# per_item: total time / items handled; per_pass: calls per layer pass.
LAYER_METRICS = (
    ("cli.main_ms", "cli.main", "per_call", 1e3, "ms"),
    ("cli.self_ms", "cli.main", "self_per_call", 1e3, "ms"),
    ("core.params_from_dict_us", "core.params_from_dict", "per_call", 1e6, "us"),
    ("one_body.bound_spectrum_us", "one_body.bound_spectrum", "per_call", 1e6, "us"),
    ("one_body.phase_diagram_count_us", "one_body.phase_diagram_count", "per_call", 1e6, "us"),
    ("scattering.amplitudes_us", "scattering.amplitudes", "per_call", 1e6, "us"),
    ("scattering.amplitudes_calls", "scattering.amplitudes", "per_pass", 1, "count"),
    ("many_body.nbody_bound_states_us", "many_body.nbody_bound_states", "per_call", 1e6, "us"),
    ("many_body.eval_nbody_wavefunction_us", "many_body.eval_nbody_wavefunction", "per_call", 1e6, "us"),
    ("many_body.configuration_of_us", "many_body.configuration_of", "per_call", 1e6, "us"),
    ("diffraction.scan_points_us", "diffraction.scan_points", "per_item", 1e6, "us"),
    ("diffraction.ray_kinematics_us", "diffraction.ray_kinematics", "per_call", 1e6, "us"),
    ("diffraction.outgoing_amplitudes_us", "diffraction.outgoing_amplitudes", "per_call", 1e6, "us"),
    ("diffraction.no_diffraction_scan_us", "diffraction.no_diffraction_scan", "per_item", 1e6, "us"),
    ("verify.oracle_bound_kappas_ms", "verify.oracle_bound_kappas", "per_call", 1e3, "ms"),
    ("verify.oracle_bound_kappas_calls", "verify.oracle_bound_kappas", "per_pass", 1, "count"),
    ("verify.scattering_matching_oracle_us", "verify.scattering_matching_oracle", "per_call", 1e6, "us"),
    ("verify.boundary_residual_3body_ms", "verify.boundary_residual_3body", "per_call", 1e3, "ms"),
    ("verify.interior_residual_ms", "verify.interior_residual", "per_call", 1e3, "ms"),
    ("verify.random_params_us", "verify.random_params", "per_call", 1e6, "us"),
    ("suites.bound_ms", "suites.run_bound_suite", "per_call", 1e3, "ms"),
    ("suites.scatter_ms", "suites.run_scatter_suite", "per_call", 1e3, "ms"),
    ("suites.nbody-boundary_ms", "suites.run_nbody_boundary_suite", "per_call", 1e3, "ms"),
    ("suites.nbody-interior_ms", "suites.run_nbody_interior_suite", "per_call", 1e3, "ms"),
    ("suites.diffraction_ms", "suites.run_diffraction_suite", "per_call", 1e3, "ms"),
)


class Tally:
    """Operations attempted and failed, and problems found in the outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def op(self, failure: str | None, problems: list[str]) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(failure)
        self.problems += problems

    def result(self, metrics: dict) -> dict:
        for label, items in (("failed", self.failures), ("problem", self.problems)):
            for item in items[:MAX_REPORTED]:
                print(f"{label}: {item}", file=sys.stderr)
            if len(items) > MAX_REPORTED:
                print(f"... and {len(items) - MAX_REPORTED} more", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _child(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout.strip().splitlines()[-1]


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def _timed_loop(seconds: float, step) -> None:
    """Call step() until `seconds` have passed; always at least once."""
    start = time.perf_counter()
    while True:
        step()
        if time.perf_counter() - start >= seconds:
            return


def _timings(setups: list[float], times: list[float], probes: list[float] | None) -> dict:
    """setup_s and op_ms; scaled to the reference host speed when the host was probed (hostspeed.py)."""
    scale = 1.0
    print(f"set-ups (s): {setups}", file=sys.stderr)
    if probes:
        scale = hostspeed.REFERENCE_MS / (statistics.median(probes) * 1e3)
        print(f"unscaled: setup_s {statistics.median(setups)!r}, op_ms {statistics.median(times) * 1e3!r}, "
              f"host probe {statistics.median(probes) * 1e3!r} ms over {len(probes)} probes, "
              f"{len(times)} operations", file=sys.stderr)
    return {
        "setup_s": _metric(statistics.median(setups) * scale, "s"),
        "op_ms": _metric(statistics.median(times) * 1e3 * scale, "ms"),
    }


def _run_op(workload, tally: Tally, tracer=None) -> tuple[float, object]:
    """Run and check one operation; returns (wall seconds, result or None if it raised)."""
    result, failure = None, None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = workload.op()
    except Exception as exc:  # an operation that raises is a failed operation
        failure = f"{workload.name}: {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if result is not None:
        failure = workload.failure(result)
    tally.op(failure, [] if failure else workload.check(result))
    return elapsed, result


def run_in_process(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    tally = Tally()
    start = time.perf_counter()
    workload, first = workloads.setup(name, seed, workdir / "main")
    setups = [time.perf_counter() - start]
    tally.problems += workload.check(first)
    if trace:
        from tracer import Tracer

        tracer = Tracer(workloads.import_pointfam())
        return traced(tally, seed, seconds, workdir, workload, [None],
                      lambda _, traced_op: _run_op(workload, tally, tracer if traced_op else None)[0])

    # The other set-ups run in fresh interpreters and check nothing, so their
    # memory peak is the program's alone; they must give the bytes checked here.
    reference = workload.digest(first)
    peaks: list[float] = []

    def set_up_again():
        i = len(setups)
        result = json.loads(_child(["setup", name, str(seed), str(workdir / f"setup{i}")]))
        setups.append(result["setup_s"])
        peaks.append(result["peak_rss_mb"])
        if result["digest"] != reference:
            tally.problems.append(f"set-up {i}: warm-up output differs from the checked one")

    for _ in range(SETUPS_BEFORE):
        set_up_again()
    times: list[float] = []
    host: list[float] = []  # host probe times, one or more after each operation

    def step():
        times.append(_run_op(workload, tally)[0])
        hostspeed.probe_after(times[-1], host)

    _timed_loop(seconds, step)
    for _ in range(SETUPS_AFTER):
        set_up_again()
    return tally.result({**_timings(setups, times, host), "peak_rss_mb": _metric(max(peaks), "MB")})


def run_cli_mix(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    tally = Tally()
    setups: list[float] = []

    def set_up() -> workloads.CliMix:
        start = time.perf_counter()
        mix = workloads.CliMix(seed, workdir / f"setup{len(setups)}")
        _, rc, out, err = mix.call(mix.ops[0])
        setups.append(time.perf_counter() - start)
        failure, problems = mix.judge(mix.ops[0], rc, out, err)
        tally.problems += problems + ([f"warm-up call failed: {failure}"] if failure else [])
        return mix

    mix = set_up()

    def call(op, traced_op=False) -> float:
        elapsed, rc, out, err = mix.call(op, traced_op)
        tally.op(*mix.judge(op, rc, out, err))
        return elapsed

    if trace:
        return traced(tally, seed, seconds, workdir, mix, mix.ops, call)

    for _ in range(SETUPS_BEFORE):
        set_up()
    times: list[float] = []

    def one_round():  # whole rounds only, so failed / attempted is the same in every run
        times.extend(call(op) for op in mix.ops)

    _timed_loop(seconds, one_round)
    for _ in range(SETUPS_AFTER):
        set_up()
    return tally.result({**_timings(setups, times, None),
                         "peak_rss_mb": _metric(_peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")})


def traced(tally: Tally, seed: int, seconds: float, workdir: Path, workload, ops: list, timed_op) -> dict:
    """Overhead of tracing on this workload, then the per-layer metrics.

    timed_op(op, traced) runs one operation, traced or not, and returns its
    wall time. Each op of a round runs once untraced and once traced, the
    pair in the other order from the previous one, and only whole rounds run.
    """
    times: dict[bool, list[float]] = {False: [], True: []}
    pairs = 0

    def one_round():
        nonlocal pairs
        for op in ops:
            for traced_op in ((False, True) if pairs % 2 == 0 else (True, False)):
                times[traced_op].append(timed_op(op, traced_op))
            pairs += 1

    _timed_loop(seconds, one_round)
    metrics = layer_metrics(tally, seed, workdir, workload)
    untraced_ms = statistics.median(times[False]) * 1e3
    traced_ms = statistics.median(times[True]) * 1e3
    metrics["trace.untraced_op_ms"] = _metric(untraced_ms, "ms")
    metrics["trace.traced_op_ms"] = _metric(traced_ms, "ms")
    metrics["trace.overhead_ms"] = _metric(traced_ms - untraced_ms, "ms")
    return tally.result(metrics)


def layer_metrics(tally: Tally, seed: int, workdir: Path, workload) -> dict:
    """Per-layer metrics, measured the same way whatever the workload.

    A fresh interpreter times `import pointfam`; LAYER_PASSES traced sweep
    and verify passes, which between them call every layer, give the
    per-function numbers. Their outputs are checked like any other.
    """
    from tracer import Tracer

    imports = [float(_child(["import"])) for _ in range(IMPORT_PROBES)]
    pointfam = workloads.import_pointfam()
    sweep = workload if isinstance(workload, workloads.Sweep) else workloads.Sweep(seed, workdir / "layers")
    verify = workload if isinstance(workload, workloads.Verify) else workloads.Verify(seed, workdir / "layers")
    tracer = Tracer(pointfam)
    stdout_bytes = []
    for _ in range(LAYER_PASSES):
        for layer_workload in (sweep, verify):
            scratch = Tally()  # attempted and failed count the workload's own operations only
            _, result = _run_op(layer_workload, scratch, tracer)
            tally.problems += scratch.failures + scratch.problems
            if layer_workload is sweep and result is not None:
                stdout_bytes.append(sweep.stdout_bytes(result))

    summary = tracer.summary()
    (ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.json").write_text(
        json.dumps({"passes": LAYER_PASSES, "functions": summary}, indent=1), encoding="utf-8"
    )
    metrics = {
        "import.pointfam_s": _metric(statistics.median(imports), "s"),
        "cli.stdout_bytes": _metric(statistics.median(stdout_bytes) if stdout_bytes else 0, "bytes"),
    }
    for metric, function, statistic, scale, unit in LAYER_METRICS:
        row = summary.get(function)
        if row is None:
            print(f"not measured: {metric} ({function} never ran)", file=sys.stderr)
            metrics[metric] = _metric(0, unit)
            continue
        value = {
            "per_call": row["total_s"] / row["calls"],
            "self_per_call": row["self_s"] / row["calls"],
            "per_item": row["total_s"] / max(row["items"], 1),
            "per_pass": row["calls"] / LAYER_PASSES,
        }[statistic]
        metrics[metric] = _metric(value * scale, unit)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not workloads.source_present():
        print(f"run.py: no pointfam sources under {workloads.SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload == "cli-mix":
            result = run_cli_mix(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            result = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
