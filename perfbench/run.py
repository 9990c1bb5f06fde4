"""Solver benchmark: one command, four workloads, exact counters.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads: suite, mesh, lr_mesh, starts (see perfbench/README.md).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass, measured against an untraced pass in the same process.
Every solve is gated (converged, final dual gradient norm within epsilon,
no trajectory violations, seed counters on suite and mesh); a run with a
failed solve or a non-repeating counter reports ``"correct": false`` and
exits with status 1.

The launcher pins every BLAS library to one thread so the reduction order,
and with it every counter, repeats exactly; it runs the package from the
checkout's ``src`` and exits with status 2, printing no result, when the
package is not there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3  # extra fresh processes that only import and build inputs
TIMEOUT_S = 170

ONE_THREAD = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def worker_env() -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list) -> tuple:
    """Run worker.py to completion; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=TIMEOUT_S, text=True,
    )
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced-size inputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "arplr", "__init__.py")):
        print(f"no arplr package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            code, lines = run_worker(common + ["--setup-only"])
            if code != 0 or not lines:
                return code or 2
            setup.append(json.loads(lines[-1])["setup_s"])
    code, lines = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code != 0 or not lines:
        return code or 2
    out = json.loads(lines[-1])

    metrics = {}
    if not args.trace:
        setup.append(out["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    not_applicable = []
    for name, (value, unit) in out["metrics"].items():
        if value is None:  # the layer had no traffic on this workload
            not_applicable.append(name)
            value = 0
        metrics[name] = {"value": value, "unit": unit}

    for line in lines[:-1] + out["notes"]:
        print(line)
    if not_applicable:
        print("n/a (no traffic): " + ", ".join(not_applicable))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
