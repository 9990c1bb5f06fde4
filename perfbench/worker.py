"""One benchmark process: build a workload, solve it, gate and measure.

Started by ``run.py`` with single-threaded BLAS and ``src`` on the path;
not meant to be run by hand.  The last line of standard output is one
JSON object for the launcher.  ``--setup-only`` stops after importing the
package and building the inputs and reports that time alone.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import arplr  # noqa: E402
import arplr.harness as harness  # noqa: E402
import arplr.solver as solver  # noqa: E402
from arplr import SolveStatus  # noqa: E402

from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTERS = ("outer_iters", "successful_iters", "inner_iters", "f_evals", "deriv_evals")


def counters(run) -> tuple:
    return (
        run.total_iterations,
        run.successes,
        sum(rec.inner_iters for rec in run.records),
        run.f_evals,
        run.deriv_evals,
    )


def holder_bound(job, run):
    """Hoelder constant over the ball holding the trajectory and trial
    points, as the trajectory-inequality criterion takes it."""
    radius = job.space.norm(job.x0)
    for rec in run.records:
        radius = max(radius, rec.iterate_norm + rec.step_norm)
    return job.problem.holder_constant(job.space, job.outer.p, 1.01 * radius)


def gate(job, run, violations) -> list:
    """Reasons the solve failed; empty when it passed."""
    reasons = []
    if run.status is not SolveStatus.CONVERGED:
        reasons.append(f"status {run.status.value}")
    if not run.final_grad_dual_norm <= job.outer.epsilon:
        reasons.append(f"final dual gradient norm {run.final_grad_dual_norm!r} > {job.outer.epsilon!r}")
    if violations:
        reasons.append("trajectory violations " + ",".join(v.code for v in violations))
    if job.expected is not None and counters(run) != job.expected:
        reasons.append(f"counters {counters(run)} != seed {job.expected}")
    return reasons


@dataclass(frozen=True)
class Solved:
    label: str
    counters: tuple
    reasons: list
    seconds: float
    record: bytes
    run: object


def run_pass(jobs, spaces, out_dir, sampler):
    """Solve, check and record every job once; returns (solved, wall seconds
    at reference speed, raw wall seconds).

    The solver, checker and writer are looked up on their modules at call
    time, so the traced process can patch them."""
    os.makedirs(out_dir)
    done = []
    start = time.perf_counter()
    for i, (job, space) in enumerate(zip(jobs, spaces)):
        sampler.sample()
        t0 = time.perf_counter()
        run = solver.solve(job.problem, job.x0, job.outer, space)
        violations = solver.check_trajectory(
            run, job.outer, L=holder_bound(job, run), f_low=job.problem.f_low
        )
        path = os.path.join(out_dir, f"{i:02d}.txt")
        harness.write_run_record(path, job.cfg, space, run)
        done.append((job, run, violations, path, t0, time.perf_counter()))
    end = time.perf_counter()
    sampler.sample()
    solved = []
    for job, run, violations, path, t0, t1 in done:
        with open(path, "rb") as fh:
            record = fh.read()
        solved.append(Solved(
            job.label, counters(run), gate(job, run, violations),
            sampler.normalize(t0, t1), record, run,
        ))
    shutil.rmtree(out_dir)
    return solved, sampler.normalize(start, end), end - start


def mismatches(reference, other) -> list:
    """Labels of the solves, paired in order, whose counters or record
    bytes differ."""
    return [
        s.label
        for ref, s in zip(reference, other, strict=True)
        if s.counters != ref.counters or s.record != ref.record
    ]


def totals(solved) -> dict:
    sums = np.sum([s.counters for s in solved], axis=0)
    return {name: int(v) for name, v in zip(COUNTERS, sums)}


def tail_percentile(per_pass: int) -> int:
    """Highest of the usual percentiles with at least ten of one pass's
    samples beyond it; the median when none has."""
    for q in (99, 95, 90, 75):
        if per_pass * (100 - q) / 100 >= 10:
            return q
    return 50


def measure(jobs, sampler, seconds, tmp, notes):
    """Untraced passes until the time budget is spent (at least one)."""
    spaces = [job.space for job in jobs]
    passes = []
    start = time.perf_counter()
    with sampler.sampling():
        while True:
            passes.append(run_pass(jobs, spaces, os.path.join(tmp, f"pass{len(passes)}"), sampler))
            if time.perf_counter() - start + passes[-1][2] > seconds:
                break
    first = passes[0][0]
    differing = [label for solved, _, _ in passes[1:] for label in mismatches(first, solved)]
    if len(passes) == 1:
        # no second pass: re-solve the cheapest job for the byte-level probe
        i = min(range(len(first)), key=lambda k: first[k].seconds)
        probe = run_pass([jobs[i]], [spaces[i]], os.path.join(tmp, "probe"), sampler)[0]
        differing += mismatches(first[i:i + 1], probe)
        notes.append(f"determinism probe: re-solved {first[i].label}")
    notes.append(f"determinism: {len(passes)} pass(es), differing solves: {differing or 'none'}")

    solved_all = [s for solved, _, _ in passes for s in solved]
    wall = statistics.median(wall for _, wall, _ in passes)
    notes.append(
        f"raw wall_s {statistics.median(raw for _, _, raw in passes)!r} s at median speed "
        f"{statistics.median(v for _, v, _ in sampler.samples):.3f} of reference "
        f"({len(sampler.samples)} calibration samples)"
    )
    # per-solve latency is printed, not gated: the suite's median solve
    # takes a few milliseconds, too short to time steadily on a drifting host
    times = [s.seconds for s in solved_all]
    q = tail_percentile(len(jobs))
    notes.append(
        f"solve_s p50 {float(np.percentile(times, 50))!r} s, "
        f"p{q} {float(np.percentile(times, q))!r} s over {len(times)} solves"
    )
    count = totals(first)
    metrics = {
        "wall_s": (wall, "s"),
        "inner_iters_per_s": (count["inner_iters"] / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "solves": (len(jobs), "count"),
    }
    metrics.update({name: (v, "count") for name, v in count.items()})
    return solved_all, not differing, metrics


def trace(jobs, sampler, tmp, notes):
    """One untraced pass, then one traced pass; per-layer metrics."""
    from tracing import GEOMETRY_METHODS, TENSOR_METHODS, Tracer

    tracer = Tracer()
    space_type = tracer.space_type()
    spaces = [space_type(job.space.n, job.space.r) for job in jobs]
    with sampler.sampling():
        plain, plain_wall, _ = run_pass(
            jobs, [job.space for job in jobs], os.path.join(tmp, "plain"), sampler
        )
        for job in jobs:
            tracer.wrap_oracle(job.problem)
        with tracer.patched():
            traced, traced_wall, traced_raw = run_pass(
                jobs, spaces, os.path.join(tmp, "traced"), sampler
            )

    def at_reference(seconds):
        """Span time at reference speed, scaled like the traced pass."""
        return None if seconds is None else seconds * traced_wall / traced_raw

    count = totals(traced)
    differing = mismatches(plain, traced)
    consistent = {
        "inner.calls == outer_iters": tracer.calls[("inner", "minimize_model")] == count["outer_iters"],
        "inner iterations": tracer.tallies["inner_iters"] == count["inner_iters"],
        "eval_f calls == f_evals": tracer.calls[("problems", "eval_f")] == count["f_evals"],
        "eval_derivative calls == p * deriv_evals": tracer.calls[("problems", "eval_derivative")]
        == sum(s.run.deriv_evals * job.outer.p for s, job in zip(traced, jobs)),
    }
    broken = [name for name, ok in consistent.items() if not ok]
    notes.append(f"traced vs untraced: differing solves {differing or 'none'}, "
                 f"inconsistent counters {broken or 'none'}")

    records = [rec for s in traced for rec in s.run.records]
    rejected = [rec for rec in records if not rec.successful]
    outer = len(records)
    solve_s = tracer.total_s[("solver", "solve")]
    metrics = {
        "geometry.calls": (tracer.layer_calls("geometry"), "count"),
        "geometry.self_s": (at_reference(tracer.self_s["geometry"]), "s"),
    }
    for name in GEOMETRY_METHODS:
        metrics[f"geometry.{name}.us"] = (at_reference(tracer.mean_us("geometry", name)), "us")
    metrics["tensors.calls"] = (tracer.layer_calls("tensors"), "count")
    metrics["tensors.self_s"] = (at_reference(tracer.self_s["tensors"]), "s")
    for name in TENSOR_METHODS.values():
        metrics[f"tensors.{name}.us"] = (at_reference(tracer.mean_us("tensors", name)), "us")
    metrics["tensors.bytes_touched"] = (tracer.tallies["bytes_touched"], "B")
    for name in ("eval_f", "eval_derivative"):
        metrics[f"problems.{name}.calls"] = (tracer.calls[("problems", name)], "count")
        metrics[f"problems.{name}.us"] = (at_reference(tracer.mean_us("problems", name)), "us")
    metrics["problems.deriv_bytes"] = (tracer.tallies["deriv_bytes"], "B")
    inner_iters = count["inner_iters"]
    metrics.update({
        "inner.calls": (tracer.calls[("inner", "minimize_model")], "count"),
        "inner.iters": (inner_iters, "count"),
        "inner.self_s": (at_reference(tracer.self_s["inner"]), "s"),
        "inner.iter_us": (at_reference(1e6 * tracer.self_s["inner"] / inner_iters), "us"),
        "inner.guard_hits": (tracer.tallies["guard_hits"], "count"),
        "inner.wasted_iter_share": (sum(rec.inner_iters for rec in rejected) / inner_iters, "ratio"),
        "solver.outer_iters": (outer, "count"),
        "solver.rejected_iters": (len(rejected), "count"),
        "solver.success_ratio": ((outer - len(rejected)) / outer, "ratio"),
        "solver.self_s": (at_reference(tracer.self_s["solver"]), "s"),
        "solver.outer_iter_ms": (at_reference(1e3 * solve_s / outer), "ms"),
        "solver.check_trajectory.s": (
            at_reference(tracer.total_s[("check", "check_trajectory")]), "s"),
        "harness.write_run_record.s": (
            at_reference(tracer.total_s[("harness", "write_run_record")]), "s"),
        "harness.record_bytes": (sum(len(s.record) for s in traced), "B"),
        "trace.overhead_share": (traced_wall / plain_wall - 1.0, "ratio"),
    })
    return plain + traced, not differing and not broken, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(arplr.__file__).startswith(src):
        print(f"arplr imported from {arplr.__file__}, not from {src}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_raw_s = time.perf_counter() - _START
    # the setup is too short for the timer: sample the speed right after it
    sampler = SpeedSampler()
    for _ in range(5):
        sampler.sample()
    setup_s = setup_raw_s * statistics.mean(speed for _, speed, _ in sampler.samples)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    notes = []
    try:
        if args.trace:
            solved, deterministic, metrics = trace(jobs, sampler, tmp, notes)
        else:
            solved, deterministic, metrics = measure(jobs, sampler, args.seconds, tmp, notes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:  # another run still uses it
            pass
    failed = [s for s in solved if s.reasons]
    for s in failed:
        notes.append(f"FAILED {s.label}: {'; '.join(s.reasons)}")
    notes.append(f"solves {len(solved)}, failed_solves {len(failed)}")
    print(json.dumps({
        "setup_s": setup_s,
        "correct": deterministic and not failed,
        "attempted": len(solved),
        "failed": len(failed),
        "notes": notes,
        "metrics": {name: [value, unit] for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
