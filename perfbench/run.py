"""capdrop benchmark: seeded oracle solves, a pinned solve at scale, and
read-only oracle checks, each judged against the closed forms.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle_1k --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, every operation's verdict and every metric with its unit.  With
``--trace 0`` the metrics are the end-to-end ones (setup_s, pass_s,
check_pass_frac, peak_rss_mb); with ``--trace 1`` they are the per-layer ones
from a traced run, and the spans are written to ``.perfbench/``.

The process pins BLAS and OpenMP to one thread before numpy loads.  It exits
with code 2, printing no result, when the capdrop sources are not next to it
in ``src/``.
"""

from __future__ import annotations

import os
import sys
import time

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                "CAPDROP_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("oracle_1k", "dirichlet_16k", "verify_4k")
# set-up is timed this many times in fresh processes, besides this one
SETUP_PROBES = 4

END_TO_END = {"setup_s": "s", "pass_s": "s", "check_pass_frac": "frac",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "solver.flow_step.calls": "count",
    "solver.flow_step.ms": "ms",
    "solver.flow_step.self_ms": "ms",
    "solver.iterations": "count",
    "solver.precond_factor.calls": "count",
    "solver.precond_factor.ms": "ms",
    "solver.restore_evals_per_step": "evals/step",
    "curvature.cotangent_area_gradient.ms": "ms",
    "curvature.mixed_voronoi_areas.ms": "ms",
    "curvature.jet_fit.calls": "count",
    "curvature.jet_fit.ms": "ms",
    "curvature.jet_fit.us_per_vertex": "us",
    "wetting.operator_eval.calls": "count",
    "wetting.operator_eval.ms": "ms",
    "wetting.make_wetting_operator.calls": "count",
    "wetting.make_wetting_operator.ms": "ms",
    "wetting.surface_volume_gradient.calls": "count",
    "wetting.surface_volume_gradient.ms": "ms",
    "remesh.cycle.calls": "count",
    "remesh.cycle.ms": "ms",
    "remesh.useful_frac": "frac",
    "remesh.min_quality.ms": "ms",
    "analytic.contact_angle.calls": "count",
    "analytic.contact_angle.ms": "ms",
    "closure.close_with_spherical_patch.calls": "count",
    "closure.close_with_spherical_patch.ms": "ms",
    "closure.signed_containment.ms": "ms",
    "spatial.winding_numbers.ms": "ms",
    "spatial.mesh_distance.ms": "ms",
    "spatial.probes_per_s": "1/s",
    "mesh.build_mesh.calls": "count",
    "mesh.build_mesh.ms": "ms",
    "mesh.with_vertices.calls": "count",
    "shapes.spherical_cap_mesh.ms": "ms",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs for the benchmark's self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up only and print it (used internally)")
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(args):
    """Import capdrop and build the seeded inputs; returns them and the wall
    time taken, measured from before the first import."""
    if not (SRC / "capdrop" / "__init__.py").is_file():
        fail(f"no capdrop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import capdrop
    import workloads
    if not Path(capdrop.__file__).resolve().is_relative_to(SRC):
        fail(f"imported capdrop from {capdrop.__file__}, not from {SRC}")
    wl = workloads.build(args.workload, args.seed, args.size)
    return wl, time.perf_counter() - t0


def setup_probe(args) -> float:
    """Set-up wall time of a fresh process running this workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def warm_up(args) -> float:
    """Run the workload's operations once at the tiny size, untimed, so the
    first timed pass does not pay for first calls (lazy imports, first use
    of each code path).  The tiny inputs differ from the timed ones, so no
    result of the timed passes is computed here.  Returns the wall time."""
    import workloads
    t0 = time.perf_counter()
    for op in workloads.build(args.workload, args.seed, "tiny").ops:
        try:
            op.run()
        except Exception:  # the timed passes count and report failures
            pass
    return time.perf_counter() - t0


def run_passes(wl, seconds: float, tracer=None) -> list:
    """Repeat the workload's operations for about ``seconds``: a new pass
    starts only while the median pass so far still fits, and there is at
    least one.  Returns (seconds spent in the operations, outcomes) per pass;
    an outcome is the operation's result or the exception it raised.  A
    solver output identical to an earlier pass's is replaced by that one, so
    memory does not grow with the number of passes."""
    import workloads
    first_outputs: dict = {}
    passes = []
    start = time.perf_counter()
    while True:
        busy = 0.0
        outcomes = []
        for op in wl.ops:
            span = None
            if tracer is not None:
                tracer.op_id = op.name
                span = tracer.begin("bench.op")
            error = None
            t_op = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # one bad operation must not end the run
                error = type(exc).__name__
                out = exc
            finally:
                busy += time.perf_counter() - t_op
                if span is not None:
                    tracer.end(span, error)
            if isinstance(out, tuple):
                out = first_outputs.setdefault(
                    (op.name, workloads.result_key(out)), out)
            outcomes.append(out)
        passes.append((busy, outcomes))
        typical = statistics.median(p[0] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def judge(op, out) -> dict:
    """Verdict on one outcome: which checks failed, and why."""
    import oracle
    verdict = {"kind": None, "message": "", "errors": None,
               "failed_checks": 0, "oracle_broken": False}
    if isinstance(out, Exception):
        verdict.update(kind=type(out).__name__, message=str(out),
                       failed_checks=len(op.checks))
        return verdict
    try:
        errors, tolerances = op.judge(out)
    except oracle.OracleBroken as exc:
        verdict.update(kind="OracleBroken", message=str(exc),
                       failed_checks=len(op.checks), oracle_broken=True)
        return verdict
    except Exception as exc:  # the output is unusable by its own check
        verdict.update(kind=type(exc).__name__, message=f"check raised: {exc}",
                       failed_checks=len(op.checks))
        return verdict
    missed = oracle.misses(errors, tolerances)
    verdict.update(errors=errors, failed_checks=len(missed))
    if missed:
        verdict.update(kind="OracleMiss", message=", ".join(missed))
    return verdict


def judge_passes(wl, passes) -> dict:
    """Oracle verdicts for every outcome of every pass.

    An operation fails when it raised or missed any check.  Identical solver
    outputs are judged once.  Returns operation and check counts, the
    verdicts per operation, failures by type and whether every output could
    be judged against a working reference.
    """
    import workloads
    cache: dict = {}
    per_op = {op.name: {"failed": 0, "attempted": 0, "outputs": set()}
              for op in wl.ops}
    counts = {"attempted": 0, "failed": 0, "checks": 0, "checks_failed": 0}
    failed_by_type: dict = {}
    judged_all = True
    for _, outcomes in passes:
        for op, out in zip(wl.ops, outcomes):
            rec = per_op[op.name]
            if isinstance(out, tuple):
                key = (op.name, workloads.result_key(out))
                rec["outputs"].add(key[1])
                if key not in cache:
                    cache[key] = judge(op, out)
                verdict = cache[key]
            else:
                verdict = judge(op, out)
            rec["last"] = verdict
            rec["attempted"] += 1
            counts["attempted"] += 1
            counts["checks"] += len(op.checks)
            counts["checks_failed"] += verdict["failed_checks"]
            judged_all = judged_all and not verdict["oracle_broken"]
            if verdict["kind"] is not None:
                rec["failed"] += 1
                counts["failed"] += 1
                failed_by_type[verdict["kind"]] = failed_by_type.get(verdict["kind"], 0) + 1
    return {**counts, "per_op": per_op, "failed_by_type": failed_by_type,
            "judged_all": judged_all}


def iterations_per_pass(passes) -> float:
    total = 0
    for _, outcomes in passes:
        for out in outcomes:
            if isinstance(out, tuple) and hasattr(out[1], "iterations"):
                total += out[1].iterations
    return total / len(passes)


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + str(deps[k].get("version", ""))
                for k in ("blas", "lapack") if k in deps}
    except Exception as exc:  # the config format differs across numpy versions
        blas = {"unavailable": type(exc).__name__}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "capdrop").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def report_ops(judged) -> None:
    for name, rec in judged["per_op"].items():
        v = rec["last"]
        line = (f"# op {name}: {'pass' if v['kind'] is None else 'FAIL ' + v['kind']}"
                f" ({rec['failed']}/{rec['attempted']} failed"
                + (f", {len(rec['outputs'])} distinct output(s)" if rec["outputs"] else "")
                + ")")
        if v["message"]:
            line += f" {v['message']}"
        print(line)
        if v["errors"]:
            print(f"#   errors {json.dumps(v['errors'], sort_keys=True)}")


def layer_metrics(tracer, n_passes: int, iterations: float,
                  overhead_s: float) -> dict:
    totals = tracer.layer_totals("pass")
    setup = tracer.layer_totals("setup")

    def get(name, phase_totals=totals):
        return phase_totals.get(name, {"calls": 0, "busy_s": 0.0,
                                       "self_s": 0.0})

    def per_call_ms(t, key="busy_s"):
        return 1e3 * t[key] / t["calls"] if t["calls"] else 0.0

    m = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = get(base)["calls"] / n_passes
        elif field == "ms":
            m[name] = per_call_ms(get(base, setup if base.startswith("shapes.")
                                      else totals))
        elif field == "self_ms":
            m[name] = per_call_ms(get(base), "self_s")
    flow = get("solver.flow_step")["calls"]
    jet = get("curvature.jet_fit")
    containment = get("closure.signed_containment")
    cycles = get("remesh.cycle")["calls"]
    m.update({
        "solver.iterations": iterations,
        "solver.restore_evals_per_step":
            get("wetting.surface_volume_gradient")["calls"] / flow if flow else 0.0,
        "curvature.jet_fit.us_per_vertex":
            1e6 * jet["busy_s"] / tracer.items["pass", "curvature.jet_fit"]
            if tracer.items["pass", "curvature.jet_fit"] else 0.0,
        "remesh.useful_frac":
            tracer.outcomes["pass", "remesh.cycle"] / cycles if cycles else 0.0,
        "spatial.probes_per_s":
            tracer.items["pass", "closure.signed_containment"] / containment["busy_s"]
            if containment["busy_s"] else 0.0,
        "mesh.with_vertices.calls":
            tracer.counts["pass", "mesh.with_vertices"] / n_passes,
        "trace.overhead_s": overhead_s,
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    wl, setup_s = setup(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import workloads
    print(f"# env {json.dumps(environment(args), sort_keys=True)}")

    if not args.trace:
        samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        print(f"# warm-up (s): {warm_up(args)}")
        passes = run_passes(wl, args.seconds)
        # read before judging, which allocates for its own references
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        judged = judge_passes(wl, passes)
        metrics = {
            "setup_s": statistics.median(samples),
            "pass_s": statistics.median(p[0] for p in passes),
            "check_pass_frac": 1.0 - judged["checks_failed"] / judged["checks"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        print(f"# setup samples (s): {samples}")
        print(f"# pass times (s): {[p[0] for p in passes]}")
        print(f"# solver iterations per pass: {iterations_per_pass(passes)}")
    else:
        import tracing
        print(f"# warm-up (s): {warm_up(args)}")
        untraced = run_passes(wl, args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl = workloads.build(args.workload, args.seed, args.size)
            tracer.phase = "pass"
            passes = run_passes(wl, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        judged = judge_passes(wl, passes)
        overhead = (statistics.median(p[0] for p in passes)
                    - statistics.median(p[0] for p in untraced))
        metrics = layer_metrics(tracer, len(passes),
                                iterations_per_pass(passes), overhead)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"# spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        print(f"# not measured: {tracer.not_measured or 'none'}")
        for name, t in sorted(tracer.layer_totals("pass").items()):
            if t["errors"]:
                print(f"# errors in {name}: {dict(t['errors'])}")

    report_ops(judged)
    fail_frac = judged["failed"] / judged["attempted"]
    print(f"# failed operations by type: {judged['failed_by_type'] or 'none'}")
    print(f"# metric fail_frac {fail_frac!r} frac")
    for name, unit in units.items():
        print(f"# metric {name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": judged["judged_all"],
        "attempted": judged["attempted"],
        "failed": judged["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
