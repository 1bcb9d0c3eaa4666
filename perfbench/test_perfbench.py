"""Self-test of the benchmark at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench

It checks the output schema against BENCHMARK.json, that the oracle rejects a
solve that reports convergence on a wrong surface, and that counts repeat
exactly for one seed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import capdrop  # noqa: E402
import capdrop.solver  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Target  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_output_schema(workload, trace):
    result, stdout = run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert f"# metric {m['name']} " in stdout
    if not trace:
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["pass_s"]["value"] > 0
        assert 0 < result["metrics"]["check_pass_frac"]["value"] <= 1


def flat_disk_curvature_op():
    """The unit circle pinned with an H = 2/3 target, started from a flat
    disk: the solve can report convergence on the flat disk itself."""
    cap, _ = capdrop.spherical_caps_for_circle(1.0, 2.0 / 3.0)
    disk = capdrop.flat_disk(1.0, 24, 4)
    target = Target(cap.carrier, cap.mean_curvature, cap.dome_volume, cap.area)
    boundary = disk.vertices[disk.boundary_vertex_mask]
    op = workloads._solve_op(
        "flat_disk_curvature",
        lambda m: capdrop.solver.solve_dirichlet_cmc(
            boundary, m, target_mean_curvature=cap.mean_curvature),
        disk, cap.mesh(24, 4), target)
    return op, disk, cap


def test_oracle_rejects_converged_flat_disk():
    op, disk, cap = flat_disk_curvature_op()
    claimed = capdrop.solver.SolveReport(
        converged=True, iterations=1, final_energy=disk.surface_area(),
        h_mean=cap.mean_curvature, h_max_deviation=0.0, volume=cap.dome_volume,
        multiplier=cap.mean_curvature)
    verdict = run.judge(op, (disk, claimed))
    assert verdict["kind"] == "OracleMiss"
    assert "h_median" in verdict["message"] and "volume" in verdict["message"]


def test_oracle_judges_the_surface_not_the_report():
    op, _, _ = flat_disk_curvature_op()
    mesh, report = op.run()
    verdict = run.judge(op, (mesh, report))
    if float(abs(mesh.vertices[:, 2]).max()) < 1e-9:  # the solve stayed flat
        assert verdict["kind"] == "OracleMiss"


def test_counts_repeat_for_one_seed():
    def counts():
        wl = workloads.build("oracle_1k", 5, "tiny")
        passes = run.run_passes(wl, 0.0)
        judged = run.judge_passes(wl, passes)
        digests = [workloads.result_key(out) if isinstance(out, tuple)
                   else type(out).__name__ for out in passes[0][1]]
        return (run.iterations_per_pass(passes), judged["failed"],
                judged["checks_failed"], digests)

    assert counts() == counts()
