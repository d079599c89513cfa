"""Self-test of the benchmark (about two minutes):

    python3 -m pytest bench/test_bench.py -q

Runs every workload in quick mode (one pass over the first job of each
kind), untraced and traced, and checks the result lines against
BENCHMARK.json, the layer time balance of the traced run, the scoring of the
two numeric negatives, the seeded inputs and the frozen data.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import make_data  # noqa: E402
from nwave import verify, wavesys  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py") if cwd == ROOT else "bench/run.py",
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


def _record(workload, trace):
    path = BENCH / "out" / f"{workload}-seed0-trace{trace}-quick.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    last = _result(workload, 0)
    assert last["correct"] is True
    assert last["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in last["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(last["metrics"][m]["value"] > 0 for m in emitted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_balances(workload):
    last = _result(workload, 1)
    assert last["correct"] is True
    metrics = last["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layers = ("exprat", "spectral", "tau", "wavesys", "transforms", "toda", "verify", "cli")
    spanned = sum(metrics[f"{layer}.self_s"]["value"] for layer in layers)
    wall = metrics["trace.wall_s"]["value"]
    assert spanned + metrics["trace.unspanned_s"]["value"] == pytest.approx(wall, abs=1e-6)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(
        wall - metrics["trace.untraced_wall_s"]["value"])
    assert metrics["trace.spans"]["value"] > 0


def test_numeric_negatives_are_scored_against_their_known_answers():
    last = _result("numeric-check", 0)
    records = {r["kind"]: r for r in _record("numeric-check", 0)["records"]}
    # The doubled field is caught: the known answer FAIL is met.
    assert records["negative-doubled"]["ok"] is True
    # The pole config is not a solution, so the known answer is FAIL; the job
    # is scored ok exactly when numeric mode says FAIL.
    pole = inputs.load_config("pole_A2", 0)
    assert not verify.verify_config(wavesys.model("A2"), pole).passed
    numeric_fails = not verify.verify_config(wavesys.model("A2"), pole, mode="numeric").passed
    assert records["negative-pole"]["ok"] is numeric_fails
    assert last["failed"] == sum(1 for r in records.values() if not r["ok"])
    if not numeric_fails:  # today's false PASS shows as a counted failure
        assert last["failed"] >= 1
        assert last["metrics"]["ok_frac"]["value"] < 1


def test_run_outside_a_source_checkout_fails_without_a_result():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("tau-verify", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_seed_zero_is_the_frozen_data_and_seeds_repeat():
    raw = json.loads((inputs.DATA / "spikes.json").read_text())
    doc = inputs.spectral_doc("P2", "Q4", 0)
    assert doc["P"] == [{"pos": s["pos"], "w": str(Fraction(s["w"]))} for s in raw["sets"]["P2"]]
    assert doc["Q"] == [{"pos": s["pos"], "w": str(Fraction(s["w"]))} for s in raw["sets"]["Q4"]]
    assert inputs.spectral_doc("P2", "Q4", 7) == inputs.spectral_doc("P2", "Q4", 7)
    seeded = {inputs.weight_factors(seed) for seed in range(1, 11)}
    assert len(seeded) > 1 and all(a > 0 and b > 0 for a, b in seeded)


def test_frozen_configs_equal_a_fresh_build():
    fresh = make_data.frozen_configs()
    assert sorted(fresh) == sorted(p.stem for p in inputs.CONFIGS.glob("*.json"))
    for name, cfg in fresh.items():
        assert inputs.load_config(name, 0) == cfg, name


def test_seeded_frozen_configs_equal_a_build_from_rescaled_spikes():
    from nwave import tau, transforms

    seed = 5
    assert inputs.weight_factors(seed) != (1, 1)
    b2 = wavesys.model("B2")
    s24 = inputs.spectral_data("P2", "Q4", seed)
    assert inputs.load_config("tau_B2_P2Q4_11", seed) == tau.solution_from_tau(b2, s24, 1, 1)
    assert inputs.load_config("seed_G2_P2Q3", seed) == inputs.seed_config("G2", "P2", "Q3", seed)
    b2_seed = inputs.seed_config("B2", "P2", "Q2", seed)
    for tid in ("B2_TM", "B2_T10"):
        assert inputs.load_config(f"img_{tid}_P2Q2", seed) == transforms.apply(tid, b2_seed)
