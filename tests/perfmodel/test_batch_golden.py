"""Golden regression fixtures for the contention solver.

A small deterministic scenario population is solved on a handful of
machine configurations and the full numeric output frozen into
``tests/perfmodel/golden/contention_golden.json``.  The batched solver
and its scalar test oracle (:mod:`tests.perfmodel.scalar_oracle`) must
both reproduce the committed numbers **bit for bit** — JSON stores each
double via ``repr``, which round-trips exactly — so any change to the
fixed point's arithmetic (constants, association order, damping
schedule) shows up as a diff against a committed artefact rather than a
silent drift.

Regenerate after an *intentional* model change with::

    pytest tests/perfmodel/test_batch_golden.py --update-golden
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.perfmodel import (
    MachinePerf,
    RunningInstance,
    solve_colocation_batch,
)
from repro.workloads import HP_JOBS, LP_JOBS
from tests.perfmodel.scalar_oracle import solve_colocation as oracle_solve

GOLDEN_PATH = Path(__file__).parent / "golden" / "contention_golden.json"

_CATALOGUE = {**HP_JOBS, **LP_JOBS}

_MACHINES = {
    "baseline": MachinePerf(),
    "small_llc": MachinePerf(llc_mb=24.0),
    "low_freq": MachinePerf(max_freq_ghz=1.8),
    "smt_off": MachinePerf(smt_enabled=False),
    "narrow_bw": MachinePerf(mem_bw_gbps=20.0),
}

_INSTANCE_FIELDS = (
    "mips",
    "ipc",
    "busy_threads",
    "cache_share_mb",
    "llc_miss_ratio",
    "llc_mpki",
    "dram_gbps",
    "network_gbps",
    "disk_mbps",
    "frequency_ghz",
)
_STACK_FIELDS = ("base", "frontend", "branch", "l2", "llc_hit", "dram", "smt")


def golden_population() -> list[list[tuple[str, float]]]:
    """Deterministic (job name, load) mixes — independent of the solver."""
    rng = random.Random(20268)
    names = sorted(_CATALOGUE)
    population = [[(name, 1.0)] for name in (names[0], "mcf")]
    for size in (2, 3, 4, 6, 6, 8):
        population.append(
            [(rng.choice(names), rng.uniform(0.3, 1.0)) for _ in range(size)]
        )
    return population


def _build(mix):
    return [
        RunningInstance(signature=_CATALOGUE[name], load=load)
        for name, load in mix
    ]


def _solution_record(solution) -> dict:
    return {
        "converged": solution.converged,
        "iterations": solution.iterations,
        "cpu_utilization": solution.cpu_utilization,
        "mem_bw_utilization": solution.mem_bw_utilization,
        "mem_latency_ns": solution.mem_latency_ns,
        "instances": [
            {
                "job": inst.job_name,
                **{field: getattr(inst, field) for field in _INSTANCE_FIELDS},
                "cpi_stack": {
                    field: getattr(inst.cpi_stack, field)
                    for field in _STACK_FIELDS
                },
            }
            for inst in solution.instances
        ],
    }


def generate_golden() -> dict:
    """Freeze the scalar oracle's outputs for the population."""
    population = golden_population()
    cases = []
    for machine_name, machine in sorted(_MACHINES.items()):
        for mix in population:
            solution = oracle_solve(machine, _build(mix))
            cases.append(
                {
                    "machine": machine_name,
                    "scenario": [[name, load] for name, load in mix],
                    **_solution_record(solution),
                }
            )
    return {"population_seed": 20268, "cases": cases}


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(generate_golden(), indent=1) + "\n"
        )
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"{GOLDEN_PATH} missing — run with --update-golden to create it"
        )
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches_case(case, solution):
    context = f"machine={case['machine']} scenario={case['scenario']}"
    assert solution.converged == case["converged"], context
    assert solution.iterations == case["iterations"], context
    assert solution.cpu_utilization == case["cpu_utilization"], context
    assert solution.mem_bw_utilization == case["mem_bw_utilization"], context
    assert solution.mem_latency_ns == case["mem_latency_ns"], context
    assert len(solution.instances) == len(case["instances"])
    for inst, frozen in zip(solution.instances, case["instances"]):
        assert inst.job_name == frozen["job"], context
        for field in _INSTANCE_FIELDS:
            assert getattr(inst, field) == frozen[field], (
                f"{context} {frozen['job']}.{field}"
            )
        for field in _STACK_FIELDS:
            assert getattr(inst.cpi_stack, field) == frozen["cpi_stack"][
                field
            ], f"{context} {frozen['job']}.cpi_stack.{field}"


def test_golden_file_is_current(golden):
    # The committed fixture must describe exactly today's population and
    # machine set; a mismatch means the generator changed without
    # --update-golden.
    assert golden["population_seed"] == 20268
    expected = [
        (machine_name, [[name, load] for name, load in mix])
        for machine_name in sorted(_MACHINES)
        for mix in golden_population()
    ]
    actual = [(case["machine"], case["scenario"]) for case in golden["cases"]]
    assert actual == expected


def test_scalar_solver_reproduces_golden(golden):
    for case in golden["cases"]:
        machine = _MACHINES[case["machine"]]
        mix = [(name, load) for name, load in case["scenario"]]
        _assert_matches_case(case, oracle_solve(machine, _build(mix)))


def test_batched_solver_reproduces_golden(golden):
    # Group per machine so the whole population solves as one batch —
    # padding, row order and convergence masking must not perturb bits.
    by_machine: dict[str, list[dict]] = {}
    for case in golden["cases"]:
        by_machine.setdefault(case["machine"], []).append(case)
    for machine_name, cases in by_machine.items():
        machine = _MACHINES[machine_name]
        population = [
            _build([(name, load) for name, load in case["scenario"]])
            for case in cases
        ]
        solutions = solve_colocation_batch(machine, population)
        for case, solution in zip(cases, solutions):
            _assert_matches_case(case, solution)
