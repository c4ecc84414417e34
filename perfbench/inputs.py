"""Seeded inputs of the benchmark workloads.

Every problem and fleet comes from the repository's own generators
(``random_pipeline``, ``case_study``, ``aws_f1``, ``mixed_fleet``,
``synthetic_fleet``); the seed picks their random parameters and order.
Sizes rotate through a fixed list of shapes, so two seeds draw the same mix
of problem sizes and a run-to-run comparison is not dominated by which seed
happened to draw the large problems.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.exact import ExactSettings
from repro.core.problem import AllocationProblem
from repro.platform.presets import aws_f1, mixed_fleet
from repro.reporting.experiments import case_study
from repro.service import SolveRequest
from repro.workloads import SyntheticSpec, random_pipeline, synthetic_fleet

#: (kernels, FPGAs, mixed fleet) visited once per rotation: 6 to 24 kernels
#: on 2 to 8 FPGAs, a quarter of them on heterogeneous ``mixed_fleet``
#: platforms so that decode's FPGA-order permutation is exercised.
SHAPES: tuple[tuple[int, int, bool], ...] = tuple(
    (kernels, fpgas, False) for kernels in (6, 12, 18, 24) for fpgas in (2, 4, 8)
) + ((6, 2, True), (12, 4, True), (18, 6, True), (24, 8, True))

RESOURCE_LIMITS = (60.0, 70.0, 80.0, 90.0)

#: Exact-method budget of ``exact-mix``: the branch-and-bound and packer node
#: budgets bind long before the time limit, so node counts fix the work per
#: call.  Without a packer budget a few ``minlp`` calls on vgg-16 run for
#: tens of seconds.
EXACT_SETTINGS = ExactSettings(max_nodes=30, packer_max_nodes=500, time_limit_seconds=600.0)

CASE_STUDIES = ("alex-16", "alex-32", "vgg-16")

#: Resource limits (percent) of the ``exact-mix`` case studies lie in
#: [60, 95); warm-up problems use limits below 60 so they never collide
#: with a workload key.
EXACT_LIMIT_LOW, EXACT_LIMIT_SPAN = 60.0, 35.0
#: Resource-limit strata per case study; a full round visits each once.
EXACT_STRATA = 2


def random_problem(rng: random.Random, kernels: int, fpgas: int, mixed: bool) -> AllocationProblem:
    """One random pipeline on an F1 or mixed platform, sized to fit.

    Kernel sizes and bandwidths scale with the platform so total demand
    stays below its capacity; on mixed fleets kernels stay small enough for
    the smaller device class.  Every problem then has an allocation that
    ``gp+a`` finds, so no request of the benchmark fails on its input.
    """
    limit = rng.choice(RESOURCE_LIMITS)
    max_resource = max(2.0, min(0.6 * fpgas * limit / kernels, limit / 3.0))
    if mixed:
        max_resource = min(max_resource, 12.0)
    spec = SyntheticSpec(
        num_kernels=kernels,
        max_resource=max_resource,
        min_resource=min(0.5, max_resource / 4.0),
        max_bandwidth=min(8.0, 40.0 * fpgas / kernels),
    )
    pipeline = random_pipeline(spec, seed=rng.randrange(2**31))
    if mixed:
        large = max(1, fpgas // 2)
        platform = mixed_fleet(
            num_large=large, num_small=fpgas - large, resource_limit_percent=limit
        )
    else:
        platform = aws_f1(num_fpgas=fpgas, resource_limit_percent=limit)
    return AllocationProblem(pipeline=pipeline, platform=platform)


def problem_stream(seed: int, salt: str) -> Iterator[AllocationProblem]:
    """Endless distinct problems: each rotation visits every shape once,
    in a seeded order.  ``salt`` separates the streams of one seed."""
    rng = random.Random(f"{seed}/{salt}")
    while True:
        shapes = list(SHAPES)
        rng.shuffle(shapes)
        for kernels, fpgas, mixed in shapes:
            yield random_problem(rng, kernels, fpgas, mixed)


def take(stream: Iterator[AllocationProblem], count: int) -> list[AllocationProblem]:
    return [next(stream) for _ in range(count)]


def warmup_problem(index: int) -> AllocationProblem:
    """A problem outside every workload's key set (limit below 60 %)."""
    return case_study(CASE_STUDIES[index % 3], 50.0 + 0.25 * index)


def cold_batches(seed: int, new: int, duplicates: int, repeats: int) -> Iterator[tuple[list[SolveRequest], int]]:
    """``cold-batch`` traffic: ``(batch, expected solves)`` pairs.

    Each batch holds ``new`` problems never sent before, ``duplicates``
    extra copies of them, and ``repeats`` problems from earlier batches
    (from the batch itself for the first one); the expected solves are the
    new problems, since everything else is a duplicate or a store hit.
    """
    rng = random.Random(f"{seed}/cold-batch-mix")
    stream = problem_stream(seed, "cold-batch")
    history: list[AllocationProblem] = []
    while True:
        fresh = take(stream, new)
        pool = history if history else fresh
        problems = (
            fresh
            + [rng.choice(fresh) for _ in range(duplicates)]
            + [rng.choice(pool) for _ in range(repeats)]
        )
        rng.shuffle(problems)
        history.extend(fresh)
        yield [SolveRequest(problem=problem) for problem in problems], new


def exact_cases(seed: int) -> Iterator[AllocationProblem]:
    """``exact-mix`` problems: the three case studies at stratified limits.

    One round visits each case study once per stratum of the resource
    limit, in a seeded order with a seeded offset inside each stratum, so
    complete rounds of two seeds cover the same range of limits.
    """
    rng = random.Random(f"{seed}/exact-mix")
    while True:
        cases = [(name, stratum) for name in CASE_STUDIES for stratum in range(EXACT_STRATA)]
        rng.shuffle(cases)
        for name, stratum in cases:
            width = EXACT_LIMIT_SPAN / EXACT_STRATA
            limit = EXACT_LIMIT_LOW + width * (stratum + rng.random())
            yield case_study(name, round(limit, 3))


def exact_fleet(seed: int, index: int):
    """The ``index``-th seeded fleet of ``exact-mix`` (3 tenants, 2+2 devices)."""
    return synthetic_fleet(
        num_tenants=3,
        class_counts=(2, 2),
        kernels_per_tenant=2,
        seed=(seed * 100_003 + index) % (2**31),
        name=f"bench-fleet-{index}",
    )
