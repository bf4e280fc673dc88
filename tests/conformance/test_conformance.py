"""The cross-solver differential conformance tests.

Every registered solver runs on the shared grid (see the package
docstring) under three strict invariants: fast path == ``tests/oracles``
reference bitwise, delta-maintained == cold-recompile bitwise, and
validity under a cold clone.  CI runs this file at smoke scale (the grid
as defined); the assertions themselves are never relaxed.
"""

from __future__ import annotations

import pytest

from repro.service.registry import available_solver_specs, available_solvers, create_solver
from tests.conformance import (
    CHAINS,
    GRID,
    TINY,
    apply_chain,
    cold_clone,
    make_instance,
)
from tests.oracles import REFERENCES, reference_solver

CRA_SPECS = available_solver_specs("cra")
JRA_SPECS = available_solver_specs("jra")
FAST_CRA = [spec for spec in CRA_SPECS if "exponential" not in spec.tags]
EXPONENTIAL_CRA = [spec for spec in CRA_SPECS if "exponential" in spec.tags]
REFERENCED_CRA = sorted(name for kind, name in REFERENCES if kind == "cra")

#: Registered solvers deliberately without a ``tests/oracles`` reference:
#: they have no compiled fast path to diff, and are held to the
#: delta == cold and cross-solver optimum checks instead.
WITHOUT_REFERENCE = {
    "cra": {"ILP", "Exhaustive"},
    "jra": {"BFS", "ILP", "CP", "CP-FIRST"},
}


def _ids(specs):
    return [spec.name for spec in specs]


class TestRegistryCoverage:
    """The harness must cover the whole registry — by construction."""

    def test_every_cra_solver_is_in_exactly_one_speed_class(self):
        assert sorted(_ids(FAST_CRA) + _ids(EXPONENTIAL_CRA)) == available_solvers("cra")

    def test_every_solver_has_a_reference_or_is_listed_without_one(self):
        problem = make_instance(TINY)
        for kind in ("cra", "jra"):
            referenced = {name for ref_kind, name in REFERENCES if ref_kind == kind}
            assert not referenced & WITHOUT_REFERENCE[kind]
            assert sorted(referenced | WITHOUT_REFERENCE[kind]) == available_solvers(kind)
        for kind, name in REFERENCES:
            if kind == "cra":
                result = reference_solver(kind, name).solve(problem)
                cold_clone(problem).validate_assignment(result.assignment)
            else:
                reference_solver(kind, name).solve(problem.to_jra(problem.paper_ids[0]))


class TestFastPathEqualsReferenceBitwise:
    """Every referenced CRA solver: fast path == ``tests/oracles`` reference, bitwise."""

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    @pytest.mark.parametrize("name", REFERENCED_CRA)
    def test_cra_fast_path_equals_reference(self, name, instance_id):
        problem = make_instance(GRID[instance_id])
        fast = create_solver("cra", name).solve(problem)
        reference = reference_solver("cra", name).solve(problem)
        assert fast.assignment == reference.assignment, (
            f"{name} diverged from its tests/oracles reference on {instance_id!r}"
        )
        assert fast.score == reference.score  # bitwise, not approx

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_bba_fast_path_equals_reference(self, instance_id):
        problem = make_instance(GRID[instance_id])
        for paper_id in (problem.paper_ids[0], problem.paper_ids[-1]):
            jra = problem.to_jra(paper_id)
            fast = create_solver("jra", "BBA", top_k=3).solve(jra)
            reference = reference_solver("jra", "BBA", top_k=3).solve(jra)
            assert fast.reviewer_ids == reference.reviewer_ids
            assert fast.score == reference.score
            # identical search tree: node counts and the ranked top-k too
            assert dict(fast.stats) == dict(reference.stats)


class TestDeltaEqualsColdRecompileBitwise:
    """Solving on delta-maintained state == solving on a cold recompile."""

    @pytest.mark.parametrize("chain_id", [c for c in sorted(CHAINS) if c != "unmutated"])
    @pytest.mark.parametrize("instance_id", ["compact", "wide-groups", "tie-heavy-reviewer-coverage"])
    @pytest.mark.parametrize("spec", FAST_CRA, ids=_ids(FAST_CRA))
    def test_cra_chain_equals_cold(self, spec, instance_id, chain_id):
        mutated = apply_chain(make_instance(GRID[instance_id]), chain_id)
        cold = cold_clone(mutated)
        fast = create_solver("cra", spec.name).solve(mutated)
        reference = create_solver("cra", spec.name).solve(cold)
        assert fast.assignment == reference.assignment, (
            f"{spec.name} result depends on delta-maintained state "
            f"({instance_id!r}, chain {chain_id!r})"
        )
        assert fast.score == reference.score
        # Validity under cold semantics (not just the delta-patched view).
        cold.validate_assignment(fast.assignment, require_complete=True)

    @pytest.mark.parametrize("chain_id", [c for c in sorted(CHAINS) if c != "unmutated"])
    @pytest.mark.parametrize("spec", EXPONENTIAL_CRA, ids=_ids(EXPONENTIAL_CRA))
    def test_exponential_cra_chain_equals_cold(self, spec, chain_id):
        mutated = apply_chain(make_instance(TINY), chain_id)
        cold = cold_clone(mutated)
        fast = create_solver("cra", spec.name).solve(mutated)
        reference = create_solver("cra", spec.name).solve(cold)
        assert fast.assignment == reference.assignment
        assert fast.score == reference.score
        cold.validate_assignment(fast.assignment, require_complete=True)

    @pytest.mark.parametrize("chain_id", [c for c in sorted(CHAINS) if c != "unmutated"])
    @pytest.mark.parametrize("spec", JRA_SPECS, ids=_ids(JRA_SPECS))
    def test_jra_chain_equals_cold(self, spec, chain_id):
        mutated = apply_chain(
            make_instance(
                dict(
                    num_papers=6, num_reviewers=11, num_topics=6, group_size=3,
                    reviewer_workload=5, conflict_ratio=0.1, seed=7,
                )
            ),
            chain_id,
        )
        cold = cold_clone(mutated)
        for paper_id in (mutated.paper_ids[0], mutated.paper_ids[-1]):
            fast = create_solver("jra", spec.name).solve(mutated.to_jra(paper_id))
            reference = create_solver("jra", spec.name).solve(cold.to_jra(paper_id))
            assert fast.reviewer_ids == reference.reviewer_ids
            assert fast.score == reference.score


class TestCrossSolverAgreement:
    """All exact JRA solvers find the same optimum on every grid cell."""

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_exact_jra_solvers_agree_on_the_optimum(self, instance_id):
        problem = make_instance(GRID[instance_id])
        for paper_id in (problem.paper_ids[0], problem.paper_ids[-1]):
            jra = problem.to_jra(paper_id)
            reference = jra.group_score(
                create_solver("jra", "BFS").solve(jra).reviewer_ids
            )
            for spec in JRA_SPECS:
                result = create_solver("jra", spec.name).solve(jra)
                value = jra.group_score(result.reviewer_ids)
                # The solver's reported score must match its own group...
                assert result.score == pytest.approx(value, abs=1e-12)
                # ...and every solver claiming optimality must reach the
                # BFS optimum (CP-FIRST reports is_optimal=False by design).
                if result.is_optimal:
                    assert value == pytest.approx(reference, abs=1e-12), (
                        f"{spec.name} returned a sub-optimal group on "
                        f"{instance_id!r}/{paper_id!r}"
                    )
