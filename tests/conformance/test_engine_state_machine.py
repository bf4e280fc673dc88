"""Generated interleavings over :class:`AssignmentEngine`, against a cold engine.

Berkholz et al. (PAPERS.md, FO+MOD queries under updates) state the
invariant this file checks: after every update, every answer equals an
evaluation on the current database.  Hypothesis drives one engine through
a random interleaving of late papers, withdrawals (infeasible ones roll
back), conflict edits on the live container (single ones, and several in
one step before a late paper), bid updates, solves, journal queries and
evaluations on a tiny instance (R <= 8, delta_p <= 3).  A checkpoint rule
writes the engine through a journal the machine keeps across steps,
checks the file byte for byte against ``json.dumps`` of its body and the
engine rebuilt from the file against the live snapshot, then carries on
with the live engine or, as drawn, the rebuilt one (snapshot -> restore).

Every journal and evaluate answer must equal the answer of a cold engine
over the same state, bitwise, errors included.  The cold engine is built
from the entities (``cold_clone``) with the same assignment, bids and last
solver, so it shares none of the warm engine's sub-problems, stored
answers or evaluate summary.  After every step, each journal question
asked so far is asked again and checked the same way, which is where a
stale stored answer would show; so is each ``evaluate`` flag combination
asked so far.  Only ``cache_hit`` and timings are excluded.

Tier-1 runs a modest number of examples.  CI runs the deeper
``engine-deep`` profile registered in ``tests/conftest.py``
(``--hypothesis-profile engine-deep``).
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.problem import WGRAPProblem
from repro.core.scoring import available_scoring_functions
from repro.data.io import engine_snapshot_from_dict
from repro.data.synthetic import make_problem
from repro.durability import (
    CHECKPOINT_VERSION,
    DurabilityConfig,
    TenantJournal,
    read_checkpoint,
)
from repro.exceptions import InfeasibleProblemError, ReproError
from repro.extensions.bidding import BidMatrix
from repro.metrics.quality import optimality_ratio
from repro.service.engine import AssignmentEngine
from tests.conformance import cold_clone, late_paper

#: The tier-1 depth; ``--hypothesis-profile engine-deep`` replaces it.
TIER1 = settings(
    max_examples=40,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw: Callable[..., Any]) -> dict:
    """``make_problem`` arguments of a tiny feasible instance."""
    reviewers = draw(st.integers(4, 8))
    group_size = draw(st.integers(1, min(3, reviewers - 2)))
    papers = draw(st.integers(2, 7))
    minimal = math.ceil(papers * group_size / reviewers)
    return dict(
        num_papers=papers,
        num_reviewers=reviewers,
        num_topics=draw(st.integers(3, 6)),
        group_size=group_size,
        reviewer_workload=draw(st.integers(minimal, minimal + 3)),
        conflict_ratio=draw(st.sampled_from([0.0, 0.1])),
        seed=draw(st.integers(0, 2**16)),
        scoring=draw(st.sampled_from(available_scoring_functions())),
    )


def outcome(call: Callable[[], Any]) -> str:
    """The answer as canonical JSON (``repr`` floats: bitwise), or the error."""
    try:
        answer = call()
    except Exception as exc:  # noqa: BLE001 — errors must match too
        return f"{type(exc).__name__}: {exc}"
    if not isinstance(answer, dict):
        answer = answer.to_payload()
        del answer["cache_hit"], answer["elapsed_seconds"]
    return json.dumps(answer)


def journal_call(engine: AssignmentEngine, question: dict) -> Callable[[], Any]:
    paper = question["paper"]
    if paper == "inline":
        paper = late_paper(engine.problem, "inline-visitor")
    arguments = {key: value for key, value in question.items() if key != "paper"}
    return lambda: engine.journal_query(paper, **arguments)


class EngineMachine(RuleBasedStateMachine):
    """One warm engine under generated requests, checked against cold engines."""

    def __init__(self) -> None:
        super().__init__()
        self.engine: AssignmentEngine | None = None
        self.asked: list[dict] = []
        self.evaluated: list[dict] = []
        self.late = 0
        self.root = Path(tempfile.mkdtemp(prefix="engine-machine-"))
        self.journal = TenantJournal(DurabilityConfig(root=self.root), "machine")

    def teardown(self) -> None:
        self.journal.close()
        shutil.rmtree(self.root, ignore_errors=True)

    @property
    def problem(self) -> WGRAPProblem:
        return self.engine.problem

    def cold(self) -> AssignmentEngine:
        bids = BidMatrix({(r, p): value for r, p, value in self.engine.bids.pairs()})
        engine = AssignmentEngine(
            cold_clone(self.problem), assignment=self.engine.assignment, bids=bids
        )
        engine._last_solver = self.engine.last_solver
        return engine

    def answer_members(self, paper_id: str | None = None) -> list[str]:
        """Reviewers in the current answers to the questions asked so far
        (about ``paper_id`` only, if given), read from a cold engine.

        Conflicts and withdrawals drawn from them hit a stored answer,
        where a stale one would show."""
        cold = self.cold()
        questions = self.asked
        if paper_id is not None:
            questions = [question for question in questions if question["paper"] == paper_id]
        members: set[str] = set()
        for question in questions:
            try:
                answer = journal_call(cold, question)()
            except ReproError:  # an asked question may have no answer now
                continue
            for group in answer.groups:
                members.update(group.reviewer_ids)
        return sorted(members)

    def check(self, call: Callable[[AssignmentEngine], Callable[[], Any]]) -> str:
        warm = outcome(call(self.engine))
        cold = outcome(call(self.cold()))
        assert warm == cold
        return warm

    # -- set-up and mutations ---------------------------------------------
    @initialize(spec=instances())
    def build(self, spec: dict) -> None:
        try:
            problem = make_problem(**spec)
        except InfeasibleProblemError:  # conflicts can leave a paper short
            assume(False)
        self.engine = AssignmentEngine(problem)
        self.journal.initialise(self.engine)

    @rule(solver=st.sampled_from(["Greedy", "SDGA"]))
    def solve(self, solver: str) -> None:
        outcome(lambda: self.engine.solve(solver).assignment.to_dict())

    @rule(raise_workload=st.booleans())
    def add_paper(self, raise_workload: bool) -> None:
        self.late += 1
        paper = late_paper(self.problem, f"late-{self.late}")
        workload = self.problem.reviewer_workload + 1 if raise_workload else None
        outcome(lambda: self.engine.add_paper(paper, reviewer_workload=workload).to_payload())

    @rule(data=st.data())
    def withdraw_reviewer(self, data: st.DataObject) -> None:
        if self.problem.num_reviewers <= self.problem.group_size + 1:
            return
        reviewers = [*self.answer_members(), *self.problem.reviewer_ids]
        reviewer_id = data.draw(st.sampled_from(reviewers))
        outcome(lambda: self.engine.withdraw_reviewer(reviewer_id).to_payload())

    @rule(data=st.data())
    def add_conflict(self, data: st.DataObject) -> None:
        asked = [question["paper"] for question in self.asked if question["paper"] != "inline"]
        paper_id = data.draw(st.sampled_from([*asked, *self.problem.paper_ids]))
        reviewers = [*self.answer_members(paper_id), *self.problem.reviewer_ids]
        reviewer_id = data.draw(st.sampled_from(reviewers))
        self.problem.conflicts.add(reviewer_id, paper_id)

    @rule(data=st.data())
    def discard_conflict(self, data: st.DataObject) -> None:
        pairs = sorted(self.problem.conflicts)
        if pairs:
            self.problem.conflicts.discard(*data.draw(st.sampled_from(pairs)))

    @rule(data=st.data(), edits=st.integers(2, 4), then_add_paper=st.booleans())
    def several_conflict_edits(
        self, data: st.DataObject, edits: int, then_add_paper: bool
    ) -> None:
        """Conflict edits with no query between them, then perhaps a late paper.

        The invariant queries after every step, which re-syncs the journal
        cache with the live conflict version; only edits made within one
        step reach a late paper unqueried, so only this rule checks that
        the late paper's problem, which shares the conflict set, sees them.
        """
        for _ in range(edits):
            if data.draw(st.booleans()):
                self.add_conflict(data)
            else:
                self.discard_conflict(data)
        if then_add_paper:
            self.add_paper(data.draw(st.booleans()))

    @rule(data=st.data())
    def update_bids(self, data: st.DataObject) -> None:
        bids = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(self.problem.reviewer_ids),
                    st.sampled_from(self.problem.paper_ids),
                    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                ),
                min_size=1,
                max_size=3,
            )
        )
        self.engine.update_bids(bids)

    @rule(rebuild=st.booleans())
    def checkpoint(self, rebuild: bool) -> None:
        """Checkpoint through the kept journal; restore the file beside it.

        Going on with the live engine keeps its warm caches and makes the
        next checkpoint reuse the kept texts; ``rebuild`` goes on with the
        engine restored from the file instead.
        """
        self.journal.checkpoint(self.engine)
        snapshot = self.engine.to_snapshot()
        expected = {
            "format_version": CHECKPOINT_VERSION,
            "tenant": self.journal.tenant_id,
            "last_seq": self.journal.last_seq,
            "applied": [],
            "snapshot": snapshot,
        }
        text = self.journal.checkpoint_path.read_text(encoding="utf-8")
        assert text == json.dumps(expected)
        written = read_checkpoint(self.journal.directory)["snapshot"]
        restored = AssignmentEngine.from_snapshot(engine_snapshot_from_dict(written))
        # json.dumps, not ==: a -0.0 bid equals 0.0 but must come back as -0.0.
        assert json.dumps(restored.to_snapshot()) == json.dumps(snapshot)
        if rebuild:
            self.engine = restored

    # -- queries ------------------------------------------------------------
    @rule(data=st.data())
    def journal(self, data: st.DataObject) -> None:
        size = self.problem.group_size
        question = {
            "paper": data.draw(st.sampled_from([*self.problem.paper_ids, "inline"])),
            "top_k": data.draw(st.integers(1, 3)),
            "pool_size": data.draw(st.none() | st.integers(size, size + 3)),
            "group_size": data.draw(st.none() | st.integers(1, size + 1)),
        }
        self.check(lambda engine: journal_call(engine, question))
        if question not in self.asked:
            self.asked.append(question)

    @rule(include_ratio=st.booleans(), include_per_paper=st.booleans())
    def evaluate(self, include_ratio: bool, include_per_paper: bool) -> None:
        flags = {"include_ratio": include_ratio, "include_per_paper": include_per_paper}
        answer = self.check(lambda engine: lambda: engine.evaluate(**flags))
        if include_ratio and self.engine.assignment is not None:
            try:  # the library's ideal_assignment path, the reference
                expected = optimality_ratio(cold_clone(self.problem), self.engine.assignment)
            except ReproError as exc:
                assert answer == f"{type(exc).__name__}: {exc}"
            else:
                assert json.loads(answer)["optimality_ratio"] == expected
        if flags not in self.evaluated:
            self.evaluated.append(flags)

    @invariant()
    def every_question_asked_so_far_still_agrees(self) -> None:
        cold = self.cold()
        for question in self.asked:  # papers are never removed
            warm = outcome(journal_call(self.engine, question))
            assert warm == outcome(journal_call(cold, question))
        for flags in self.evaluated:
            assert outcome(lambda: self.engine.evaluate(**flags)) == outcome(
                lambda: cold.evaluate(**flags)
            )


EngineMachine.TestCase.settings = (
    settings.default if settings.get_current_profile_name() == "engine-deep" else TIER1
)
TestEngineAgreesWithAColdEngine = EngineMachine.TestCase
