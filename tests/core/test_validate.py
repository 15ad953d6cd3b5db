"""Tests for the schedule validator (the single source of truth)."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.core.errors import InvalidScheduleError
from repro.core.instance import Instance, Job
from repro.core.schedule import Placement, Schedule
from repro.core.validate import is_valid, validate_schedule
from tests.strategies import instances


@pytest.fixture
def inst():
    return Instance.from_class_sizes([[3, 2], [4]], 2)


def _schedule(inst, triples):
    by_id = {j.id: j for j in inst.jobs}
    return Schedule(
        [
            Placement(job=by_id[jid], machine=m, start=Fraction(s))
            for jid, m, s in triples
        ],
        inst.num_machines,
    )


class TestValidate:
    def test_valid_schedule(self, inst):
        sched = _schedule(inst, [(0, 0, 0), (1, 1, 3), (2, 1, 5)])
        validate_schedule(inst, sched)
        assert is_valid(inst, sched)

    def test_missing_job(self, inst):
        sched = _schedule(inst, [(0, 0, 0), (2, 1, 0)])
        with pytest.raises(InvalidScheduleError, match="not scheduled"):
            validate_schedule(inst, sched)

    def test_foreign_job(self, inst):
        sched = _schedule(inst, [(0, 0, 0), (1, 1, 3), (2, 1, 5)])
        foreign = Schedule(
            list(sched) + [Placement(Job(99, 1, 0), 0, Fraction(20))],
            inst.num_machines,
        )
        with pytest.raises(InvalidScheduleError, match="foreign"):
            validate_schedule(inst, foreign)

    def test_altered_job(self, inst):
        pls = [
            Placement(Job(0, 3, 0), 0, Fraction(0)),
            Placement(Job(1, 2, 1), 1, Fraction(3)),  # class altered!
            Placement(Job(2, 4, 1), 1, Fraction(5)),
        ]
        sched = Schedule(pls, 2)
        with pytest.raises(InvalidScheduleError, match="altered"):
            validate_schedule(inst, sched)

    def test_machine_overlap(self, inst):
        sched = _schedule(inst, [(0, 0, 0), (1, 1, 0), (2, 0, 2)])
        with pytest.raises(InvalidScheduleError, match="machine 0"):
            validate_schedule(inst, sched)

    def test_class_overlap_across_machines(self, inst):
        # jobs 0 and 1 are both class 0; concurrent on different machines.
        sched = _schedule(inst, [(0, 0, 0), (1, 1, 1), (2, 1, 4)])
        with pytest.raises(InvalidScheduleError, match="class 0"):
            validate_schedule(inst, sched)

    def test_class_sequential_ok(self, inst):
        sched = _schedule(inst, [(0, 0, 0), (1, 1, 3), (2, 0, 3)])
        validate_schedule(inst, sched)

    def test_machine_count_mismatch(self, inst):
        sched = Schedule([], 3)
        with pytest.raises(InvalidScheduleError, match="machines"):
            validate_schedule(inst, sched)

    def test_deadline_enforced(self, inst):
        sched = _schedule(inst, [(0, 0, 0), (1, 1, 3), (2, 1, 5)])
        validate_schedule(inst, sched, deadline=Fraction(9))
        with pytest.raises(InvalidScheduleError, match="deadline"):
            validate_schedule(inst, sched, deadline=Fraction(8))

    def test_is_valid_false_on_error(self, inst):
        sched = _schedule(inst, [(0, 0, 0), (1, 1, 1), (2, 1, 4)])
        assert not is_valid(inst, sched)

    def test_empty_instance_empty_schedule(self):
        inst = Instance([], 2)
        validate_schedule(inst, Schedule([], 2))

    def test_touching_class_jobs_valid(self, inst):
        # job 1 (class 0) starts exactly when job 0 (class 0) ends.
        sched = _schedule(inst, [(0, 0, 0), (1, 1, 3), (2, 0, 3)])
        validate_schedule(inst, sched)


# ---------------------------------------------------------------------- #
# Property tests against a brute-force pairwise oracle
# ---------------------------------------------------------------------- #

_PERTURBATIONS = (
    "none",
    "move",
    "machine_overlap",
    "class_overlap",
    "equal_starts",
    "touching",
    "missing",
    "foreign",
    "altered",
)


def _oracle_job_error(inst, sched):
    """The job-set message the validator must give, or ``None``."""
    placed = {pl.job.id: pl.job for pl in sched}
    wanted = {job.id: job for job in inst.jobs}
    missing = wanted.keys() - placed.keys()
    if missing:
        return f"not scheduled, e.g. id {min(missing)}"
    extra = placed.keys() - wanted.keys()
    if extra:
        return f"foreign job(s) in schedule, e.g. id {min(extra)}"
    for job in inst.jobs:
        got = placed[job.id]
        if (got.size, got.class_id) != (job.size, job.class_id):
            return f"job {job.id} was altered"
    return None


def _oracle_overlaps(sched):
    """Every overlapping pair, by brute force: ``(scope, a, b)`` with
    scope ``("machine", i)`` or ``("class", c)``."""
    found = []
    pls = list(sched)
    for i, a in enumerate(pls):
        for b in pls[i + 1:]:
            if a.start < b.end and b.start < a.end:
                if a.machine == b.machine:
                    found.append((("machine", a.machine), a, b))
                if a.job.class_id == b.job.class_id:
                    found.append((("class", a.job.class_id), a, b))
    return found


def _perturb(data, inst, sched, kind):
    """``sched``'s placements after one perturbation of kind ``kind``."""
    pls = list(sched)
    m = inst.num_machines
    if kind == "none" or not pls:
        return pls
    index = data.draw(st.integers(0, len(pls) - 1), label="index")
    victim = pls[index]
    if kind == "missing":
        del pls[index]
        return pls
    if kind == "foreign":
        job = Job(max(p.job.id for p in pls) + 1, victim.job.size, 0)
        return pls + [Placement(job, victim.machine, sched.makespan)]
    if kind == "altered":
        old = victim.job
        job = (
            Job(old.id, old.size + 1, old.class_id)
            if data.draw(st.booleans(), label="alter size")
            else Job(old.id, old.size, old.class_id + 1)
        )
        pls[index] = Placement(job, victim.machine, victim.start)
        return pls
    if kind == "move":
        machine = data.draw(st.integers(0, m - 1), label="machine")
        start = Fraction(
            data.draw(st.integers(0, 2 * int(sched.makespan) + 2)), 2
        )
        pls[index] = Placement(victim.job, machine, start)
        return pls
    # The rest move ``victim`` next to an ``anchor`` placement.
    others = [i for i in range(len(pls)) if i != index]
    if kind == "class_overlap":
        others = [
            i for i in others if pls[i].job.class_id == victim.job.class_id
        ]
    if not others:
        return pls
    anchor = pls[data.draw(st.sampled_from(others), label="anchor")]
    if kind == "machine_overlap":
        offset = Fraction(
            data.draw(st.integers(0, 2 * anchor.job.size - 1)), 2
        )
        pls[index] = Placement(
            victim.job, anchor.machine, anchor.start + offset
        )
    elif kind == "class_overlap":
        machine = data.draw(st.integers(0, m - 1), label="machine")
        offset = Fraction(
            data.draw(st.integers(0, 2 * anchor.job.size - 1)), 2
        )
        pls[index] = Placement(victim.job, machine, anchor.start + offset)
    elif kind == "equal_starts":
        machine = data.draw(st.integers(0, m - 1), label="machine")
        pls[index] = Placement(victim.job, machine, anchor.start)
    else:  # touching: start exactly where the anchor ends
        pls[index] = Placement(victim.job, anchor.machine, anchor.end)
    return pls


class TestValidateAgainstOracle:
    @given(
        inst=instances(max_machines=4, max_classes=6),
        algorithm=st.sampled_from(
            ["three_halves", "five_thirds", "list_lpt", "class_greedy"]
        ),
        kind=st.sampled_from(_PERTURBATIONS),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_pairwise_oracle(self, inst, algorithm, kind, data):
        base = solve(inst, algorithm=algorithm).schedule
        sched = Schedule(_perturb(data, inst, base, kind), inst.num_machines)
        job_error = _oracle_job_error(inst, sched)
        overlaps = _oracle_overlaps(sched)
        if job_error is None and not overlaps:
            validate_schedule(inst, sched)
            assert is_valid(inst, sched)
            return
        with pytest.raises(InvalidScheduleError) as info:
            validate_schedule(inst, sched)
        assert not is_valid(inst, sched)
        message = str(info.value)
        if job_error is not None:
            assert job_error in message
            return
        # Machines first, in machine order, then classes in instance
        # order; the named pair is one the oracle found in that scope.
        machines = sorted(s[1] for s, _, _ in overlaps if s[0] == "machine")
        classes = {s[1] for s, _, _ in overlaps if s[0] == "class"}
        if machines:
            scope = ("machine", machines[0])
        else:
            scope = ("class", next(c for c in inst.classes if c in classes))
        assert message.startswith(f"{scope[0]} {scope[1]}: job ")
        first, second = map(
            int, re.match(r".*?job (\d+) .* overlaps job (\d+) ", message)
            .groups()
        )
        pairs = {
            frozenset((a.job.id, b.job.id))
            for s, a, b in overlaps
            if s == scope
        }
        assert frozenset((first, second)) in pairs

    @given(
        inst=instances(max_machines=4, max_classes=6),
        kind=st.sampled_from(("none", "move", "equal_starts", "touching")),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lazy_views_equal_a_plain_sort(self, inst, kind, data):
        base = solve(inst, algorithm="list_lpt").schedule
        sched = Schedule(_perturb(data, inst, base, kind), inst.num_machines)

        def by_start(pls):
            return tuple(sorted(pls, key=lambda pl: (pl.start, pl.job.id)))

        den = sched.denominator
        for machine in range(inst.num_machines):
            want = by_start(pl for pl in sched if pl.machine == machine)
            assert sched.machine_placements(machine) == want
            assert sched.machine_intervals(machine) == tuple(
                (pl.start_ticks(den), pl.start_ticks(den) + pl.job.size * den)
                for pl in want
            )
        for cid in inst.classes:
            want = by_start(pl for pl in sched if pl.job.class_id == cid)
            assert sched.class_placements(cid) == want
            assert sched.class_intervals(cid) == tuple(
                (pl.start_ticks(den), pl.start_ticks(den) + pl.job.size * den)
                for pl in want
            )
        assert sched.machines_used() == sorted({pl.machine for pl in sched})
        assert sched.tick_rows() == [
            (
                pl.start_ticks(den),
                pl.job.id,
                pl.start_ticks(den) + pl.job.size * den,
                pl.machine,
                pl.job.class_id,
            )
            for pl in by_start(sched)
        ]
