"""Discrete-time simulator of two-step scheduling with partial channel state.

Slot dynamics: the policy first picks an observable subset knowing only the
queue vector and slot index; only then is the channel revealed, as the
sub-state of the chosen subset; the policy then schedules one user in the
subset, which removes ``min(queue + arrivals, rate)`` packets.  Queues
evolve as ``Q_i(k+1) = max(Q_i(k) + A_i(k) - D_i(k) R_i(k), 0)``, with
same-slot arrivals servable; the scheduled user always serves to capacity.

The simulator keeps the full set of counting processes (cumulative
arrivals and services, subset-choice counts, per-sub-state observation
counts, per-user scheduling counts within each observed sub-state, and
sampled-rate partial sums) so that every accounting identity can be
audited after any step, plus the per-subset sampled trace from which a
deterministic policy's path can be replayed exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .channels import JointChannelDistribution, SubsetSystem, SubStateDistribution

_ARRIVAL_PATTERN_CAP = 4096
_RNG_BLOCK = 8192


class PolicyViolationError(RuntimeError):
    """A policy chose a subset outside the system or a user outside the subset."""


class InvariantViolation(AssertionError):
    """A counting-process identity failed after a step."""


class Policy:
    """Behavioral contract for scheduling policies.

    ``choose_subset`` runs before the current slot's channel state exists;
    the simulator draws the sub-state only after it returns, so no policy
    can peek.  ``choose_user`` sees the revealed sub-state of the chosen
    subset.  Both see the current queue vector only (plus the slot index).
    """

    def choose_subset(self, q: Sequence[int], k: int) -> int:
        raise NotImplementedError

    def choose_user(self, subset_id: int, rates: Sequence[int], q: Sequence[int]) -> int:
        raise NotImplementedError

    # Lockstep forms for ``Simulator.run_hitting``: one decision per row of the
    # ``(B, n)`` queue array, rows in order.  The defaults call the scalar rules
    # row by row; the built-in policies override them with numpy rules that
    # decide exactly as the scalar ones do.

    def choose_subsets(self, q: np.ndarray, k: int) -> np.ndarray:
        return np.array([self.choose_subset(row, k) for row in q.tolist()], dtype=np.int64)

    def choose_users(self, subset_ids: np.ndarray, rates: np.ndarray, q: np.ndarray) -> np.ndarray:
        """``rates[b]`` is row b's revealed sub-state, padded with -1 past its subset's size."""
        return np.array([
            self.choose_user(a, tuple(r for r in row if r >= 0), qrow)
            for a, row, qrow in zip(subset_ids.tolist(), rates.tolist(), q.tolist())
        ], dtype=np.int64)


@dataclass(frozen=True)
class ArrivalSpec:
    """Deterministic arrivals with exact rational per-slot rates.

    Fractional rates are realized by the integer schedule
    ``A_i(k) = floor((k+1) rate_i) - floor(k rate_i)``, whose running
    average is exactly ``rate_i``; cumulative arrivals by slot k are
    ``floor(k rate_i)`` in exact integer arithmetic.
    """

    rates: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(r < 0 for r in self.rates):
            raise ValueError("negative arrival rate")

    @classmethod
    def from_values(cls, values: Iterable[object]) -> "ArrivalSpec":
        rates = []
        for v in values:
            if isinstance(v, Fraction):
                rates.append(v)
            elif isinstance(v, int):
                rates.append(Fraction(v))
            elif isinstance(v, float):
                # str() round-trips decimal literals (0.4 -> 2/5) instead of
                # the binary expansion, keeping the schedule period sane
                rates.append(Fraction(str(v)))
            else:
                rates.append(Fraction(str(v)))
        return cls(rates=tuple(rates))

    @property
    def num_users(self) -> int:
        return len(self.rates)

    def floats(self) -> tuple[float, ...]:
        return tuple(float(r) for r in self.rates)

    @cached_property
    def period(self) -> int:
        out = 1
        for r in self.rates:
            out = out * r.denominator // math.gcd(out, r.denominator)
        return out

    def increments(self, k: int) -> tuple[int, ...]:
        return tuple(
            ((k + 1) * r.numerator) // r.denominator - (k * r.numerator) // r.denominator
            for r in self.rates
        )

    def cumulative(self, k: int) -> tuple[int, ...]:
        return tuple((k * r.numerator) // r.denominator for r in self.rates)

    @cached_property
    def _pattern(self) -> list[tuple[int, ...]] | None:
        if self.period > _ARRIVAL_PATTERN_CAP:
            return None
        return [self.increments(k) for k in range(self.period)]


@dataclass(frozen=True)
class SystemModel:
    """One experiment's channel law, observable subsets, and arrivals."""

    dist: JointChannelDistribution
    subsets: SubsetSystem
    arrivals: ArrivalSpec

    def __post_init__(self) -> None:
        n = self.dist.num_users
        if self.subsets.num_users != n or self.arrivals.num_users != n:
            raise ValueError("num_users mismatch between channels, subsets and arrivals")
        self.subsets.check_covers(i for i, r in enumerate(self.arrivals.rates) if r > 0)

    @property
    def num_users(self) -> int:
        return self.dist.num_users


@dataclass
class SystemState:
    """Queue vector plus all counting processes, after ``k`` slots.

    Identities maintained by ``Simulator.step`` (audited by
    ``check_invariants``): subset-choice counts sum to k; per-subset
    sub-state counts sum to that subset's choice count; per-sub-state
    scheduling counts sum to the sub-state count; ``q = q0 + f - fhat``
    stays componentwise nonnegative; total service never exceeds total
    sampled rate.
    """

    k: int
    q: list[int]
    q0: tuple[int, ...]
    f: list[int]  # cumulative arrivals per user
    fhat: list[int]  # cumulative served packets per user
    c: list[int]  # per-subset choice counts
    g: list[list[int]]  # per-subset, per-sub-state observation counts
    ghat: list[list[list[int]]]  # ... further split by scheduled member
    m: list[int]  # per-user partial sums of sampled rates


@dataclass
class SampledTrace:
    """Per-subset ordered sub-state observations, plus flat per-slot rows.

    ``per_subset[a][j]`` is the sub-state index seen the j-th time subset
    ``a`` was picked.  ``rows`` holds (slot, subset, substate, user) for
    CSV dumps and replay tests.
    """

    per_subset: list[list[int]]
    rows: list[tuple[int, int, int, int]] = field(default_factory=list)

    def record(self, k: int, subset_id: int, substate_id: int, user: int) -> None:
        self.per_subset[subset_id].append(substate_id)
        self.rows.append((k, subset_id, substate_id, user))

    def total_slots(self) -> int:
        return sum(len(v) for v in self.per_subset)


@dataclass
class RunResult:
    """Streaming summary of one run (full history only if requested)."""

    state: SystemState
    peak: int
    horizon: int
    first_hit: dict[int, int | None]
    exceed_counts: dict[int, int]
    samples: int
    sample_stride: int
    burn_in_slots: int
    trace: SampledTrace | None = None
    path: np.ndarray | None = None


class _UniformStream:
    """Block-buffered uniforms so the hot loop avoids per-slot generator calls."""

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = rng.random(_RNG_BLOCK)
        self._pos = 0

    def next(self) -> float:
        pos = self._pos
        if pos == _RNG_BLOCK:
            self._buf = self._rng.random(_RNG_BLOCK)
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms, the same ones ``count`` calls of ``next`` give."""
        out = np.empty(count)
        filled = 0
        while filled < count:
            if self._pos == _RNG_BLOCK:
                self._buf = self._rng.random(_RNG_BLOCK)
                self._pos = 0
            t = min(count - filled, _RNG_BLOCK - self._pos)
            out[filled:filled + t] = self._buf[self._pos:self._pos + t]
            self._pos += t
            filled += t
        return out


class _SubstateDraws(_UniformStream):
    """Sub-state indices by inverse CDF on the block-buffered uniforms.

    ``cums[a]`` is subset ``a``'s cumulative table, ending at exactly 1.0,
    so a uniform in [0, 1) always lands on a sub-state.  The buffer step is
    inlined: one Python call per slot.
    """

    __slots__ = ("_cums",)

    def __init__(self, rng: np.random.Generator, cums: list[list[float]]):
        super().__init__(rng)
        self._cums = cums

    def draw(self, a: int) -> int:
        pos = self._pos
        if pos == _RNG_BLOCK:
            self._buf = self._rng.random(_RNG_BLOCK)
            pos = 0
        self._pos = pos + 1
        return bisect_right(self._cums[a], self._buf[pos])


class _RecordedDraws:
    """Sub-state indices read back from a recorded trace, in order per subset."""

    __slots__ = ("_lists", "_cursors")

    def __init__(self, trace: SampledTrace):
        self._lists = trace.per_subset
        self._cursors = [0] * len(trace.per_subset)

    def draw(self, a: int) -> int:
        j = self._cursors[a]
        if j >= len(self._lists[a]):
            raise ValueError(f"trace exhausted for subset {a} after {j} draws: "
                             "policy disagrees with the recording")
        self._cursors[a] = j + 1
        return self._lists[a][j]


def _padded(rows: Sequence[Sequence[float]], width: int, fill: float) -> np.ndarray:
    out = np.full((len(rows), width), fill)
    for j, row in enumerate(rows):
        out[j, :len(row)] = row
    return out


def rng_from_seed(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic stream: PCG64 keyed on (seed, *stream tags).

    Replica r of an experiment uses ``rng_from_seed(master_seed, tag, r)``;
    streams with distinct keys are independent, and the mapping does not
    depend on how many streams exist or the order they are created in.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, stream)])))


class Simulator:
    """Precomputed tables plus the single-slot transition for one model."""

    def __init__(self, model: SystemModel):
        self.model = model
        self.n = model.num_users
        self.members: tuple[tuple[int, ...], ...] = model.subsets.subsets
        self.member_pos: list[dict[int, int]] = [
            {u: pos for pos, u in enumerate(a)} for a in self.members
        ]
        self.sub_dists: list[SubStateDistribution] = [
            model.dist.substate_marginal(a) for a in self.members
        ]
        self.sub_states: list[tuple[tuple[int, ...], ...]] = [d.substates for d in self.sub_dists]
        self.sub_cum: list[list[float]] = []
        self.sub_logp: list[np.ndarray] = []
        for d in self.sub_dists:
            cum = np.cumsum(np.asarray(d.probs))
            cum[-1] = 1.0
            self.sub_cum.append(list(cum))
            self.sub_logp.append(np.log(np.maximum(np.asarray(d.probs), 1e-300)))
        self.arrival_pattern = model.arrivals._pattern
        self.arrival_period = model.arrivals.period
        self._sub_sizes = [len(s) for s in self.sub_states]

    def initial_state(self, q0: Sequence[int] | None = None) -> SystemState:
        """Fresh SystemState from the precomputed tables (cheap per replica)."""
        n = self.n
        start = [0] * n if q0 is None else [int(v) for v in q0]
        if len(start) != n or any(v < 0 for v in start):
            raise ValueError("initial queue vector must be nonnegative of length num_users")
        return SystemState(
            k=0,
            q=list(start),
            q0=tuple(start),
            f=[0] * n,
            fhat=[0] * n,
            c=[0] * len(self.members),
            g=[[0] * sz for sz in self._sub_sizes],
            ghat=[[[0] * len(a) for _ in range(sz)] for a, sz in zip(self.members, self._sub_sizes)],
            m=[0] * n,
        )

    def _arrivals_at(self, k: int) -> tuple[int, ...]:
        if self.arrival_pattern is not None:
            return self.arrival_pattern[k % self.arrival_period]
        return self.model.arrivals.increments(k)

    def _step_core(
        self,
        state: SystemState,
        policy: Policy,
        draws: _SubstateDraws | _RecordedDraws,
    ) -> tuple[int, int, int, int]:
        """Advance one slot; returns (subset, substate, user, served).

        ``draws.draw(a)`` gives the sub-state index of subset ``a``: sampled
        (``_SubstateDraws``) or read back from a recording (``_RecordedDraws``).
        """
        k = state.k
        q = state.q
        a = policy.choose_subset(q, k)
        if not 0 <= a < len(self.members):
            raise PolicyViolationError(f"policy chose subset id {a} outside the system")
        # channel state is drawn only now: choose_subset cannot have seen it
        rid = draws.draw(a)
        rates = self.sub_states[a][rid]
        i = policy.choose_user(a, rates, q)
        pos = self.member_pos[a].get(i)
        if pos is None:
            raise PolicyViolationError(f"policy scheduled user {i} outside subset {self.members[a]}")
        arr = self._arrivals_at(k)
        f = state.f
        for u in range(self.n):
            au = arr[u]
            if au:
                q[u] += au
                f[u] += au
        r = rates[pos]
        avail = q[i]
        served = avail if avail < r else r
        q[i] = avail - served
        state.fhat[i] += served
        state.c[a] += 1
        state.g[a][rid] += 1
        state.ghat[a][rid][pos] += 1
        m = state.m
        members_a = self.members[a]
        for pos2 in range(len(members_a)):
            m[members_a[pos2]] += rates[pos2]
        state.k = k + 1
        return a, rid, i, served

    def step(
        self,
        state: SystemState,
        policy: Policy,
        rng: np.random.Generator,
        trace: SampledTrace | None = None,
    ) -> SystemState:
        """One slot of the dynamics (mutates and returns ``state``)."""
        k = state.k
        a, rid, i, _ = self._step_core(state, policy, _SubstateDraws(rng, self.sub_cum))
        if trace is not None:
            trace.record(k, a, rid, i)
        return state

    def new_trace(self) -> SampledTrace:
        return SampledTrace(per_subset=[[] for _ in self.members])

    def run(
        self,
        policy: Policy,
        horizon: int,
        rng: np.random.Generator,
        levels: Sequence[int] = (),
        q0: Sequence[int] | None = None,
        sample_stride: int | None = None,
        burn_in_frac: float = 0.2,
        record_trace: bool = False,
        record_path: bool = False,
        check_every: int = 0,
    ) -> RunResult:
        """Run ``horizon`` slots; stream peak/level summaries.

        Sampling epochs approximate the stationary law: every
        ``sample_stride`` slots (default ``ceil(horizon/1000)``) after a
        burn-in of ``burn_in_frac * horizon`` slots.  First-hit slots are
        tracked exactly for each level.  Deterministic given the rng state.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        per_slot = max(self.model.dist.max_rate, *(
            r.numerator // r.denominator + 1 for r in self.model.arrivals.rates
        ))
        if horizon * (per_slot + 1) > 2**62:
            raise ValueError("horizon would overflow 64-bit counters")
        stride = sample_stride if sample_stride else max(1, math.ceil(horizon / 1000))
        burn_in = int(burn_in_frac * horizon)
        state = self.initial_state(q0)
        draws = _SubstateDraws(rng, self.sub_cum)
        trace = self.new_trace() if record_trace else None
        path = np.zeros((horizon + 1, self.n), dtype=np.int64) if record_path else None
        if path is not None:
            path[0] = state.q
        lvl = sorted({int(v) for v in levels})
        pending = list(lvl)
        first_hit: dict[int, int | None] = {v: None for v in lvl}
        exceed = {v: 0 for v in lvl}
        samples = 0
        peak = max(state.q)
        while pending and peak >= pending[0]:
            first_hit[pending.pop(0)] = 0
        step_core = self._step_core
        q = state.q
        for k in range(horizon):
            a, rid, i, _ = step_core(state, policy, draws)
            if trace is not None:
                trace.record(k, a, rid, i)
            qmax = max(q)
            if qmax > peak:
                peak = qmax
                while pending and peak >= pending[0]:
                    first_hit[pending.pop(0)] = k + 1
            s = k + 1
            if s >= burn_in and (s - burn_in) % stride == 0:
                samples += 1
                for v in lvl:
                    if qmax >= v:
                        exceed[v] += 1
            if path is not None:
                path[s] = q
            if check_every and s % check_every == 0:
                check_invariants(self, state)
        return RunResult(
            state=state,
            peak=peak,
            horizon=horizon,
            first_hit=first_hit,
            exceed_counts=exceed,
            samples=samples,
            sample_stride=stride,
            burn_in_slots=burn_in,
            trace=trace,
            path=path,
        )

    def tilted_tables(
        self, proposals: Sequence[Sequence[float] | None]
    ) -> tuple[list[list[float]], list[np.ndarray]]:
        """Sampling tables and per-draw log-likelihood-ratio tables.

        ``proposals[a]`` replaces subset ``a``'s sub-state law for the
        draw; ``None`` keeps the natural law (zero log-ratio).  The
        log-ratio is ``log p_natural(r) - log p_proposal(r)``, accumulated
        only for the sub-states actually drawn.
        """
        cums: list[list[float]] = []
        logw: list[np.ndarray] = []
        for a, prop in enumerate(proposals):
            if prop is None:
                cums.append(self.sub_cum[a])
                logw.append(np.zeros(len(self.sub_states[a])))
                continue
            p = np.asarray([float(v) for v in prop])
            if len(p) != len(self.sub_states[a]):
                raise ValueError(f"proposal for subset {a} has wrong dimension")
            if abs(float(p.sum()) - 1.0) > 1e-9 or np.any(p < 0):
                raise ValueError(f"proposal for subset {a} is not a distribution")
            natural = np.asarray(self.sub_dists[a].probs)
            if np.any((p <= 0) & (natural > 0)):
                raise ValueError(f"proposal for subset {a} must dominate the natural law")
            cum = np.cumsum(p)
            cum[-1] = 1.0
            cums.append(list(cum))
            logw.append(self.sub_logp[a] - np.log(np.maximum(p, 1e-300)))
        return cums, logw

    @cached_property
    def _first_arrival_slot(self) -> int:
        period = self.arrival_period
        for k in range(period):
            if any(self._arrivals_at(k)):
                return k
        return period  # no arrivals at all: attempts end after one period

    @cached_property
    def _lockstep_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded (subset, sub-state, position) rates, -1 past a subset's size;
        (subset, user) positions, -1 for non-members."""
        m, width = len(self.members), max(len(a) for a in self.members)
        rate_tab = np.full((m, max(self._sub_sizes), width), -1, dtype=np.int64)
        user_pos = np.full((m, self.n), -1, dtype=np.int64)
        for a, (members, states) in enumerate(zip(self.members, self.sub_states)):
            user_pos[a, list(members)] = range(len(members))
            rate_tab[a, :len(states), :len(members)] = states
        return rate_tab, user_pos

    def run_hitting(
        self,
        policy: Policy,
        level: int,
        rng: np.random.Generator,
        tables: tuple[list[list[float]], list[np.ndarray]] | None = None,
        horizon: int | None = None,
        max_slots: int = 10**7,
        attempts: int = 1,
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """``attempts`` independent overflow attempts from the all-empty state, in lockstep.

        An attempt runs until the longest queue reaches ``level`` (hit), until
        the first all-empty slot once arrivals have begun (the deterministic
        empty stretch before the first arrival is skipped, otherwise the
        stopping state could be unreachable), or for ``horizon`` slots when
        given.  ``tables`` is ``tilted_tables``' output for the proposal laws
        (build it once per batch), or ``None`` for the natural law.

        All attempts share the slot index, so one arrival vector serves every
        row.  Each slot draws one uniform per active row, in row order, and
        finished rows retire in order; a single attempt therefore draws exactly
        the uniforms of a slot-by-slot ``_step_core`` run.  Policies decide
        through ``choose_subsets``/``choose_users``; the slot dynamics are
        ``_step_core``'s, without its counting processes.

        Returns (hits, log_weights, slots, truncated): per-attempt hit flags
        and log importance weights of the drawn sub-states under the natural
        law relative to the proposals, accumulated up to each stopping slot;
        the slots simulated over the batch; and the number of attempts
        without a ``horizon`` that ``max_slots`` cut off before they hit or
        ended.
        """
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        if horizon is not None and horizon < 1:
            raise ValueError("horizon must be >= 1")
        cums, logw = (self.sub_cum, None) if tables is None else tables
        rate_tab, user_pos = self._lockstep_tables
        m, depth = rate_tab.shape[:2]
        # a uniform in [0, 1) never reaches the padding
        cum_tab = _padded(cums, depth, 2.0)
        logw_tab = None if logw is None else _padded(logw, depth, 0.0)
        limit = horizon if horizon is not None else max_slots
        empty_from = self._first_arrival_slot if horizon is None else limit
        hits = np.zeros(attempts, dtype=bool)
        log_weights = np.zeros(attempts)
        live = np.arange(attempts)  # each active row's attempt index
        rows = np.arange(attempts)
        q = np.zeros((attempts, self.n), dtype=np.int64)
        lw = np.zeros(attempts)
        slots = 0
        for k in range(limit):
            a = policy.choose_subsets(q, k)
            if a.min() < 0 or a.max() >= m:
                bad = a[(a < 0) | (a >= m)][0]
                raise PolicyViolationError(f"policy chose subset id {bad} outside the system")
            # channel state is drawn only now: choose_subsets cannot have seen it
            rid = (cum_tab[a] <= rng.random(len(live))[:, None]).sum(axis=1)
            rates = rate_tab[a, rid]
            users = policy.choose_users(a, rates, q)
            if users.min() < 0 or users.max() >= self.n or user_pos[a, users].min() < 0:
                b = next(b for b, (ab, u) in enumerate(zip(a.tolist(), users.tolist()))
                         if u not in self.member_pos[ab])
                raise PolicyViolationError(
                    f"policy scheduled user {users[b]} outside subset {self.members[a[b]]}"
                )
            pos = user_pos[a, users]
            q += self._arrivals_at(k)
            served = np.minimum(q[rows, users], rates[rows, pos])
            q[rows, users] -= served
            if logw_tab is not None:
                lw += logw_tab[a, rid]
            top = q.max(axis=1)
            hit = top >= level
            done = hit | (top == 0) if k >= empty_from else hit
            if done.any():
                ended = live[done]
                hits[ended] = hit[done]
                log_weights[ended] = lw[done]
                slots += (k + 1) * len(ended)
                keep = ~done
                live, q, lw = live[keep], q[keep], lw[keep]
                if not len(live):
                    return hits, log_weights, slots, 0
                rows = rows[:len(live)]
        log_weights[live] = lw
        slots += limit * len(live)
        return hits, log_weights, slots, len(live) if horizon is None else 0

    def replay(
        self,
        trace: SampledTrace,
        policy: Policy,
        q0: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Re-run a deterministic policy against a recorded trace.

        Consumes each subset's sub-state list in order; the returned queue
        path must match the original run exactly (and does, for any
        deterministic policy: the sampled trace uniquely determines the
        whole sample path together with the deterministic arrivals).
        """
        horizon = trace.total_slots()
        state = self.initial_state(q0)
        draws = _RecordedDraws(trace)
        path = np.zeros((horizon + 1, self.n), dtype=np.int64)
        path[0] = state.q
        for k in range(horizon):
            self._step_core(state, policy, draws)
            path[k + 1] = state.q
        return path


def check_invariants(sim: Simulator, state: SystemState) -> None:
    """Audit every counting identity; raises InvariantViolation on failure."""
    k = state.k
    if sum(state.c) != k:
        raise InvariantViolation(f"subset choice counts sum to {sum(state.c)}, expected {k}")
    for a, ga in enumerate(state.g):
        if sum(ga) != state.c[a]:
            raise InvariantViolation(f"subset {a}: sub-state counts sum to {sum(ga)}, "
                                     f"expected {state.c[a]}")
        for rid, row in enumerate(state.ghat[a]):
            if sum(row) != ga[rid]:
                raise InvariantViolation(f"subset {a} sub-state {rid}: scheduling counts "
                                         f"sum to {sum(row)}, expected {ga[rid]}")
    cum = sim.model.arrivals.cumulative(k)
    for u in range(sim.n):
        if state.f[u] != cum[u]:
            raise InvariantViolation(f"user {u}: cumulative arrivals {state.f[u]} != {cum[u]}")
        expected_q = state.q0[u] + state.f[u] - state.fhat[u]
        if state.q[u] != expected_q or state.q[u] < 0:
            raise InvariantViolation(f"user {u}: queue {state.q[u]} != q0 + arrivals - served "
                                     f"= {expected_q} (or negative)")
        if state.fhat[u] > state.f[u] + state.q0[u]:
            raise InvariantViolation(f"user {u}: served {state.fhat[u]} exceeds available packets")
    for u in range(sim.n):
        cap = 0
        for a, members in enumerate(sim.members):
            if u not in sim.member_pos[a]:
                continue
            pos = sim.member_pos[a][u]
            for rid, row in enumerate(state.ghat[a]):
                cap += row[pos] * sim.sub_states[a][rid][pos]
        if state.fhat[u] > cap:
            raise InvariantViolation(
                f"user {u}: served {state.fhat[u]} exceeds scheduled sampled rate {cap}"
            )
    if sum(state.fhat) > sum(state.m):
        raise InvariantViolation("total service exceeds total sampled rate")


@dataclass(frozen=True)
class ScaledPath:
    """Piecewise-linear space/time compression of a queue path.

    Knots at ``j / n`` carry ``path[j] / n``; linear in between.  The
    Lipschitz constant is at most the per-slot change bound
    ``max(arrival rate, max service rate)``.
    """

    n: int
    times: np.ndarray
    values: np.ndarray

    def at(self, t: float | np.ndarray) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < self.times[0] - 1e-12) or np.any(t_arr > self.times[-1] + 1e-12):
            raise ValueError("time outside the path domain")
        out = np.stack([np.interp(t_arr, self.times, self.values[:, j])
                        for j in range(self.values.shape[1])], axis=-1)
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def lipschitz_constant(self) -> float:
        if len(self.times) < 2:
            return 0.0
        slopes = np.abs(np.diff(self.values, axis=0)) / np.diff(self.times)[:, None]
        return float(np.max(slopes))


def scaled_path(path: np.ndarray | Sequence[Sequence[int]], n: int) -> ScaledPath:
    """Compress time by ``n`` and scale space by ``1/n``: knot ``j/n`` -> ``path[j]/n``."""
    if n < 1:
        raise ValueError("scaling integer n must be >= 1")
    arr = np.asarray(path, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] < 2:
        raise ValueError("path needs at least two points")
    times = np.arange(arr.shape[0], dtype=float) / n
    return ScaledPath(n=n, times=times, values=arr / n)
