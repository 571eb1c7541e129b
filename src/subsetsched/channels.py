"""Finite joint channel-state distributions and observable-subset systems.

A channel state is an N-tuple of integer instantaneous service rates
(packets/slot), drawn iid across time slots from a finite-support joint
distribution.  Rates may be correlated across users; product form is a
convenience constructor, not a requirement.  A scheduler can observe, per
slot, the sub-state of exactly one subset from a fixed collection of
observable subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

# Inputs failing this tolerance are rejected, never renormalized: a
# probability table that does not sum to 1 is a config typo.
PROB_TOL = 1e-12


def _validate_probs(probs: Sequence[float], what: str) -> None:
    if len(probs) == 0:
        raise ValueError(f"{what}: empty probability vector")
    if any(p < 0.0 for p in probs):
        raise ValueError(f"{what}: negative probability")
    total = float(sum(probs))
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"{what}: probabilities sum to {total!r}, not 1 (tol {PROB_TOL})")


@dataclass(frozen=True)
class JointChannelDistribution:
    """Joint law of the instantaneous service-rate vector for one slot.

    ``support`` holds distinct N-tuples of nonnegative integer rates;
    ``probs`` the matching probabilities (sum 1 within ``PROB_TOL``).
    Immutable after construction and safe to share across threads.
    """

    support: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]
    num_users: int

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("channel distribution needs a nonempty support")
        if len(self.support) != len(self.probs):
            raise ValueError("support and probs length mismatch")
        _validate_probs(self.probs, "joint channel distribution")
        seen = set()
        for state in self.support:
            if len(state) != self.num_users:
                raise ValueError(f"state {state} is not a {self.num_users}-tuple")
            if any((not isinstance(r, int)) or r < 0 for r in state):
                raise ValueError(f"state {state}: rates must be nonnegative integers")
            if state in seen:
                raise ValueError(f"duplicate support state {state}")
            seen.add(state)

    @classmethod
    def from_table(
        cls, support: Iterable[Sequence[int]], probs: Iterable[float]
    ) -> "JointChannelDistribution":
        sup = tuple(tuple(int(r) for r in state) for state in support)
        if not sup:
            raise ValueError("empty support")
        return cls(support=sup, probs=tuple(float(p) for p in probs), num_users=len(sup[0]))

    @classmethod
    def product_form(cls, per_user: Sequence[Mapping[int, float]]) -> "JointChannelDistribution":
        """Independent users, one marginal rate table per user."""
        if not per_user:
            raise ValueError("need at least one user table")
        tables = []
        for i, table in enumerate(per_user):
            if not table:
                raise ValueError(f"user {i}: empty rate table")
            _validate_probs(list(table.values()), f"user {i} rate table")
            tables.append(sorted((int(r), float(p)) for r, p in table.items()))
        support = []
        probs = []
        for combo in product(*tables):
            support.append(tuple(r for r, _ in combo))
            p = 1.0
            for _, pi in combo:
                p *= pi
            probs.append(p)
        return cls(support=tuple(support), probs=tuple(probs), num_users=len(per_user))

    @cached_property
    def _cumprobs(self) -> np.ndarray:
        cum = np.cumsum(np.asarray(self.probs, dtype=float))
        cum[-1] = 1.0
        return cum

    @property
    def max_rate(self) -> int:
        return max(max(state) for state in self.support)

    def user_marginal(self, i: int) -> dict[int, float]:
        """Marginal law of user ``i``'s rate; equal rate values merged."""
        if not 0 <= i < self.num_users:
            raise IndexError(f"user index {i} out of range [0, {self.num_users})")
        merged: dict[int, float] = {}
        for state, p in zip(self.support, self.probs):
            merged[state[i]] = merged.get(state[i], 0.0) + p
        return dict(sorted(merged.items()))

    def substate_marginal(self, alpha: Iterable[int]) -> "SubStateDistribution":
        """Restriction of the joint law to the coordinates in ``alpha``.

        States with identical restriction are merged.  Sub-states are
        ordered lexicographically, fixing the index map used everywhere
        downstream (empirical-distribution vectors, trace records).
        """
        members = tuple(sorted(set(int(i) for i in alpha)))
        if not members:
            raise ValueError("empty subset")
        for i in members:
            if not 0 <= i < self.num_users:
                raise IndexError(f"user index {i} out of range [0, {self.num_users})")
        merged: dict[tuple[int, ...], float] = {}
        for state, p in zip(self.support, self.probs):
            key = tuple(state[i] for i in members)
            merged[key] = merged.get(key, 0.0) + p
        substates = tuple(sorted(merged))
        return SubStateDistribution(
            subset=members,
            substates=substates,
            probs=tuple(merged[r] for r in substates),
        )

    def mean_rates(self) -> tuple[float, ...]:
        means = [0.0] * self.num_users
        for state, p in zip(self.support, self.probs):
            for i, r in enumerate(state):
                means[i] += r * p
        return tuple(means)

    def sample_state(self, rng: np.random.Generator) -> tuple[int, ...]:
        """One iid draw of the joint state from an explicitly seeded stream."""
        idx = int(np.searchsorted(self._cumprobs, rng.random(), side="right"))
        return self.support[min(idx, len(self.support) - 1)]


@dataclass(frozen=True)
class SubStateDistribution:
    """Law of the rate vector restricted to one observable subset."""

    subset: tuple[int, ...]
    substates: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.subset:
            raise ValueError("empty subset")
        if len(self.substates) != len(self.probs):
            raise ValueError("substates and probs length mismatch")
        if len(set(self.substates)) != len(self.substates):
            raise ValueError("duplicate sub-states")
        for r in self.substates:
            if len(r) != len(self.subset):
                raise ValueError(f"sub-state {r} does not match subset size {len(self.subset)}")
        _validate_probs(self.probs, f"sub-state distribution for subset {self.subset}")

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {r: j for j, r in enumerate(self.substates)}

    def index_of(self, substate: tuple[int, ...]) -> int:
        return self._index[substate]

    def mean_rates(self) -> tuple[float, ...]:
        """Per-member mean rates (ordered like ``subset``)."""
        means = [0.0] * len(self.subset)
        for r, p in zip(self.substates, self.probs):
            for pos, rate in enumerate(r):
                means[pos] += rate * p
        return tuple(means)


@dataclass(frozen=True)
class SubsetSystem:
    """The collection of observable subsets, as (sorted) user-index tuples.

    Disjointness is always computed from the subsets, never trusted from
    input.  Whether the subsets cover every user is checked where arrival
    rates are known (a user with zero arrivals may be uncovered).
    """

    subsets: tuple[tuple[int, ...], ...]
    num_users: int

    def __post_init__(self) -> None:
        if not self.subsets:
            raise ValueError("need at least one observable subset")
        for alpha in self.subsets:
            if not alpha:
                raise ValueError("empty observable subset")
            if tuple(sorted(set(alpha))) != alpha:
                raise ValueError(f"subset {alpha} must be sorted and duplicate-free")
            for i in alpha:
                if not 0 <= i < self.num_users:
                    raise IndexError(f"subset index {i} out of range [0, {self.num_users})")

    @classmethod
    def from_lists(cls, subsets: Iterable[Iterable[int]], num_users: int) -> "SubsetSystem":
        return cls(
            subsets=tuple(tuple(sorted(set(int(i) for i in s))) for s in subsets),
            num_users=num_users,
        )

    @cached_property
    def disjoint(self) -> bool:
        seen: set[int] = set()
        for alpha in self.subsets:
            if seen.intersection(alpha):
                return False
            seen.update(alpha)
        return True

    @property
    def all_singletons(self) -> bool:
        return all(len(alpha) == 1 for alpha in self.subsets)

    @property
    def covered_users(self) -> frozenset[int]:
        return frozenset(i for alpha in self.subsets for i in alpha)

    def check_covers(self, active_users: Iterable[int]) -> None:
        missing = sorted(set(active_users) - self.covered_users)
        if missing:
            raise ValueError(
                f"users {missing} have positive arrival rate but appear in no observable subset"
            )
