"""Finite channel-state laws and observable-subset systems.

A channel state is an N-tuple of integer instantaneous service rates
(packets/slot), drawn iid across time slots.  Its law is a tuple of
independent blocks, each a finite joint law over its own users (rates may
be correlated within a block): an explicit joint table is one block, a
product-form law one block per user, so no 2^N table is built for
independent users.  A scheduler can observe, per slot, the sub-state of
exactly one subset from a fixed collection of observable subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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
    """Law of the instantaneous service-rate vector for one slot.

    ``blocks`` are independent sub-state laws whose users, joined in block
    order, are 0..num_users-1.  ``from_table`` gives one block over all
    users, ``product_form`` one block per user.  No 2^N joint table is
    ever built: every reader asks for one subset's ``substate_marginal``.
    Immutable and safe to share across threads.
    """

    blocks: tuple[SubStateDistribution, ...]
    num_users: int

    def __post_init__(self) -> None:
        users = [i for block in self.blocks for i in block.subset]
        if self.num_users < 1 or users != list(range(self.num_users)):
            raise ValueError(f"blocks must partition users 0..{self.num_users - 1} in order")
        for block in self.blocks:
            for state in block.substates:
                if any((not isinstance(r, int)) or r < 0 for r in state):
                    raise ValueError(f"state {state}: rates must be nonnegative integers")

    @classmethod
    def from_table(
        cls, support: Iterable[Sequence[int]], probs: Iterable[float]
    ) -> "JointChannelDistribution":
        sup = tuple(tuple(int(r) for r in state) for state in support)
        if not sup:
            raise ValueError("empty support")
        block = SubStateDistribution(tuple(range(len(sup[0]))), sup, tuple(float(p) for p in probs))
        return cls(blocks=(block,), num_users=len(sup[0]))

    @classmethod
    def product_form(cls, per_user: Sequence[Mapping[int, float]]) -> "JointChannelDistribution":
        """Independent users, one marginal rate table per user."""
        if not per_user:
            raise ValueError("need at least one user table")
        blocks = []
        for i, table in enumerate(per_user):
            items = sorted((int(r), float(p)) for r, p in table.items())
            substates, probs = tuple((r,) for r, _ in items), tuple(p for _, p in items)
            blocks.append(SubStateDistribution((i,), substates, probs))
        return cls(blocks=tuple(blocks), num_users=len(per_user))

    @property
    def max_rate(self) -> int:
        return max(max(state) for block in self.blocks for state in block.substates)

    def user_marginal(self, i: int) -> dict[int, float]:
        """Marginal law of user ``i``'s rate; equal rate values merged."""
        sub = self.substate_marginal([i])
        return {r: p for (r,), p in zip(sub.substates, sub.probs)}

    def substate_marginal(self, alpha: Iterable[int]) -> "SubStateDistribution":
        """Law of the rates of the users in ``alpha``.

        Each block that meets ``alpha`` is restricted to it (states with
        identical restriction merged), and the independent restrictions
        are multiplied.  Sub-states are ordered lexicographically, fixing
        the index map used everywhere downstream (empirical-distribution
        vectors, trace records).
        """
        members = tuple(sorted(set(int(i) for i in alpha)))
        if not members:
            raise ValueError("empty subset")
        if members[0] < 0 or members[-1] >= self.num_users:
            raise IndexError(f"user index out of range [0, {self.num_users}) in {members}")
        merged: dict[tuple[int, ...], float] = {(): 1.0}
        for block in self.blocks:
            pos = [k for k, i in enumerate(block.subset) if i in members]
            if not pos:
                continue
            part: dict[tuple[int, ...], float] = {}
            for state, p in zip(block.substates, block.probs):
                key = tuple(state[k] for k in pos)
                part[key] = part.get(key, 0.0) + p
            merged = {r + s: p * q for r, p in merged.items() for s, q in part.items()}
        substates = tuple(sorted(merged))
        return SubStateDistribution(members, substates, tuple(merged[r] for r in substates))

    def mean_rates(self) -> tuple[float, ...]:
        means = [0.0] * self.num_users
        for block in self.blocks:
            for i, m in zip(block.subset, block.mean_rates()):
                means[i] = m
        return tuple(means)


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
