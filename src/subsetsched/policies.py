"""Scheduling policies over observable channel subsets.

All policies implement the two-step contract from ``simulate.Policy``:
subset choice from queues alone, then user choice from the revealed
sub-state.  Ties break to the lowest subset/user id everywhere, which
keeps runs replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .channels import SubsetSystem
from .simulate import Policy, SystemModel, _UniformStream


def max_rate_user(members: Sequence[int], rates: Sequence[int]) -> int:
    """Highest-rate user in the subset, lowest id on ties."""
    best_pos = 0
    for pos in range(1, len(members)):
        if rates[pos] > rates[best_pos]:
            best_pos = pos
    return members[best_pos]


def _member_table(subsets: SubsetSystem) -> np.ndarray:
    """(subset, position) users; a short subset repeats its first member as padding."""
    width = max(len(a) for a in subsets.subsets)
    return np.array([list(a) + [a[0]] * (width - len(a)) for a in subsets.subsets], dtype=np.int64)


def max_rate_users(member_tab: np.ndarray, subset_ids: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Row-wise ``max_rate_user``: argmax keeps the first maximum, and the -1 padding never wins."""
    return member_tab[subset_ids, rates.argmax(axis=1)]


class MaxExp(Policy):
    """Queue-length-only subset sampling with exponential-rule scheduling.

    Subset metric: sum over members of exp(Q_i / (1 + sqrt(qbar))), with
    qbar the mean of all N queues (including users in unchosen subsets).
    User metric: R_i * exp(Q_i / (1 + sqrt(qbar))).  Both are compared in
    log space so huge queues cannot overflow the exponentials; if every
    revealed rate is zero the lowest-id member is returned and no service
    occurs.  The metric is parameter-free.
    """

    def __init__(self, subsets: SubsetSystem):
        self.members = subsets.subsets
        self.n = subsets.num_users
        self._singletons = subsets.all_singletons
        self._users = np.array([a[0] for a in self.members], dtype=np.int64)

    def choose_subset(self, q: Sequence[int], k: int) -> int:
        denom = 1.0 + math.sqrt(sum(q) / self.n)
        best = 0
        best_val = -math.inf
        for a, members in enumerate(self.members):
            xs = [q[i] / denom for i in members]
            top = max(xs)
            val = top + math.log(sum(math.exp(x - top) for x in xs))
            if val > best_val:
                best_val = val
                best = a
        return best

    def choose_user(self, subset_id: int, rates: Sequence[int], q: Sequence[int]) -> int:
        members = self.members[subset_id]
        denom = 1.0 + math.sqrt(sum(q) / self.n)
        best = -1
        best_val = -math.inf
        for pos, i in enumerate(members):
            r = rates[pos]
            if r <= 0:
                continue
            val = math.log(r) + q[i] / denom
            if val > best_val:
                best_val = val
                best = i
        return members[0] if best < 0 else best

    # Only singleton systems get a numpy rule: importance sampling, the one
    # lockstep caller, runs on singletons.  Other systems decide row by row.

    def choose_subsets(self, q: np.ndarray, k: int) -> np.ndarray:
        if not self._singletons:
            return super().choose_subsets(q, k)
        # a one-member subset's metric is top + log(exp(0.0)), exactly top
        x = q / (1.0 + np.sqrt(q.sum(axis=1) / self.n))[:, None]
        return x[:, self._users].argmax(axis=1)

    def choose_users(self, subset_ids: np.ndarray, rates: np.ndarray, q: np.ndarray) -> np.ndarray:
        if not self._singletons:
            return super().choose_users(subset_ids, rates, q)
        return self._users[subset_ids]


class MaxQueue(Policy):
    """Serve the longest queue; only defined for all-singleton subsets.

    Tie rule: the lowest-indexed queue among the maxima.
    """

    def __init__(self, subsets: SubsetSystem):
        if not subsets.all_singletons:
            raise ValueError("max_queue requires all-singleton observable subsets")
        self._user_of = [a[0] for a in subsets.subsets]
        # ascending users, so max() (first maximum wins) ties to the lowest queue index
        self._users = sorted(set(self._user_of))
        # a user listed twice maps to its lowest subset id
        self._subset_of = {u: j for j, u in reversed(list(enumerate(self._user_of)))}
        self._user_arr = np.array(self._user_of, dtype=np.int64)
        self._users_arr = np.array(self._users, dtype=np.int64)
        self._subset_arr = np.zeros(subsets.num_users, dtype=np.int64)
        self._subset_arr[list(self._subset_of)] = list(self._subset_of.values())

    def choose(self, q: Sequence[int]) -> int:
        return max(self._users, key=q.__getitem__)

    def choose_subset(self, q: Sequence[int], k: int) -> int:
        return self._subset_of[self.choose(q)]

    def choose_user(self, subset_id: int, rates: Sequence[int], q: Sequence[int]) -> int:
        return self._user_of[subset_id]

    def choose_subsets(self, q: np.ndarray, k: int) -> np.ndarray:
        return self._subset_arr[self._users_arr[q[:, self._users_arr].argmax(axis=1)]]

    def choose_users(self, subset_ids: np.ndarray, rates: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self._user_arr[subset_ids]


class UniformRandomSubset(Policy):
    """Uniform subset choice from an own seeded stream; max-rate user within."""

    def __init__(self, subsets: SubsetSystem, rng: np.random.Generator):
        self.members = subsets.subsets
        self._tab = _member_table(subsets)
        self._stream = _UniformStream(rng)

    def choose_subset(self, q: Sequence[int], k: int) -> int:
        m = len(self.members)
        return min(int(self._stream.next() * m), m - 1)

    def choose_user(self, subset_id: int, rates: Sequence[int], q: Sequence[int]) -> int:
        return max_rate_user(self.members[subset_id], rates)

    def choose_subsets(self, q: np.ndarray, k: int) -> np.ndarray:
        m = len(self.members)
        return np.minimum((self._stream.take(len(q)) * m).astype(np.int64), m - 1)

    def choose_users(self, subset_ids: np.ndarray, rates: np.ndarray, q: np.ndarray) -> np.ndarray:
        return max_rate_users(self._tab, subset_ids, rates)


class RoundRobinSubset(Policy):
    """Cycle through subsets in id order; max-rate user within."""

    def __init__(self, subsets: SubsetSystem):
        self.members = subsets.subsets
        self._tab = _member_table(subsets)

    def choose_subset(self, q: Sequence[int], k: int) -> int:
        return k % len(self.members)

    def choose_user(self, subset_id: int, rates: Sequence[int], q: Sequence[int]) -> int:
        return max_rate_user(self.members[subset_id], rates)

    def choose_subsets(self, q: np.ndarray, k: int) -> np.ndarray:
        return np.full(len(q), k % len(self.members), dtype=np.int64)

    def choose_users(self, subset_ids: np.ndarray, rates: np.ndarray, q: np.ndarray) -> np.ndarray:
        return max_rate_users(self._tab, subset_ids, rates)


@dataclass(frozen=True)
class PolicySpec:
    """Picklable policy identifier used by parallel replica workers."""

    name: str
    params: tuple[tuple[str, Any], ...] = ()


POLICY_NAMES = ("max_exp", "max_queue", "uniform_random", "round_robin")


def make_policy(
    spec: PolicySpec | str,
    model: SystemModel,
    rng: np.random.Generator | None = None,
) -> Policy:
    """Instantiate a policy by name; one instance per replica."""
    name = spec if isinstance(spec, str) else spec.name
    if name == "max_exp":
        return MaxExp(model.subsets)
    if name == "max_queue":
        return MaxQueue(model.subsets)
    if name == "uniform_random":
        if rng is None:
            raise ValueError("uniform_random needs its own seeded rng stream")
        return UniformRandomSubset(model.subsets, rng)
    if name == "round_robin":
        return RoundRobinSubset(model.subsets)
    raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
