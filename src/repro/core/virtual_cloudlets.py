"""Virtual-cloudlet splitting and the GAP reduction (Section III.B).

Each cloudlet ``CL_i`` is split into

``n_i = min( floor(C(CL_i)/a_max), floor(B(CL_i)/b_max) )``            (Eq. 7)

virtual cloudlets, "each virtual cloudlet being restricted to be able to
only cache a single service instance" (Section III.B). Each virtual cloudlet
is one GAP knapsack of capacity ``max(a_max, b_max)``; to enforce the
one-instance restriction, every item's weight equals the slot capacity, so
the knapsack admits exactly one service. The assignment cost ignores
congestion (Eq. 9): ``alpha_i + beta_i + c_l^ins + c_i^bdw``.

Feasibility (Lemma 1) is then structural: a cloudlet receives at most
``n_i`` services, each demanding at most ``a_max`` compute and ``b_max``
bandwidth, and ``n_i * a_max <= C(CL_i)``, ``n_i * b_max <= B(CL_i)`` by
Eq. (7).

When the market holds more providers than there are virtual cloudlets — the
regime of the Fig. 7 sweeps, where growing ``a_max`` shrinks every ``n_i``
— a plain reduction is infeasible. We optionally extend the instance with a
*remote bin* of unbounded multiplicity whose cost is the provider's
remote-serving cost: services assigned there are "not cached" (the title's
other option) and count as rejected.

``delta = C(CL_i)/a_max`` and ``kappa = B(CL_i)/b_max`` (cloudlet-maximal,
per Lemma 2) and ``n'_max`` (Eq. 8) are exposed for the bound computations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.instance import GAPInstance
from repro.market.compiled import CompiledMarket
from repro.market.market import ServiceMarket
from repro.network.elements import Cloudlet


@dataclass(frozen=True)
class VirtualCloudlet:
    """One knapsack of the reduction: slot ``k`` of real cloudlet ``CL_i``."""

    index: int  # global index (GAP bin id)
    cloudlet_node: int  # real cloudlet it belongs to
    slot: int  # 0 <= slot < n_i
    capacity: float


class VirtualCloudletSplit:
    """The Eq. (7)–(9) reduction of a market to a GAP instance.

    ``allow_remote`` appends a remote bin (one pseudo-slot per provider, so
    capacity never binds) priced at each provider's remote-serving cost;
    :meth:`merge_assignment` reports services landing there as rejected.
    """

    #: Bin index sentinel returned for remote assignments.
    REMOTE = -1

    #: Supported slot pricing modes (see ``slot_pricing``).
    PRICINGS = ("marginal", "flat")

    def __init__(
        self,
        market: ServiceMarket,
        allow_remote: bool = False,
        slot_pricing: str = "marginal",
    ) -> None:
        if slot_pricing not in self.PRICINGS:
            raise ConfigurationError(
                f"slot_pricing must be one of {self.PRICINGS}, got {slot_pricing!r}"
            )
        self.market = market
        self.allow_remote = allow_remote
        self.slot_pricing = slot_pricing
        self.a_max = market.max_compute_demand()
        self.b_max = market.max_bandwidth_demand()
        self.a_min = market.min_compute_demand()
        self.b_min = market.min_bandwidth_demand()
        if self.a_max <= 0 or self.b_max <= 0:
            raise ConfigurationError("demands must be positive")

        self.slot_capacity = max(self.a_max, self.b_max)
        self.n_i: Dict[int, int] = {
            cl.node_id: min(
                math.floor(cl.compute_capacity / self.a_max),
                math.floor(cl.bandwidth_capacity / self.b_max),
            )
            for cl in market.network.cloudlets
        }
        self._virtual_cloudlets: Optional[List[VirtualCloudlet]] = None
        if self.n_virtual == 0 and not allow_remote:
            raise InfeasibleError(
                "every cloudlet splits into zero virtual cloudlets: the largest "
                "service demand exceeds (a capacity fraction of) every cloudlet; "
                "Lemma 1 assumes capacities far exceed maximum demands"
            )

    @property
    def n_virtual(self) -> int:
        """Total number of virtual cloudlets, ``sum_i n_i``."""
        return sum(self.n_i.values())

    @property
    def virtual_cloudlets(self) -> List[VirtualCloudlet]:
        """One :class:`VirtualCloudlet` per slot, in GAP bin order (cloudlet
        order, then slot); built on first access — the transport path never
        needs it."""
        if self._virtual_cloudlets is None:
            slots = [(node, k) for node, n_i in self.n_i.items() for k in range(n_i)]
            self._virtual_cloudlets = [
                VirtualCloudlet(index, node, k, self.slot_capacity)
                for index, (node, k) in enumerate(slots)
            ]
        return self._virtual_cloudlets

    # ------------------------------------------------------------------ #
    # Bound ingredients
    # ------------------------------------------------------------------ #
    @property
    def delta(self) -> float:
        """``delta = max_i C(CL_i) / a_max`` (Lemma 2)."""
        return max(
            cl.compute_capacity / self.a_max for cl in self.market.network.cloudlets
        )

    @property
    def kappa(self) -> float:
        """``kappa = max_i B(CL_i) / b_max`` (Lemma 2)."""
        return max(
            cl.bandwidth_capacity / self.b_max for cl in self.market.network.cloudlets
        )

    @property
    def n_prime_max(self) -> float:
        """Eq. (8): the max number of services a virtual cloudlet could hold
        if filled with minimal-demand services."""
        cap = self.slot_capacity
        return max(cap / self.a_min, cap / self.b_min)

    # ------------------------------------------------------------------ #
    # GAP construction / solution mapping
    # ------------------------------------------------------------------ #
    def item_weight(self, provider_id: int) -> float:
        """Uniform weight = slot capacity: one service per virtual cloudlet
        (the Section III.B restriction)."""
        return self.slot_capacity

    @property
    def remote_bin(self) -> int:
        """GAP bin index of the remote ("do not cache") bin, if enabled."""
        if not self.allow_remote:
            raise ConfigurationError("split was built without a remote bin")
        return self.n_virtual

    def build_gap_instance(
        self, compiled: Optional[CompiledMarket] = None
    ) -> GAPInstance:
        """Items = providers (in id order), bins = virtual cloudlets, plus
        the remote bin when ``allow_remote`` is set.

        With a :class:`CompiledMarket` the cost matrix is assembled from
        the precomputed tables (one broadcast add of :meth:`_slot_charges`)
        instead of querying the cost model per (provider, slot) pair; the
        entries are bit-equal because both paths add/multiply the same
        doubles.
        """
        if compiled is not None:
            return self._build_gap_instance_compiled(compiled)
        providers = self.market.providers
        n = len(providers)
        n_virtual = self.n_virtual
        m = n_virtual + (1 if self.allow_remote else 0)
        costs = np.zeros((n, m))
        weights = np.full((n, m), self.slot_capacity)
        model = self.market.cost_model
        net = self.market.network
        for j, provider in enumerate(providers):
            for vc in self.virtual_cloudlets:
                cloudlet = net.cloudlet_at(vc.cloudlet_node)
                costs[j, vc.index] = self._object_slot_charge(
                    cloudlet, vc.slot + 1
                ) + model.fixed_cost(provider, cloudlet)
            if self.allow_remote:
                costs[j, n_virtual] = model.remote_cost(provider)
        return GAPInstance(costs=costs, weights=weights, capacities=self._capacities(n))

    def _object_slot_charge(self, cloudlet: Cloudlet, k: int) -> float:
        """The charge of slot ``k >= 1`` of ``cloudlet``, from the cost model.

        ``"flat"`` is the paper's Eq. (9) term ``alpha_i + beta_i``. Under
        ``"marginal"`` slot k carries the marginal social congestion charge
        ``(alpha_i + beta_i) * (k*g(k) - (k-1)*g(k-1))``, i.e.
        ``(2k - 1)(alpha_i + beta_i)`` under the paper's linear model, so
        filling k slots sums to the true social congestion cost
        ``(alpha_i + beta_i) * k * g(k)``. The GAP objective then equals the
        social cost (Eq. 6) exactly, which is what makes the coordinated
        placement worth following.
        """
        coeff = cloudlet.alpha + cloudlet.beta
        if self.slot_pricing == "flat":
            return coeff
        g = self.market.cost_model.congestion
        return coeff * (k * g(k) - (k - 1) * g(k - 1))

    def _slot_charges(self, cm: CompiledMarket) -> np.ndarray:
        """Every virtual cloudlet's slot charge, in GAP bin order, from the
        compiled tables: :meth:`_object_slot_charge` vectorised (the same
        doubles combined in the same order, so the values are bit-equal)."""
        counts = np.fromiter(self.n_i.values(), dtype=np.int64, count=len(self.n_i))
        cols = [cm.cloudlet_index[node] for node in self.n_i]
        coeff = np.repeat(cm.coeff[cols], counts)
        if self.slot_pricing == "flat":
            return coeff
        k = np.arange(coeff.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts) + 1
        top = int(counts.max(initial=0))
        g = cm.g[: top + 1]
        if g.shape[0] <= top:  # slots beyond the precomputed occupancies
            g = np.concatenate(
                [g, [float(cm.congestion(o)) for o in range(g.shape[0], top + 1)]]
            )
        kf = k.astype(float)
        return coeff * (kf * g[k] - (kf - 1.0) * g[k - 1])

    def _sorted_charges(self, cm: CompiledMarket) -> Dict[int, np.ndarray]:
        """Each cloudlet's slot charges, cheapest first, keyed by node."""
        bounds = np.cumsum(list(self.n_i.values()))[:-1]
        charges = np.split(self._slot_charges(cm), bounds)
        return {node: np.sort(c) for node, c in zip(self.n_i, charges)}

    def _capacities(self, n: int) -> np.ndarray:
        caps = np.full(self.n_virtual + (1 if self.allow_remote else 0), self.slot_capacity)
        if self.allow_remote:
            caps[-1] = n * self.slot_capacity
        return caps

    def _build_gap_instance_compiled(self, cm: CompiledMarket) -> GAPInstance:
        """Table-backed :meth:`build_gap_instance` (same instance, no
        per-pair cost-model calls)."""
        n = cm.n_providers
        n_virtual = self.n_virtual
        m = n_virtual + (1 if self.allow_remote else 0)
        costs = np.zeros((n, m))
        weights = np.full((n, m), self.slot_capacity)
        # GAP item j is the j-th provider in id order; after delta patches
        # the compiled rows are not id-ordered, so gather through the
        # active-row map (a no-op reindex on a dense compile).
        rows = cm.active_rows
        if n_virtual:
            cols = np.repeat(
                [cm.cloudlet_index[node] for node in self.n_i], list(self.n_i.values())
            )
            costs[:, :n_virtual] = self._slot_charges(cm)[None, :] + cm.fixed[
                np.ix_(rows, cols)
            ]
        if self.allow_remote:
            costs[:, n_virtual] = cm.remote[rows]
        return GAPInstance(costs=costs, weights=weights, capacities=self._capacities(n))

    def build_transport(self, cm: CompiledMarket) -> Tuple[np.ndarray, List[np.ndarray]]:
        """The reduction collapsed onto the physical cloudlets, for
        :func:`~repro.gap.transport.solve_transport`.

        Slot ``k`` of ``CL_i`` costs provider ``j`` ``fixed[j, i]`` plus a
        charge that depends on ``(i, k)`` alone, so the GAP is a
        transportation problem: providers (id order) × destinations (the
        cloudlets in ``cm`` column order, then the remote bin when
        ``allow_remote``). Returns the ``(n, m [+ 1])`` cost table and each
        destination's charges: a cloudlet's ``min(n_i, n)`` cheapest slot
        charges, sorted, and ``n`` zero charges for the remote bin.
        """
        n = cm.n_providers
        m = cm.n_cloudlets
        rows = cm.active_rows
        by_node = self._sorted_charges(cm)
        charges = [by_node[node][:n] for node in cm.cloudlet_nodes]
        costs = np.empty((n, m + (1 if self.allow_remote else 0)))
        costs[:, :m] = cm.fixed[rows]
        if self.allow_remote:
            costs[:, m] = cm.remote[rows]
            charges.append(np.zeros(n))
        return costs, charges

    def merge_assignment(self, gap_assignment: List[int]) -> Tuple[Dict[int, int], Set[int]]:
        """Step 4 of Algorithm 1: map items -> real cloudlets by collapsing
        each cloudlet's virtual cloudlets back onto it.

        Returns ``(placement, rejected)``; ``rejected`` holds the providers
        the GAP sent to the remote bin (empty without ``allow_remote``).
        """
        providers = self.market.providers
        if len(gap_assignment) != len(providers):
            raise ConfigurationError(
                f"GAP assignment covers {len(gap_assignment)} items, "
                f"market has {len(providers)} providers"
            )
        placement: Dict[int, int] = {}
        rejected: Set[int] = set()
        n_virtual = self.n_virtual
        for j, bin_index in enumerate(gap_assignment):
            pid = providers[j].provider_id
            if self.allow_remote and bin_index >= n_virtual:
                rejected.add(pid)
            else:
                placement[pid] = self.virtual_cloudlets[bin_index].cloudlet_node
        return placement, rejected

    def merge_destinations(
        self, destination: np.ndarray, cm: CompiledMarket
    ) -> Tuple[Dict[int, int], Set[int]]:
        """Step 4 for a :meth:`build_transport` solution: destination ``b``
        is cloudlet ``cm.cloudlet_nodes[b]``, and ``len(cm.cloudlet_nodes)``
        the remote bin. Same ``(placement, rejected)`` as
        :meth:`merge_assignment`."""
        nodes = cm.cloudlet_nodes
        placement: Dict[int, int] = {}
        rejected: Set[int] = set()
        for pid, b in zip(cm.provider_ids, destination.tolist()):
            if b == len(nodes):
                rejected.add(pid)
            else:
                placement[pid] = nodes[b]
        return placement, rejected

    def merged_cost(
        self,
        placement: Dict[int, int],
        rejected: Set[int],
        compiled: Optional[CompiledMarket] = None,
    ) -> float:
        """The GAP objective behind a merged placement, as one exactly
        rounded sum (``math.fsum``) of its terms: each placed provider's
        congestion-free cost at its cloudlet, each rejected provider's
        remote cost, and at a cloudlet holding ``c`` providers its ``c``
        cheapest slot charges.

        An optimal GAP solution fills each cloudlet's cheapest slots, so
        this is its cost, and it does not depend on which provider an exact
        solver put on which slot: the dense and the collapsed solvers, on
        either representation, report the same double.
        """
        counts = Counter(placement.values())
        terms: List[float] = []
        if compiled is not None:
            cm = compiled
            rows = [cm.provider_index[pid] for pid in placement]
            cols = [cm.cloudlet_index[node] for node in placement.values()]
            terms += cm.fixed[rows, cols].tolist()
            terms += cm.remote[[cm.provider_index[pid] for pid in rejected]].tolist()
            charges = self._sorted_charges(cm)
            for node, c in counts.items():
                terms += charges[node][:c].tolist()
        else:
            model = self.market.cost_model
            net = self.market.network
            for pid, node in placement.items():
                terms.append(model.fixed_cost(self.market.provider(pid), net.cloudlet_at(node)))
            terms += [model.remote_cost(self.market.provider(pid)) for pid in rejected]
            for node, c in counts.items():
                cloudlet = net.cloudlet_at(node)
                slots = range(1, self.n_i[node] + 1)
                terms += sorted(self._object_slot_charge(cloudlet, k) for k in slots)[:c]
        return math.fsum(terms)


__all__ = ["VirtualCloudlet", "VirtualCloudletSplit"]
