"""The compiled (array-backed) instance representation of a market.

Every algorithm layer in the library consumes the same instance data —
fixed caching costs (Eq. 3's ``c_l^ins + c_i^bdw``), per-cloudlet
congestion charges ``(alpha_i + beta_i) * g(k)``, provider demand vectors
and cloudlet capacity vectors — but historically each layer re-derived it
from the :class:`~repro.market.market.ServiceMarket` object graph on every
call: Appro rebuilt its GAP instance (Eq. 9) pair by pair, the baselines
re-queried the cost model per candidate cloudlet, ``optimal`` re-tabulated
fixed costs, and the game engine compiled its own private tables.

:class:`CompiledMarket` is the one structure-of-arrays all of them share.
It is built exactly once per market (``ServiceMarket.compile()`` caches it
on the instance) by evaluating the cost model's own methods, so every table
entry is **bit-equal** to the object-graph evaluation it replaces: every
algorithm must agree on placements and social costs exactly with its
object-graph reference implementation in ``tests/oracles/``, which
``tests/integration/test_compiled_equivalence.py`` pins differentially.

It is also a *live* structure: when the market changes — providers arrive
or depart, capacities or congestion prices move — a
:class:`~repro.market.delta.MarketDelta` applied through
``ServiceMarket.apply()`` patches only the affected rows via
:meth:`CompiledMarket.apply_delta` (tombstoned rows are recycled and the
tables periodically compacted), so a churning population never pays a full
recompile. Consumers therefore must address rows through ``provider_index``
or :attr:`CompiledMarket.active_rows` rather than assume row ``i`` is the
``i``-th provider in id order; after any delta the gathered view is
per-entry equal to a from-scratch ``compile()``, which
``tests/dynamics/test_delta_equivalence.py`` pins over long churn traces.

The blob is deliberately self-contained (plain numpy arrays, id↔index
dicts, and a picklable :class:`~repro.market.costs.CongestionFunction`):
it carries no reference back to the market, network, or cost model, so it
pickles cheaply and can cross a process-pool boundary — the parallel sweep
harness ships precompiled markets to workers instead of rebuilding them
per task (see :mod:`repro.experiments.parallel`).

Summation order matters for bit-equality: :meth:`social_cost` gathers the
per-provider terms with one vectorised table lookup but folds them
left-to-right in placement order, exactly like
:meth:`~repro.market.costs.CostModel.social_cost` does, so the two paths
return the same float, not merely the same value within tolerance.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.market.costs import CongestionFunction
from repro.utils.contracts import invariants_active, sanitize_active
from repro.utils.validation import CAPACITY_EPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (market imports us)
    from repro.market.delta import MarketDelta
    from repro.market.market import ServiceMarket
    from repro.market.service import ServiceProvider

#: Tombstoned rows tolerated before :meth:`CompiledMarket.compact` fires
#: (beyond one full active population's worth).
COMPACTION_SLACK = 16

class _ProviderRow(NamedTuple):
    """One provider's worth of compiled table entries."""

    instantiation: float
    remote: float
    demand: np.ndarray  # (2,)
    access: np.ndarray  # (m,)
    update: np.ndarray  # (m,)
    user_delay: np.ndarray  # (m,)
    access_delay: Optional[np.ndarray]  # (m,) or None without a budget


class _ProviderRowBuilder:
    """Evaluates one provider's table rows from the market's cost model.

    Shared by :meth:`CompiledMarket.from_market` (all rows at build time)
    and :meth:`CompiledMarket.apply_delta` (arrival rows only), so a
    delta-patched row is bit-equal to the row a fresh compile would have
    produced — same operand order, same memoised routing rows.
    """

    def __init__(
        self, market: "ServiceMarket", providers: Sequence["ServiceProvider"]
    ) -> None:
        model = market.cost_model
        net = market.network
        self.model = model
        self.transmit = model.pricing.transmit_per_gb
        self.surcharge = model.pricing.hop_surcharge
        self.budget = model.latency_budget_ms
        self.bdw_units = np.array(
            [cl.bdw_unit_cost for cl in net.cloudlets], dtype=float
        )
        # Every endpoint of the providers to build (cluster nodes and home
        # DCs for hops; user nodes, plus cluster nodes under a latency
        # budget, for delays) is collected first, so each kind of routing
        # row is fetched in one call and gathered over the cloudlet columns.
        cl_nodes = [cl.node_id for cl in net.cloudlets]
        svcs = [p.service for p in providers]
        clusters = [node for svc in svcs for node, _w in svc.clusters]
        hop_src = list(dict.fromkeys(clusters + [svc.home_dc for svc in svcs]))
        delay_src = list(dict.fromkeys(
            [svc.user_node for svc in svcs] + (clusters if self.budget is not None else [])
        ))
        self._hops = dict(zip(hop_src, net.routing.hop_rows(hop_src, cl_nodes)))
        self._delays = dict(zip(delay_src, net.routing.delay_rows(delay_src, cl_nodes)))

    def build(self, p: "ServiceProvider") -> _ProviderRow:
        svc = p.service
        m = len(self.bdw_units)
        # access_cost: per-cluster transmission charges, folded in
        # cluster order — volume * price * (1 + surcharge * hops).
        acc = np.zeros(m, dtype=float)
        for node, weight in svc.clusters:
            volume_price = (svc.request_traffic_gb * weight) * self.transmit
            acc = acc + volume_price * (
                1.0 + self.surcharge * self._hops[node]
            )
        # update_cost: cloudlet bandwidth charge plus the hop-scaled
        # consistency-update transit back to the home data center.
        vol = svc.update_volume_gb
        upd = self.bdw_units * vol + (vol * self.transmit) * (
            1.0 + self.surcharge * self._hops[svc.home_dc]
        )
        access_delay: Optional[np.ndarray] = None
        if self.budget is not None:
            dly = np.zeros(m, dtype=float)
            for node, weight in svc.clusters:
                dly = dly + weight * self._delays[node]
            access_delay = dly
        return _ProviderRow(
            instantiation=self.model.instantiation_cost(p),
            remote=self.model.remote_cost(p),
            demand=np.array([p.compute_demand, p.bandwidth_demand], dtype=float),
            access=acc,
            update=upd,
            user_delay=self._delays[svc.user_node],
            access_delay=access_delay,
        )

    def fixed_row(self, row: _ProviderRow) -> np.ndarray:
        """Eq. (3)'s congestion-free cost with the latency-budget mask —
        elementwise the same ``inst + access + update`` fold (and the same
        ``np.where`` mask) as the 2-D build in :meth:`from_market`."""
        fixed = row.instantiation + row.access + row.update
        if row.access_delay is not None:
            fixed = np.where(row.access_delay > self.budget, np.inf, fixed)
        return fixed


class CompiledMarket:
    """Dense-array view of a :class:`~repro.market.market.ServiceMarket`.

    Tables (``n`` providers in id order, ``m`` cloudlets in network order)
    ----------------------------------------------------------------------
    ``fixed``
        ``(n, m)`` — the congestion-free part of Eq. (3),
        ``c_l^ins + c_i^bdw`` including the hop-scaled update distance;
        ``+inf`` marks forbidden pairs (latency-budget violations).
    ``instantiation`` / ``access`` / ``update``
        The components of ``fixed``: ``c_l^ins`` per provider ``(n,)``,
        request-offloading cost ``(n, m)``, and consistency-update cost
        ``(n, m)`` (Section II.C). The baselines price subsets of these.
    ``coeff``
        ``(m,)`` — ``alpha_i + beta_i`` per cloudlet (Eq. 1–2).
    ``g``
        ``(n + 1,)`` — the congestion function at occupancies ``0..n``.
    ``shared``
        ``(m, n + 1)`` — ``shared[i, k] = coeff[i] * g[k]``, the anonymous
        congestion charge of Eq. (3) at every occupancy any profile can
        reach; works for any :class:`CongestionFunction`.
    ``demand``
        ``(n, 2)`` — ``(a_l * r_l, b_l * r_l)`` per provider.
    ``capacity``
        ``(m, 2)`` — ``(C(CL_i), B(CL_i))`` per cloudlet (Eq. 7's inputs).
    ``remote``
        ``(n,)`` — the "do not cache" remote-serving cost per provider.
    ``user_delay``
        ``(n, m)`` — end-to-end delay from each provider's user node to
        each cloudlet (the ``OffloadCache`` baseline's objective).
    """

    def __init__(
        self,
        provider_ids: List[int],
        cloudlet_nodes: List[int],
        fixed: np.ndarray,
        instantiation: np.ndarray,
        access: np.ndarray,
        update: np.ndarray,
        coeff: np.ndarray,
        g: np.ndarray,
        demand: np.ndarray,
        capacity: np.ndarray,
        remote: np.ndarray,
        user_delay: np.ndarray,
        congestion: CongestionFunction,
    ) -> None:
        self.provider_ids = provider_ids
        self.cloudlet_nodes = cloudlet_nodes
        self.provider_index: Dict[int, int] = {
            pid: i for i, pid in enumerate(provider_ids)
        }
        self.cloudlet_index: Dict[int, int] = {
            node: j for j, node in enumerate(cloudlet_nodes)
        }
        self.fixed = fixed
        self.instantiation = instantiation
        self.access = access
        self.update = update
        self.coeff = coeff
        self.g = g
        self.shared = coeff[:, None] * g[None, :]
        self.demand = demand
        self.capacity = capacity
        self.remote = remote
        self.user_delay = user_delay
        self.congestion = congestion
        # Delta bookkeeping: tombstoned physical rows available for reuse,
        # and the cached active-row gather (see :meth:`apply_delta`).
        self._free_rows: List[int] = []
        self._active_rows: Optional[np.ndarray] = None
        # Write sanitizer (REPRO_SANITIZE=1): freeze the tables outside the
        # internal writable context the build/patch paths run under, so a
        # stray in-place write raises at the write site (reprolint R9's
        # runtime witness). Latched at construction; per-instance.
        self._sanitize = sanitize_active()
        self._writable_depth = 0
        self._freeze_tables()

    # ------------------------------------------------------------------ #
    # Write sanitizer
    # ------------------------------------------------------------------ #
    #: The numpy tables the sanitizer freezes/thaws as one unit.
    _TABLE_FIELDS = (
        "fixed",
        "instantiation",
        "access",
        "update",
        "coeff",
        "g",
        "shared",
        "demand",
        "capacity",
        "remote",
        "user_delay",
    )

    def _set_tables_writeable(self, writeable: bool) -> None:
        for name in self._TABLE_FIELDS:
            getattr(self, name).flags.writeable = writeable

    def _freeze_tables(self) -> None:
        if self._sanitize and self._writable_depth == 0:
            self._set_tables_writeable(False)

    @contextmanager
    def _writable_tables(self) -> Iterator[None]:
        """Temporarily thaw the tables for a sanctioned patch path.

        Reentrant (``apply_delta`` calls ``_grow_rows``/``compact`` inside
        its own context): a depth counter thaws on first entry and
        re-freezes on last exit. The exit freeze iterates the *current*
        attribute values, so paths that rebind a table (``np.vstack``
        growth, compaction gathers) leave the new arrays frozen too.
        """
        if not self._sanitize:
            yield
            return
        if self._writable_depth == 0:
            self._set_tables_writeable(True)
        self._writable_depth += 1
        try:
            yield
        finally:
            self._writable_depth -= 1
            if self._writable_depth == 0:
                self._set_tables_writeable(False)

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        # Pickles cross process boundaries (the sweep harness ships
        # compiled blobs to workers) and may predate the sanitizer fields:
        # re-evaluate the flag in the receiving process and normalise the
        # writeable flags, which numpy does not reliably round-trip.
        self._sanitize = sanitize_active()
        self._writable_depth = 0
        self._set_tables_writeable(not self._sanitize)
        if self._active_rows is not None:
            self._active_rows.flags.writeable = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_market(cls, market: "ServiceMarket") -> "CompiledMarket":
        """Evaluate the market's cost model once into dense tables.

        The per-pair tables are assembled row-wise from the routing
        table's single-source distance rows, applying the cost model's
        arithmetic (Section II.C / IV.A pricing) in the exact operand and
        association order of the scalar methods — every entry is bit-equal
        to the per-pair ``CostModel`` evaluation, which
        :meth:`verify_against` re-checks whenever runtime invariants are
        armed.
        """
        model = market.cost_model
        net = market.network
        providers = market.providers
        cloudlets = net.cloudlets
        n, m = len(providers), len(cloudlets)
        if m == 0:
            raise ConfigurationError("market network has no cloudlets to compile")

        builder = _ProviderRowBuilder(market, providers)
        budget = model.latency_budget_ms

        instantiation = np.empty(n, dtype=float)
        access = np.empty((n, m), dtype=float)
        update = np.empty((n, m), dtype=float)
        user_delay = np.empty((n, m), dtype=float)
        access_delay = np.empty((n, m), dtype=float) if budget is not None else None
        remote = np.empty(n, dtype=float)
        demand = np.empty((n, 2), dtype=float)
        for i, p in enumerate(providers):
            row = builder.build(p)
            instantiation[i] = row.instantiation
            remote[i] = row.remote
            demand[i] = row.demand
            access[i] = row.access
            update[i] = row.update
            user_delay[i] = row.user_delay
            if access_delay is not None:
                access_delay[i] = row.access_delay

        fixed = instantiation[:, None] + access + update
        if access_delay is not None:
            fixed = np.where(access_delay > budget, np.inf, fixed)

        coeff = np.array([cl.alpha + cl.beta for cl in cloudlets], dtype=float)
        g = np.array([model.congestion(k) for k in range(n + 1)], dtype=float)
        capacity = np.array(
            [[cl.compute_capacity, cl.bandwidth_capacity] for cl in cloudlets],
            dtype=float,
        )

        compiled = cls(
            provider_ids=[p.provider_id for p in providers],
            cloudlet_nodes=[cl.node_id for cl in cloudlets],
            fixed=fixed,
            instantiation=instantiation,
            access=access,
            update=update,
            coeff=coeff,
            g=g,
            demand=demand,
            capacity=capacity,
            remote=remote,
            user_delay=user_delay,
            congestion=model.congestion,
        )
        if invariants_active():
            compiled.verify_against(market)
        return compiled

    # ------------------------------------------------------------------ #
    # Delta recompilation (the mutation protocol's compiled half)
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: "MarketDelta", market: "ServiceMarket") -> None:
        """Patch the tables in place for one :class:`MarketDelta`.

        O(changed rows) instead of a full recompile:

        * price changes rewrite one ``coeff`` entry and one ``shared`` row
          (the same ``coeff * g`` products a fresh compile computes);
        * capacity changes store into the ``(m, 2)`` capacity vector;
        * departures *tombstone* their physical row (``fixed``/``remote``
          scrubbed to ``+inf`` so a stale gather can never look feasible)
          and recycle it through a free list;
        * arrivals reuse tombstoned rows — appending fresh ones only when
          the free list runs dry — with rows built by the same
          :class:`_ProviderRowBuilder` as :meth:`from_market`, so every
          entry is bit-equal to a from-scratch compile;
        * the congestion prefix ``g`` (and the ``shared`` table) grow to
          the new maximum occupancy when the population expands.

        ``market`` must already reflect the delta (call through
        :meth:`ServiceMarket.apply`, which orders the two). After
        :data:`COMPACTION_SLACK` plus one population's worth of tombstones
        accumulate, :meth:`compact` rewrites the tables dense.

        Physical row order is *not* id order after a delta — consumers
        must gather through ``provider_index`` / :attr:`active_rows`
        rather than assume ``row i == i-th provider``.
        """
        # Validate against current state before mutating anything.
        for node in (
            *delta.price_changes,
            *delta.capacity_changes,
            *delta.outages,
            *delta.recoveries,
        ):
            self.cloudlet_col(node)
        missing = [pid for pid in delta.departures if pid not in self.provider_index]
        if missing:
            raise ConfigurationError(
                f"cannot depart unknown provider ids {missing}"
            )
        departing = set(delta.departures)
        dup = [
            p.provider_id
            for p in delta.arrivals
            if p.provider_id in self.provider_index
            and p.provider_id not in departing
        ]
        if dup:
            raise ConfigurationError(f"arriving provider ids {dup} already present")

        with self._writable_tables():
            for node, (alpha, beta) in delta.price_changes.items():
                j = self.cloudlet_index[node]
                self.coeff[j] = alpha + beta
                self.shared[j, :] = self.coeff[j] * self.g
            for node, (cpu, bw) in delta.capacity_changes.items():
                j = self.cloudlet_index[node]
                self.capacity[j, 0] = cpu
                self.capacity[j, 1] = bw
            # Outages/recoveries are capacity patches too: ``market``
            # already reflects the delta (zeroed on outage, nominal
            # restored on recovery), so the cloudlet's live capacities are
            # the new truth.
            for node in (*delta.outages, *delta.recoveries):
                j = self.cloudlet_index[node]
                cl = market.network.cloudlet_at(node)
                self.capacity[j, 0] = cl.compute_capacity
                self.capacity[j, 1] = cl.bandwidth_capacity

            for pid in delta.departures:
                row = self.provider_index.pop(pid)
                self.provider_ids.remove(pid)
                self._free_rows.append(row)
                self.fixed[row, :] = np.inf
                self.remote[row] = np.inf
                self.demand[row, :] = 0.0

            arrivals = sorted(delta.arrivals, key=lambda p: p.provider_id)
            if arrivals:
                grow = len(arrivals) - len(self._free_rows)
                if grow > 0:
                    self._grow_rows(grow)
                builder = _ProviderRowBuilder(market, arrivals)
                for p in arrivals:
                    row = self._free_rows.pop()
                    built = builder.build(p)
                    self.instantiation[row] = built.instantiation
                    self.remote[row] = built.remote
                    self.demand[row] = built.demand
                    self.access[row] = built.access
                    self.update[row] = built.update
                    self.user_delay[row] = built.user_delay
                    self.fixed[row] = builder.fixed_row(built)
                    bisect.insort(self.provider_ids, p.provider_id)
                    self.provider_index[p.provider_id] = row

            self._active_rows = None

            n = len(self.provider_ids)
            if n + 1 > len(self.g):
                new_g = np.array(
                    [self.congestion(k) for k in range(len(self.g), n + 1)],
                    dtype=float,
                )
                self.g = np.concatenate([self.g, new_g])
                self.shared = np.concatenate(
                    [self.shared, self.coeff[:, None] * new_g[None, :]], axis=1
                )

        if len(self._free_rows) > max(COMPACTION_SLACK, n):
            self.compact()
        if invariants_active():
            self.verify_against(market)

    def _grow_rows(self, k: int) -> None:
        """Append ``k`` blank physical rows (pushed onto the free list)."""
        with self._writable_tables():
            old = self.fixed.shape[0]
            m = self.n_cloudlets
            self.fixed = np.vstack([self.fixed, np.full((k, m), np.inf)])
            self.access = np.vstack([self.access, np.zeros((k, m))])
            self.update = np.vstack([self.update, np.zeros((k, m))])
            self.user_delay = np.vstack([self.user_delay, np.zeros((k, m))])
            self.instantiation = np.concatenate([self.instantiation, np.zeros(k)])
            self.remote = np.concatenate([self.remote, np.full(k, np.inf)])
            self.demand = np.vstack([self.demand, np.zeros((k, 2))])
            self._free_rows.extend(range(old, old + k))

    def compact(self) -> None:
        """Rewrite the tables dense — row ``i`` is again the ``i``-th
        provider in id order — dropping tombstoned rows and trimming the
        congestion prefix back to the active occupancy range."""
        with self._writable_tables():
            rows = self.active_rows
            self.fixed = self.fixed[rows]
            self.access = self.access[rows]
            self.update = self.update[rows]
            self.user_delay = self.user_delay[rows]
            self.instantiation = self.instantiation[rows]
            self.remote = self.remote[rows]
            self.demand = self.demand[rows]
            self.provider_index = {pid: i for i, pid in enumerate(self.provider_ids)}
            self._free_rows = []
            self._active_rows = None
            n = len(self.provider_ids)
            if len(self.g) > n + 1:
                self.g = self.g[: n + 1].copy()
                self.shared = np.ascontiguousarray(self.shared[:, : n + 1])

    # ------------------------------------------------------------------ #
    # Shapes and id↔index maps
    # ------------------------------------------------------------------ #
    @property
    def n_providers(self) -> int:
        return len(self.provider_ids)

    @property
    def n_rows(self) -> int:
        """Physical table rows (active providers plus tombstones)."""
        return int(self.fixed.shape[0])

    @property
    def active_rows(self) -> np.ndarray:
        """Physical row of every active provider, in provider-id order.

        The gather consumers must use instead of assuming dense rows: after
        :meth:`apply_delta`, ``fixed[active_rows]`` (etc.) is the same
        table a fresh compile would produce, whatever the physical layout.
        """
        if self._active_rows is None:
            self._active_rows = np.fromiter(
                (self.provider_index[pid] for pid in self.provider_ids),
                dtype=np.int64,
                count=len(self.provider_ids),
            )
            # Handed out by reference on every call: freeze the cache so no
            # caller can scramble the gather order under every other holder.
            self._active_rows.flags.writeable = False
        return self._active_rows

    @property
    def n_cloudlets(self) -> int:
        return len(self.cloudlet_nodes)

    def provider_row(self, provider_id: int) -> int:
        try:
            return self.provider_index[provider_id]
        except KeyError:
            raise ConfigurationError(f"unknown provider id {provider_id}") from None

    def cloudlet_col(self, node: int) -> int:
        try:
            return self.cloudlet_index[node]
        except KeyError:
            raise ConfigurationError(f"node {node} hosts no cloudlet") from None

    # ------------------------------------------------------------------ #
    # Cost queries (all bit-equal to the CostModel evaluations)
    # ------------------------------------------------------------------ #
    def g_at(self, occupancy: int) -> float:
        """``g(k)``, falling back to the congestion function beyond the
        precomputed range (the GAP split can price slots past ``n``)."""
        if occupancy < len(self.g):
            return float(self.g[occupancy])
        return float(self.congestion(occupancy))

    def gap_costs(self) -> np.ndarray:
        """Eq. (9) flat GAP costs ``alpha_i + beta_i + c_l^ins + c_i^bdw``
        as an ``(n, m)`` table (``CostModel.gap_cost`` vectorised)."""
        return self.coeff[None, :] + self.fixed

    def remote_cost(self, provider_id: int) -> float:
        return float(self.remote[self.provider_row(provider_id)])

    # ------------------------------------------------------------------ #
    # Placement state
    # ------------------------------------------------------------------ #
    def occupancy_vector(self, placement: Mapping[int, int]) -> np.ndarray:
        """``|sigma_i|`` per cloudlet column for a placement
        (``provider_id -> cloudlet node_id``)."""
        cols = np.fromiter(
            (self.cloudlet_index[node] for node in placement.values()),
            dtype=np.int64, count=len(placement),
        )
        return np.bincount(cols, minlength=self.n_cloudlets)

    def load_matrix(self, placement: Mapping[int, int]) -> np.ndarray:
        """Per-cloudlet ``(compute, bandwidth)`` loads, accumulated in
        placement order (the same addition order as the object-graph
        aggregators, so values are bit-equal)."""
        loads = np.zeros((self.n_cloudlets, 2), dtype=float)
        for pid, node in placement.items():
            loads[self.cloudlet_index[node]] += self.demand[self.provider_index[pid]]
        return loads

    def fits_mask(self, provider_row: int, loads: np.ndarray) -> np.ndarray:
        """Which cloudlets admit the provider's demand on top of ``loads``
        (capacity only; pair admissibility is ``isfinite(fixed)``)."""
        new_load = loads + self.demand[provider_row]
        return np.all(new_load <= self.capacity + CAPACITY_EPS, axis=1)

    # ------------------------------------------------------------------ #
    # Aggregate costs (Eq. 5–6)
    # ------------------------------------------------------------------ #
    def provider_cost(self, provider_id: int, placement: Mapping[int, int]) -> float:
        """``c_l(sigma_l)`` (Eq. 5) for a placed provider."""
        return float(self.provider_costs(placement, [provider_id])[0])

    def provider_costs(
        self, placement: Mapping[int, int], provider_ids: Sequence[int]
    ) -> np.ndarray:
        """:meth:`provider_cost` for many placed providers at once.

        One occupancy vector and one ``shared[col, occ[col]] +
        fixed[row, col]`` gather serve every id, so entry ``k`` is the same
        double as ``provider_cost(provider_ids[k], placement)`` without
        rebuilding the occupancy per provider.
        """
        rows = np.empty(len(provider_ids), dtype=np.int64)
        cols = np.empty(len(provider_ids), dtype=np.int64)
        for k, pid in enumerate(provider_ids):
            node = placement.get(pid)
            if node is None:
                raise ConfigurationError(
                    f"provider {pid} is unplaced in the given placement"
                )
            rows[k] = self.provider_row(pid)
            cols[k] = self.cloudlet_col(node)
        occ = self.occupancy_vector(placement)
        return self.shared[cols, occ[cols]] + self.fixed[rows, cols]

    def social_cost(self, placement: Mapping[int, int]) -> float:
        """Eq. (6) over the placed providers.

        The congestion and fixed terms come from one vectorised gather;
        the fold runs left-to-right in placement order so the result is
        bit-equal to ``CostModel.social_cost``.
        """
        if not placement:
            return 0.0
        rows = np.fromiter(
            (self.provider_index[pid] for pid in placement), dtype=np.int64,
            count=len(placement),
        )
        cols = np.fromiter(
            (self.cloudlet_index[node] for node in placement.values()),
            dtype=np.int64, count=len(placement),
        )
        occ = np.zeros(self.n_cloudlets, dtype=np.int64)
        np.add.at(occ, cols, 1)
        terms = self.shared[cols, occ[cols]] + self.fixed[rows, cols]
        total = 0.0
        for t in terms.tolist():
            total += t
        return total

    # ------------------------------------------------------------------ #
    # Debug cross-check (armed by REPRO_DEBUG_INVARIANTS=1)
    # ------------------------------------------------------------------ #
    def verify_against(self, market: "ServiceMarket") -> None:
        """Assert every table entry equals its object-graph evaluation.

        Runs at build time when runtime invariants are armed; a mismatch
        means a compiled consumer would silently diverge from the object
        path, so it raises immediately instead.
        """
        from repro.exceptions import InvariantViolation

        model = market.cost_model
        market_ids = [p.provider_id for p in market.providers]
        if market_ids != list(self.provider_ids):
            raise InvariantViolation(
                f"compiled provider ids {self.provider_ids} out of sync with "
                f"market {market_ids}"
            )
        for p in market.providers:
            i = self.provider_index[p.provider_id]
            for j, cl in enumerate(market.network.cloudlets):
                want = model.fixed_cost(p, cl)
                got = float(self.fixed[i, j])
                if got != want and not (np.isinf(got) and np.isinf(want)):
                    raise InvariantViolation(
                        f"compiled fixed[{i},{j}] = {got!r} != object-graph {want!r}"
                    )
            if float(self.remote[i]) != model.remote_cost(p):
                raise InvariantViolation(
                    f"compiled remote[{i}] = {self.remote[i]!r} "
                    f"!= object-graph {model.remote_cost(p)!r}"
                )
            if (
                float(self.demand[i, 0]) != p.compute_demand
                or float(self.demand[i, 1]) != p.bandwidth_demand
            ):
                raise InvariantViolation(
                    f"compiled demand[{i}] = {self.demand[i]!r} out of sync "
                    f"with provider {p.provider_id}"
                )
        for j, cl in enumerate(market.network.cloudlets):
            for k in range(1, self.n_providers + 1):
                want = model.congestion_cost(cl, k)
                if float(self.shared[j, k]) != want:
                    raise InvariantViolation(
                        f"compiled shared[{j},{k}] = {self.shared[j, k]!r} "
                        f"!= object-graph {want!r}"
                    )
            if (
                float(self.capacity[j, 0]) != cl.compute_capacity
                or float(self.capacity[j, 1]) != cl.bandwidth_capacity
            ):
                raise InvariantViolation(
                    f"compiled capacity[{j}] = {self.capacity[j]!r} out of "
                    f"sync with cloudlet {cl.node_id}"
                )

    def __repr__(self) -> str:
        return (
            f"CompiledMarket(providers={self.n_providers}, "
            f"cloudlets={self.n_cloudlets}, congestion={self.congestion!r})"
        )


__all__ = ["COMPACTION_SLACK", "CompiledMarket"]
