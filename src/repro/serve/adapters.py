"""Per-user adapted parameter sets, fine-tuned in grouped calls.

The FUSE deployment story is per-user adaptation: a handful of labelled
frames from a new user fine-tune the meta-learned initialization into a
personal parameter set.  Doing that one user at a time wastes the batched
substrate, so :class:`AdapterRegistry` adapts *populations*: every user in an
:meth:`AdapterRegistry.adapt_many` call becomes one slice of a
``(users, ...)`` parameter tensor and all users share a single grouped
forward/backward per mini-batch through :func:`repro.engine.batched_forward`.

Because task slices are mathematically and bitwise independent, a user
adapted inside a group ends up with exactly the parameters a solo
:meth:`adapt_user` call would have produced — ``tests/serve`` pins this.

Three adaptation scopes, selected by :class:`repro.serve.AdapterPolicy`:

* ``scope="all"`` personalises every layer as full per-user tensors.
  Maximum capacity, but serving must read ~1.1 M parameters per user per
  batch — adapted traffic becomes memory-bound (the throughput benchmark
  documents the cost).
* ``scope="last"`` personalises only the final FC layer (the paper's
  low-cost online regime): the convolutional/FC trunk stays shared — so
  serving runs it once per micro-batch through the batch-invariant kernel —
  and each user owns just a ``(57, 512)`` head.
* ``scope="lora"`` personalises *every* layer through rank-``r`` low-rank
  deltas: the shared base weights are frozen and each user owns per-layer
  ``(A, B)`` factor pairs with ``delta = B @ A``, trained through the
  grouped low-rank kernels (:func:`repro.engine.lowrank_forward`) so the
  dense delta is never materialized.  Each layer's shared-base product runs
  once over the whole cohort's frames, in fixed-shape blocks of
  :data:`repro.nn.backend.FOLD_FRAMES` frames, so a cohort shares the base
  GEMMs while every user's rows stay bitwise what a solo run computes; a solo
  :meth:`adapt_user` pays for padding its frames to a full block.  Per-user
  memory drops from ``O(in * out)`` to ``O(r * (in + out))`` — full-network
  personalization at close to last-layer cost, the route to millions of
  resident users.

Around the parameter store sits the **adapter lifecycle**: the in-memory
store is the *hot* tier, bounded by ``policy.hot_capacity`` with
least-recently-served demotion.  With ``policy.spill_dir`` set, every
adaptation is written through to a per-user spill file, so a demoted user
lands in the *warm* tier (on disk, promoted back transparently on the next
access) instead of vanishing; ``policy.warm_capacity`` bounds the spill
files before the coldest users are dropped entirely (*cold* — re-onboard on
demand).  Because spill files are written through at adaptation time, they
double as crash persistence: a restarted process pointed at the same spill
directory re-attaches every warm user.  A spill file is a flat CRC-checked
record (:func:`repro.nn.serialization.save_record`), so a promotion costs
one file read, one CRC check and zero-copy array views; checkpoints and
migration bytes stay ``.npz``.

The registry also answers the serving hot path: :meth:`gather` stacks the
parameter sets of the users in one micro-batch into ``(tasks, ...)`` tensors.
Two cache levels back it: a hot-tier ``(rows, ...)`` stack (each gather is
one vectorized row-index into it, never a per-user Python-level restack),
and a small LRU of recently served batch compositions that skips even the
row copy for exact repeats.  The stack survives tier moves: a demotion frees
its user's row and a promotion writes the promoted user into a free row, so
hot-tier churn costs one user's bytes per move.  It is rebuilt, sized to the
hot population, only when a promotion finds no free row or when adaptation
of new users, :meth:`remove`, :meth:`load` or :meth:`import_user_bytes`
changes the cohort.  Steady-state traffic therefore hits on every
micro-batch regardless of how batch boundaries drift across the user cohort
or how often it churns the hot tier — the ``param_cache`` hit rate in
:class:`repro.serve.ServeMetrics` counts a rebuild of the stack as the only
miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .. import nn
from ..core.models import PoseCNN
from ..dataset.loader import ArrayDataset
from ..engine.functional import (
    batched_forward,
    gradient_step,
    lowrank_forward,
    lowrank_parameters,
    lowrank_shapes,
    replicate_parameters,
    supports_batched_execution,
)
from ..nn.serialization import (
    load_record,
    load_state,
    load_state_bytes,
    read_record_header,
    save_record,
    save_state,
    save_state_bytes,
    state_checksum,
)
from ..runtime.seeding import seed_for_key
from .faults import FaultInjector
from .kernel import SharedParameterKernel
from .metrics import ServeMetrics
from .policy import AdapterPolicy

__all__ = ["AdapterRegistry"]

#: on-disk schema of :meth:`AdapterRegistry.save` and the spill files; the
#: ``rank`` field makes low-rank factor archives self-describing.  Archives
#: of any other format are rejected with an error naming their format.
SAVE_FORMAT = 2

_SPILL_PREFIX = "user-"
_SPILL_SUFFIX = ".spill"
#: spill files of the earlier layout, converted to records at attach
_LEGACY_SPILL_SUFFIX = ".npz"

_log = logging.getLogger(__name__)


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


class AdapterRegistry:
    """Stores per-user adapted parameter sets and produces them in bulk.

    Parameters
    ----------
    model:
        The shared base model whose parameters seed every adaptation.  The
        registry never mutates it.
    policy:
        The :class:`repro.serve.AdapterPolicy` governing everything here:
        adaptation scope and hyper-parameters, the low-rank ``rank``, and the
        hot/warm/cold tier budgets.  ``None`` uses the default policy
        (``scope="all"``, the paper's ~5-epoch online regime).
    gather_cache_size:
        Number of recently used ``(tasks, ...)`` parameter stacks memoized
        for the serving hot path.
    metrics:
        Optional :class:`ServeMetrics` receiving cache, adaptation and
        tier-lifecycle events.
    gemm_block:
        Block width of the trunk-embedding kernel under ``scope="last"``
        (matched to the server's ``gemm_block`` so embeddings agree bitwise
        with the serving path).
    fault_injector:
        Optional :class:`repro.serve.FaultInjector` for deterministic
        chaos testing; its ``corrupt_spill`` rules mangle just-written
        spill records so the CRC/quarantine path can be exercised on a
        schedule.  ``None`` (the default) injects nothing.
    """

    def __init__(
        self,
        model: PoseCNN,
        policy: Optional[AdapterPolicy] = None,
        gather_cache_size: int = 8,
        metrics: Optional[ServeMetrics] = None,
        gemm_block: int = 32,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.model = model
        self.policy: AdapterPolicy = policy if policy is not None else AdapterPolicy()
        if gather_cache_size < 1:
            raise ValueError("gather_cache_size must be >= 1")
        if self.policy.scope == "last":
            head = model.last_layer
            if not isinstance(head, nn.Linear):
                raise ValueError("scope='last' requires the final layer to be Linear")
            trunk = nn.Sequential(*list(model.network)[:-1])
            self._trunk_kernel: Optional[SharedParameterKernel] = SharedParameterKernel(
                trunk, block=gemm_block
            )
            self._head_init = [head.weight.data.copy()]
            if head.bias is not None:
                self._head_init.append(head.bias.data.copy())
            self._lora_base: List[nn.Tensor] = []
        elif self.policy.scope == "lora":
            # The adaptable-layer census doubles as the architecture check;
            # the base snapshot is what lowrank_forward serves against and
            # deliberately does not require gradients — adaptation trains
            # only the rank-r factors.
            lowrank_shapes(model)
            self._trunk_kernel = None
            self._head_init = []
            self._lora_base = [nn.Tensor(p.data.copy()) for p in model.parameters()]
        else:
            # The task-batched training kernels are only required once
            # adaptation actually runs (checked in _adapt_group), so a model
            # they cannot handle — e.g. with active dropout — still serves
            # base traffic through a registry-less route.
            self._trunk_kernel = None
            self._head_init = []
            self._lora_base = []
        self.metrics = metrics
        self.fault_injector = fault_injector
        self.version = 0
        # Hot tier: in-memory parameter sets, LRU-ordered by last access.
        self._params: "OrderedDict[Hashable, List[np.ndarray]]" = OrderedDict()
        # Warm tier: users whose parameters live only in their spill file,
        # LRU-ordered by demotion time.  `_spill_paths` tracks the current
        # spill file of *every* spilled user, hot or warm (write-through
        # keeps the file in sync with memory, so demotion is a pure drop).
        self._warm: "OrderedDict[Hashable, Path]" = OrderedDict()
        self._spill_paths: Dict[Hashable, Path] = {}
        # Cold: users whose state was dropped entirely — only their ids are
        # remembered, so the registry can report a cold miss distinct from
        # "never adapted".
        self._cold: Set[Hashable] = set()
        self._gather_cache: "OrderedDict[Tuple, List[nn.Tensor]]" = OrderedDict()
        self._gather_cache_size = gather_cache_size
        # Hot-tier (rows, ...) stack; the steady-state gather path
        # row-indexes into it instead of restacking per-user arrays batch by
        # batch.  Tier moves keep it current in place: a demoted user's row
        # joins `_free_rows` and a promoted user fills one.  Dropped (and
        # rebuilt lazily by the next gather) when no free row fits.
        self._stack: Optional[List[np.ndarray]] = None
        self._stack_rows: Dict[Hashable, int] = {}
        self._free_rows: List[int] = []
        self._stack_version = -1
        self._spill_dir = self.policy.spill_path()
        if self._spill_dir is not None:
            self._spill_dir.mkdir(parents=True, exist_ok=True)
            self._attach_spill_dir()

    @property
    def scope(self) -> str:
        """Which layers are personalised: ``"all"``, ``"last"`` or ``"lora"``."""
        return self.policy.scope

    def trunk_embed(self, features: np.ndarray) -> np.ndarray:
        """The shared-trunk embedding under ``scope="last"`` (batch-invariant)."""
        if self._trunk_kernel is None:
            raise ValueError("trunk_embed is only available with scope='last'")
        return self._trunk_kernel.predict(features)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of resident (hot + warm) users."""
        return len(self._params) + len(self._warm)

    def __contains__(self, user_id: Hashable) -> bool:
        """Whether the user is resident (hot or warm) — cold users are not."""
        return user_id in self._params or user_id in self._warm

    @property
    def user_ids(self) -> List[Hashable]:
        return list(self._params) + list(self._warm)

    def tier_sizes(self) -> Dict[str, int]:
        """Current population of each lifecycle tier."""
        return {"hot": len(self._params), "warm": len(self._warm), "cold": len(self._cold)}

    def resident_bytes(self, user_id: Hashable) -> int:
        """Bytes of in-memory (hot-tier) parameter state the user would occupy.

        This is the per-user cost the lifecycle budgets govern: for
        ``scope="all"`` the full parameter set, for ``scope="lora"`` just the
        rank-r factors.  Warm users are promoted to answer (their hot-tier
        footprint is the question being asked).
        """
        params = self._lookup(user_id, record=False)
        if params is None:
            raise KeyError(f"no adapted parameters for user {user_id!r}")
        return sum(int(array.nbytes) for array in params)

    def parameters_for(self, user_id: Hashable) -> Optional[List[np.ndarray]]:
        """The user's adapted parameters as read-only views, or ``None``.

        Under ``scope="all"`` these follow ``model.parameters()`` order;
        under ``scope="last"`` they are the personal head's
        ``[weight, bias]``; under ``scope="lora"`` the per-layer factors
        ``[a0, b0, a1, b1, ...]``.  A warm user is transparently promoted.
        """
        params = self._lookup(user_id, record=False)
        if params is None:
            return None
        return [_readonly(p) for p in params]

    # ------------------------------------------------------------------
    # Adaptation
    # ------------------------------------------------------------------
    def adapt_user(
        self, user_id: Hashable, dataset: ArrayDataset, epochs: Optional[int] = None
    ) -> List[np.ndarray]:
        """Fine-tune one user's parameter set from the shared base model."""
        return self.adapt_many({user_id: dataset}, epochs=epochs)[user_id]

    def adapt_many(
        self,
        datasets: Mapping[Hashable, ArrayDataset],
        epochs: Optional[int] = None,
    ) -> Dict[Hashable, List[np.ndarray]]:
        """Fine-tune many users at once through the task-batched kernels.

        Users whose adaptation sets have equal sizes share one grouped
        forward/backward per mini-batch (one ``(users, ...)`` parameter
        tensor); unequal sizes are grouped by size so every set still runs
        grouped with its peers.  Each user's slice starts from the shared
        base parameters and follows exactly the update sequence a solo
        adaptation would — results are bitwise identical to
        :meth:`adapt_user` per user.  (Under ``scope="lora"`` the factor
        initialization is seeded per user, so a user's trajectory is also
        independent of which peers share the grouped call.)
        """
        if not datasets:
            raise ValueError("at least one adaptation set is required")
        by_size: Dict[int, List[Hashable]] = {}
        for user_id, dataset in datasets.items():
            if len(dataset) == 0:
                raise ValueError(f"adaptation set of user {user_id!r} is empty")
            by_size.setdefault(len(dataset), []).append(user_id)

        adapted: Dict[Hashable, List[np.ndarray]] = {}
        for size in sorted(by_size):
            users = by_size[size]
            group = self._adapt_group(
                users, [datasets[user] for user in users], size, epochs
            )
            adapted.update(group)

        for user_id, params in adapted.items():
            self._params[user_id] = params
            self._params.move_to_end(user_id)
            self._warm.pop(user_id, None)
            self._cold.discard(user_id)
            self._write_spill(user_id, params)
        self._absorb_adaptation(adapted)
        self._enforce_budgets()
        if self.metrics is not None:
            self.metrics.record_adaptation(len(adapted))
        return adapted

    def _adapt_group(
        self,
        users: Sequence[Hashable],
        datasets: Sequence[ArrayDataset],
        size: int,
        epochs: Optional[int],
    ) -> Dict[Hashable, List[np.ndarray]]:
        """One grouped adaptation over equally sized sets."""
        policy = self.policy
        epochs = epochs if epochs is not None else policy.epochs
        num_users = len(users)
        batch_size = min(policy.batch_size, size)
        labels = np.stack([dataset.labels for dataset in datasets])

        if policy.scope == "last":
            # The trunk is shared and frozen: embed every calibration frame
            # in one batch-invariant kernel pass (per-frame results are
            # independent of the concatenation), then the personal head is a
            # tiny grouped linear problem.
            stacked = self.trunk_embed(
                np.concatenate([dataset.features for dataset in datasets])
            )
            features = stacked.reshape(num_users, size, -1)
            params = [
                nn.Tensor(
                    np.broadcast_to(p, (num_users, *p.shape)).copy(), requires_grad=True
                )
                for p in self._head_init
            ]

            def forward(p: List[nn.Tensor], x: nn.Tensor) -> nn.Tensor:
                return nn.linear_batched(x, p[0], p[1] if len(p) > 1 else None)
        elif policy.scope == "lora":
            # The base stays frozen; each user trains only per-layer rank-r
            # factors.  Factor initialization is seeded by the user id, not
            # the group slot, so the trajectory is bitwise independent of
            # which peers (if any) share the grouped call.
            features = np.stack([dataset.features for dataset in datasets])
            seeds = [
                seed_for_key("lora-init", policy.seed, repr(user)) for user in users
            ]
            params = lowrank_parameters(self.model, policy.rank, seeds)
            base = self._lora_base

            def forward(p: List[nn.Tensor], x: nn.Tensor) -> nn.Tensor:
                return lowrank_forward(self.model, base, p, x)
        else:
            if not supports_batched_execution(self.model):
                raise ValueError(
                    "model architecture has no task-batched kernels; "
                    "scope='all' adaptation is unavailable (scope='last' may still work)"
                )
            features = np.stack([dataset.features for dataset in datasets])
            params = replicate_parameters(self.model, num_users)

            def forward(p: List[nn.Tensor], x: nn.Tensor) -> nn.Tensor:
                return batched_forward(self.model, p, x)

        for epoch in range(epochs):
            # Mirror BatchLoader's shuffling so grouped and solo adaptation
            # consume mini-batches in the same order.
            indices = np.arange(size)
            if policy.shuffle:
                indices = np.random.default_rng(policy.seed + epoch).permutation(size)
            for start in range(0, size, batch_size):
                batch = indices[start : start + batch_size]
                x = nn.Tensor(features[:, batch])
                y = nn.Tensor(labels[:, batch])
                predictions = forward(params, x)
                losses = nn.per_task_loss(predictions, y, policy.loss)
                losses.sum().backward()
                params = gradient_step(params, policy.learning_rate)

        return {
            user: [stacked.data[slot].copy() for stacked in params]
            for slot, user in enumerate(users)
        }

    # ------------------------------------------------------------------
    # Lifecycle tiers
    # ------------------------------------------------------------------
    def _lookup(
        self, user_id: Hashable, record: bool = True
    ) -> Optional[List[np.ndarray]]:
        """Resolve a user's parameters across tiers, promoting warm users.

        Hot users are touched (LRU refresh); warm users are promoted into the
        hot tier; cold and unknown users return ``None`` (a known-cold miss
        is recorded distinctly from never-adapted traffic).
        """
        params = self._params.get(user_id)
        if params is not None:
            self._params.move_to_end(user_id)
            if record and self.metrics is not None:
                self.metrics.record_adapter_access("hot")
            return params
        if user_id in self._warm:
            params = self._promote(user_id)
            if params is not None:
                if record and self.metrics is not None:
                    self.metrics.record_adapter_access("warm")
                return params
            # Quarantined on promotion: the user is now cold and serves
            # from the base model until re-onboarded.
            if record and self.metrics is not None:
                self.metrics.record_adapter_access("cold")
            return None
        if record and self.metrics is not None and user_id in self._cold:
            self.metrics.record_adapter_access("cold")
        return None

    def _promote(
        self, user_id: Hashable, protect: Set[Hashable] = frozenset()
    ) -> Optional[List[np.ndarray]]:
        """Load a warm user's spill file back into the hot tier.

        A spill file that fails to load or verify is quarantined (see
        :meth:`_read_spill`) and ``None`` returned, so the caller serves the
        base model instead of crashing the whole flush.  Graceful
        degradation, visible in the ``spill_quarantined`` counter and one
        log line.
        """
        params = self._read_spill(user_id)
        if params is None:
            return None
        del self._warm[user_id]
        self._params[user_id] = params
        self._params.move_to_end(user_id)
        # The spill file stays current (write-through), so a later demotion
        # of this user is again a pure in-memory drop.  Demote first: the
        # users pushed out free the stack row the promoted user fills.
        self._enforce_budgets(protect={user_id} | set(protect))
        self._fill_free_row(user_id, params)
        return params

    def _read_spill(self, user_id: Hashable) -> Optional[List[np.ndarray]]:
        """Read and verify a warm user's spill record, without promoting them.

        The one spill reader after attach: promotion, :meth:`save` and
        :meth:`export_user_bytes` all come here, so every read checks the
        record's CRC and schema.  A record that fails — torn, corrupted,
        wrong schema — is *quarantined* (renamed aside for forensics, out of
        the attach scan), the user demoted to cold, and ``None`` returned.
        """
        path = self._warm[user_id]
        try:
            state, metadata = load_record(path)
            self._validate_archive(metadata, path, spill=True)
        except (OSError, ValueError) as exc:
            self._quarantine_spill(path, exc, user_id)
            return None
        return [state[key] for key in sorted(state)]

    @staticmethod
    def _verify_checksum(
        state: Mapping[str, np.ndarray], metadata: Optional[Dict], path
    ) -> None:
        """Verify an archive's recorded CRC32 against its loaded tensors.

        Archives written before checksums existed carry no ``checksum``
        field and load unverified — the format stays backward compatible.
        """
        expected = (metadata or {}).get("checksum")
        if expected is None:
            return
        actual = state_checksum(dict(state))
        if int(expected) != actual:
            raise ValueError(
                f"{path} failed checksum verification "
                f"(stored {expected}, computed {actual})"
            )

    def _quarantine_spill(
        self, path: Path, reason: Exception, user_id: Optional[Hashable] = None
    ) -> None:
        """Set a bad spill file aside, demote its user to cold, and log why.

        Each quarantine logs exactly one JSON warning on the
        ``repro.serve.adapters`` logger (``event``, ``user``, ``path``,
        ``reason``), so log lines reconcile with ``spill_quarantined``; a
        failed rename is reported in the same line as ``rename_error``.
        """
        entry = {
            "event": "spill_quarantined",
            "user": user_id,
            "path": str(path),
            "reason": f"{type(reason).__name__}: {reason}",
        }
        try:
            path.replace(path.with_name(path.name + ".quarantined"))
        except OSError as exc:
            entry["rename_error"] = f"{type(exc).__name__}: {exc}"
        _log.warning(json.dumps(entry, default=repr))
        if user_id is not None:
            self._spill_paths.pop(user_id, None)
            self._warm.pop(user_id, None)
            self._cold.add(user_id)
        if self.metrics is not None:
            self.metrics.record_spill_quarantined()

    def _enforce_budgets(self, protect: Set[Hashable] = frozenset()) -> None:
        """Demote past-budget users: hot → warm (or cold), warm → cold."""
        hot_capacity = self.policy.hot_capacity
        if hot_capacity is not None and len(self._params) > hot_capacity:
            evictable = [user for user in self._params if user not in protect]
            evicted = False
            while len(self._params) > hot_capacity and evictable:
                user = evictable.pop(0)
                del self._params[user]
                evicted = True
                row = self._stack_rows.pop(user, None)
                if row is not None:
                    self._free_rows.append(row)
                if user in self._spill_paths:
                    self._warm[user] = self._spill_paths[user]
                    if self.metrics is not None:
                        self.metrics.record_adapter_demotion("warm")
                else:
                    self._cold.add(user)
                    if self.metrics is not None:
                        self.metrics.record_adapter_demotion("cold")
            if evicted:
                self._stack_moved()
        warm_capacity = self.policy.warm_capacity
        if warm_capacity is not None:
            while len(self._warm) > warm_capacity:
                user, path = self._warm.popitem(last=False)
                path.unlink(missing_ok=True)
                del self._spill_paths[user]
                self._cold.add(user)
                if self.metrics is not None:
                    self.metrics.record_adapter_demotion("cold")

    def _attach_spill_dir(self) -> None:
        """Register existing spill files as warm users (restart re-attach).

        This is what lets adapter state survive a worker-process crash: the
        restarted process scans ``policy.spill_dir`` and every previously
        spilled user comes back warm, promoted on their next request.  Only
        record headers are read here; the CRC is checked on every full read.
        """
        for path in sorted(self._spill_dir.glob(f"{_SPILL_PREFIX}*{_LEGACY_SPILL_SUFFIX}")):
            self._convert_legacy_spill(path)
        for path in sorted(self._spill_dir.glob(f"{_SPILL_PREFIX}*{_SPILL_SUFFIX}")):
            try:
                metadata = read_record_header(path)
            except (OSError, ValueError) as exc:
                # An unreadable (truncated, corrupted) file must not block
                # the restart — quarantine it and keep scanning; its user
                # re-onboards from the base model.  Policy mismatches below
                # still raise: a wrong-rank archive is an operator error,
                # not data corruption.
                self._quarantine_spill(path, exc)
                continue
            if not metadata or "user" not in metadata:
                continue
            self._validate_archive(metadata, path, spill=True)
            user_id = self._decode_user(metadata["user"])
            if user_id not in self._params:
                self._warm[user_id] = path
            self._spill_paths[user_id] = path

    def _convert_legacy_spill(self, path: Path) -> None:
        """Rewrite one ``.npz`` spill file of the earlier layout as a record.

        The file is read through the checkpoint path — :func:`load_state`,
        schema validation, and the recorded checksum when it has one — and a
        file that fails is quarantined, as its promotion would have done.
        The record replaces it, so a restart after an upgrade keeps its warm
        users while serving reads spills through one reader only.
        """
        try:
            state, metadata = load_state(path)
        except Exception as exc:  # a damaged zip fails in many ways
            self._quarantine_spill(path, exc)
            return
        if not metadata or "user" not in metadata:
            return
        self._validate_archive(metadata, path, spill=True)
        user_id = self._decode_user(metadata["user"])
        try:
            self._verify_checksum(state, metadata, path)
        except ValueError as exc:
            self._quarantine_spill(path, exc, user_id)
            return
        self._write_spill(user_id, [state[key] for key in sorted(state)])
        path.unlink()

    def _write_spill(self, user_id: Hashable, params: Sequence[np.ndarray]) -> None:
        """Write-through one user's parameters to their spill record."""
        if self._spill_dir is None:
            return
        encoded = self._encode_user(user_id)
        digest = hashlib.sha1(repr(encoded).encode("utf-8")).hexdigest()[:16]
        path = self._spill_dir / f"{_SPILL_PREFIX}{digest}{_SPILL_SUFFIX}"
        state = {f"p{slot:03d}": array for slot, array in enumerate(params)}
        save_record(state, path, metadata=self._archive_metadata(user=encoded))
        self._spill_paths[user_id] = path
        if (
            self.fault_injector is not None
            and self.fault_injector.check("corrupt_spill", "spill") is not None
        ):
            self.fault_injector.corrupt_file(path)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_user(user_id: Hashable) -> List:
        if isinstance(user_id, bool) or not isinstance(user_id, (str, int)):
            raise TypeError(
                f"only str/int user ids are persistable, got {type(user_id).__name__}"
            )
        return ["str" if isinstance(user_id, str) else "int", user_id]

    @staticmethod
    def _decode_user(encoded: Sequence) -> Hashable:
        kind, value = encoded
        return str(value) if kind == "str" else int(value)

    def _archive_metadata(self, **extra) -> Dict:
        metadata = {"format": SAVE_FORMAT, "scope": self.scope}
        if self.scope == "lora":
            metadata["rank"] = self.policy.rank
        metadata.update(extra)
        return metadata

    def _validate_archive(self, metadata: Optional[Dict], path, spill: bool = False) -> None:
        """Check an archive's schema against this registry's policy.

        Raises a readable error on any mismatch instead of letting a wrong
        archive surface later as a shape crash inside a gather.
        """
        kind = "spill file" if spill else "checkpoint"
        if not metadata or "format" not in metadata:
            raise ValueError(f"{path} is not an adapter-registry {kind}")
        if metadata["format"] != SAVE_FORMAT:
            raise ValueError(
                f"{kind} {path} is a format-{metadata['format']} archive; "
                f"this registry reads format {SAVE_FORMAT} only"
            )
        archive_scope = metadata.get("scope")
        if archive_scope != self.scope:
            raise ValueError(
                f"{kind} {path} was saved with scope='{archive_scope}', "
                f"registry policy has scope='{self.scope}'"
            )
        if self.scope == "lora":
            archive_rank = metadata.get("rank")
            if archive_rank != self.policy.rank:
                raise ValueError(
                    f"{kind} {path} holds rank-{archive_rank} factors, "
                    f"registry policy has rank={self.policy.rank}"
                )

    def save(self, path: Union[str, Path]) -> Path:
        """Persist every resident user's parameter set to an ``.npz`` archive.

        Built on :mod:`repro.nn.serialization`: pure-NumPy arrays plus a JSON
        metadata block (format version, adaptation scope, low-rank rank, user
        ids), no pickled code objects.  Both hot and warm users are included
        (warm users are read from their spill records without promotion; a
        record that fails verification is quarantined and its user left
        out).  User ids must be strings or integers — the hashables a JSON
        round trip preserves.
        """
        state: Dict[str, np.ndarray] = {}
        users: List[List] = []
        entries = list(self._params.items())
        for user in list(self._warm):
            params = self._read_spill(user)
            if params is not None:
                entries.append((user, params))
        for index, (user_id, params) in enumerate(entries):
            users.append(self._encode_user(user_id))
            for slot, array in enumerate(params):
                # Zero-padded slots keep the lexicographic key order equal to
                # the parameter order on reload.
                state[f"user{index:06d}.p{slot:03d}"] = array
        return save_state(
            state,
            path,
            metadata=self._archive_metadata(users=users, checksum=state_checksum(state)),
        )

    def load(self, path: Union[str, Path], replace: bool = True) -> List[Hashable]:
        """Restore adapted parameter sets saved by :meth:`save`.

        Reads :data:`SAVE_FORMAT` archives only; another format, a
        mismatched scope or a mismatched rank raises a readable error.

        ``replace=True`` (default) makes the registry contents equal the
        archive's — current users (including warm spill files) are dropped
        first; ``replace=False`` merges, with loaded users overwriting any
        existing parameter set of the same id.  Loaded users enter the hot
        tier and are written through to the spill directory when one is
        configured.  Returns the loaded user ids.
        """
        state, metadata = load_state(path)
        self._validate_archive(metadata, path)
        self._verify_checksum(state, metadata, path)
        # One pass over the (sorted-once) keys; zero-padded user and slot
        # indices make lexicographic order equal to parameter order.
        by_user: Dict[str, List[np.ndarray]] = {}
        for key in sorted(state):
            prefix, _, _ = key.partition(".")
            by_user.setdefault(prefix, []).append(state[key])
        loaded: "OrderedDict[Hashable, List[np.ndarray]]" = OrderedDict()
        for index, encoded in enumerate(metadata["users"]):
            params = by_user.get(f"user{index:06d}")
            if not params:
                raise ValueError(f"checkpoint is missing parameters for user #{index}")
            loaded[self._decode_user(encoded)] = params
        if replace:
            for stale in set(self._spill_paths) - set(loaded):
                self._spill_paths.pop(stale).unlink(missing_ok=True)
            self._params = loaded
            self._warm.clear()
            self._cold.clear()
        else:
            for user_id, params in loaded.items():
                self._params[user_id] = params
                self._params.move_to_end(user_id)
                self._warm.pop(user_id, None)
                self._cold.discard(user_id)
        for user_id, params in loaded.items():
            self._write_spill(user_id, params)
        self._invalidate_gather_state()
        self._enforce_budgets()
        return list(loaded)

    def export_user_bytes(self, user_id: Hashable) -> Optional[bytes]:
        """One user's parameter set as portable ``.npz`` bytes, or ``None``.

        The archive carries the same format-2 metadata as a spill file
        (format/scope/rank plus the encoded user id), so the importing
        registry validates schema compatibility before accepting it.  Warm
        users are read without promotion; cold/unknown users return ``None``,
        and so does a warm user whose spill record fails verification (it is
        quarantined, so corrupted factors never travel under a fresh
        checksum).  This is the unit of adapter state that live user
        migration moves over the wire.
        """
        params = self._params.get(user_id)
        if params is None and user_id in self._warm:
            params = self._read_spill(user_id)
        if params is None:
            return None
        state = {f"p{slot:03d}": array for slot, array in enumerate(params)}
        return save_state_bytes(
            state,
            metadata=self._archive_metadata(
                user=self._encode_user(user_id), checksum=state_checksum(state)
            ),
        )

    def import_user_bytes(self, user_id: Hashable, data: bytes) -> None:
        """Install one user's parameter set from :meth:`export_user_bytes` output.

        Scope/rank/format mismatches raise the same readable errors as spill
        and checkpoint loads.  The user enters the hot tier (their adapted
        predictions are about to be served here) and is written through to
        the spill directory when one is configured.
        """
        state, metadata = load_state_bytes(data)
        self._validate_archive(metadata, "<migrated archive>")
        self._verify_checksum(state, metadata, "<migrated archive>")
        encoded = metadata.get("user") if metadata else None
        if encoded is not None and self._decode_user(encoded) != user_id:
            raise ValueError(
                f"migrated archive belongs to user "
                f"{self._decode_user(encoded)!r}, not {user_id!r}"
            )
        params = [state[key] for key in sorted(state)]
        if not params:
            raise ValueError("migrated archive holds no parameter tensors")
        self._params[user_id] = params
        self._params.move_to_end(user_id)
        self._warm.pop(user_id, None)
        self._cold.discard(user_id)
        self._write_spill(user_id, params)
        self._invalidate_gather_state()
        self._enforce_budgets()

    def remove(self, user_id: Hashable) -> bool:
        """Forget one user entirely (all tiers); returns whether they existed."""
        existed = self._params.pop(user_id, None) is not None
        existed = self._warm.pop(user_id, None) is not None or existed
        spill = self._spill_paths.pop(user_id, None)
        if spill is not None:
            spill.unlink(missing_ok=True)
        self._cold.discard(user_id)
        if existed:
            self._invalidate_gather_state()
        return existed

    def _invalidate_gather_state(self) -> None:
        """Registry contents changed: bump the version, drop both caches."""
        self.version += 1
        self._gather_cache.clear()
        self._stack = None
        self._stack_rows = {}
        self._free_rows = []

    def _stack_moved(self) -> None:
        """Stack rows changed in place: bump the version, drop only the memo.

        A memoized composition may hold a row's old values; the stack itself
        was updated, so it stays current.
        """
        self.version += 1
        self._gather_cache.clear()
        if self._stack is not None:
            self._stack_version = self.version

    def _fill_free_row(self, user_id: Hashable, params: Sequence[np.ndarray]) -> None:
        """Write a promoted user into a free stack row, or drop the stack.

        In place only when a row is free and every tensor has its block's
        shape and dtype, so the row holds exactly what a rebuild's
        ``np.stack`` would; otherwise the next gather rebuilds.
        """
        stack = self._stack
        if (
            stack is None
            or not self._free_rows
            or len(params) != len(stack)
            or any(
                array.shape != block.shape[1:] or array.dtype != block.dtype
                for block, array in zip(stack, params)
            )
        ):
            self._invalidate_gather_state()
            return
        row = self._free_rows.pop()
        for block, array in zip(stack, params):
            block[row] = array
        self._stack_rows[user_id] = row
        self._stack_moved()

    def _absorb_adaptation(self, adapted: Mapping[Hashable, List[np.ndarray]]) -> None:
        """Fold fresh adaptations into the gather state without a rebuild.

        Composition memos always die (the values changed), but the hot-tier
        stack survives a re-adaptation of *existing* users: their rows are
        overwritten in place, so a deployment that adapts users while
        serving pays O(adapted) per call instead of restacking the whole
        cohort on the next gather.  New users still invalidate the stack
        (their rows do not exist yet).
        """
        if self._stack is None or any(user not in self._stack_rows for user in adapted):
            self._invalidate_gather_state()
            return
        for user, params in adapted.items():
            row = self._stack_rows[user]
            for block, array in zip(self._stack, params):
                block[row] = array
        self._stack_moved()

    # ------------------------------------------------------------------
    # Serving hot path
    # ------------------------------------------------------------------
    def gather(self, user_ids: Sequence[Hashable]) -> List[nn.Tensor]:
        """Stack the users' parameter sets into ``(tasks, ...)`` tensors.

        The result feeds :func:`repro.engine.batched_forward` (or the
        low-rank kernels, for ``scope="lora"`` factor stacks) directly.  Warm
        users are transparently promoted to the hot tier first; requesting a
        cold or unknown user raises :class:`KeyError` (the caller re-onboards
        on demand).  An exact composition repeat returns the memoized
        tensors; any other composition row-indexes the hot-tier stack (one
        vectorized copy per parameter tensor).  The stack survives tier
        moves — a promotion writes one row that its demotions freed, and
        re-adapting existing users overwrites their rows — so the only cache
        *miss* is a rebuild: after adaptation of new users, :meth:`remove`,
        :meth:`load` or :meth:`import_user_bytes`, or a promotion that found
        no free row.  Steady-state serving hits on every micro-batch even
        when batch boundaries drift across the user cohort (the bug the old
        composition-keyed cache had: with 50 users and 64-wide batches no
        composition ever repeated inside the LRU window, so the hit rate
        pinned at 0) and when the working set churns the hot tier.
        """
        if not user_ids:
            raise ValueError("at least one user is required")
        missing = []
        composition = set(user_ids)
        for user in dict.fromkeys(user_ids):
            if user in self._params:
                self._params.move_to_end(user)
                if self.metrics is not None:
                    self.metrics.record_adapter_access("hot")
            elif user in self._warm:
                promoted = self._promote(user, protect=composition)
                if promoted is not None:
                    if self.metrics is not None:
                        self.metrics.record_adapter_access("warm")
                else:
                    # Spill file quarantined during promotion: the user is
                    # now cold and must re-onboard from the base model.
                    if self.metrics is not None:
                        self.metrics.record_adapter_access("cold")
                    missing.append(user)
            else:
                if self.metrics is not None and user in self._cold:
                    self.metrics.record_adapter_access("cold")
                missing.append(user)
        if missing:
            raise KeyError(f"no adapted parameters for users {missing!r}")
        key = (self.version, tuple(user_ids))
        cached = self._gather_cache.get(key)
        if cached is not None:
            self._gather_cache.move_to_end(key)
            if self.metrics is not None:
                self.metrics.record_param_cache(hit=True)
            return cached
        hit = self._stack is not None and self._stack_version == self.version
        if not hit:
            users = list(self._params)
            per_param = zip(*(self._params[user] for user in users))
            self._stack = [np.stack(arrays) for arrays in per_param]
            self._stack_rows = {user: row for row, user in enumerate(users)}
            self._free_rows = []
            self._stack_version = self.version
        if self.metrics is not None:
            self.metrics.record_param_cache(hit=hit)
        rows = [self._stack_rows[user] for user in user_ids]
        stacked = [nn.Tensor(block[rows]) for block in self._stack]
        self._gather_cache[key] = stacked
        while len(self._gather_cache) > self._gather_cache_size:
            self._gather_cache.popitem(last=False)
        return stacked
