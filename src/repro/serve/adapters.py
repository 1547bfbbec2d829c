"""Per-user adapted parameter sets, fine-tuned from a few labelled frames.

The FUSE deployment story is per-user adaptation: a handful of labelled
frames from a new user fine-tune the meta-learned initialization into a
personal parameter set.  :class:`AdapterRegistry` adapts *populations*
(:meth:`AdapterRegistry.adapt_many`), and a user adapted among peers ends up
with exactly the parameters a solo :meth:`adapt_user` call would have
produced — ``tests/serve`` pins this.

Three adaptation scopes, selected by :class:`repro.serve.AdapterPolicy`:

* ``scope="all"`` personalises every layer as full per-user tensors.
  Maximum capacity, but nothing is shared: each user trains alone, and each
  of their frames is served alone, through the registry's one working
  clone of the model with the user's own stored arrays bound to it.  Every
  frame reads the ~1.1 M parameters of its user (the throughput benchmark
  documents the cost).
* ``scope="last"`` personalises only the final FC layer (the paper's
  low-cost online regime): the convolutional/FC trunk stays shared — so
  serving runs it once per micro-batch through the batch-invariant kernel —
  and each user owns just a ``(57, 512)`` head.
* ``scope="lora"`` personalises *every* layer through rank-``r`` low-rank
  deltas: the shared base weights are frozen and each user owns per-layer
  ``(A, B)`` factor pairs with ``delta = B @ A``, trained through the
  grouped low-rank kernels (:func:`repro.engine.lowrank_forward`).  A fully
  connected layer never materializes its dense delta: its shared-base
  product runs once over the whole cohort's frames, in fixed-shape blocks of
  :data:`repro.nn.backend.FOLD_FRAMES` frames, so a cohort shares the base
  GEMMs while every user's rows stay bitwise what a solo run computes; a
  solo :meth:`adapt_user` pays for padding its frames to a full block.  A
  conv layer merges each user's factors into the user's own small filter
  bank and runs one GEMM over the user's own patch rows, whatever the
  cohort.  Per-user memory drops from ``O(in * out)`` to ``O(r * (in +
  out))`` — full-network personalization at close to last-layer cost, the
  route to millions of resident users.

Around the parameter store sits the **adapter lifecycle**: the in-memory
store is the *hot* tier, bounded by ``policy.hot_capacity`` with
least-recently-served demotion.  With ``policy.spill_dir`` set, every
adaptation is written through to a per-user spill file, so a demoted user
lands in the *warm* tier (on disk, promoted back transparently on the next
access) instead of vanishing; ``policy.warm_capacity`` bounds the spill
files before the coldest users are dropped entirely (*cold* — re-onboard on
demand).  Because spill files are written through at adaptation time, they
double as crash persistence: a restarted process pointed at the same spill
directory re-attaches every warm user, so a registry with a spill
directory is its own checkpoint.  A user's state has one byte format, the
flat CRC-checked record of :mod:`repro.nn.serialization`: a spill file is
one (:func:`~repro.nn.serialization.save_record`), so a promotion costs one
file read, one CRC check and zero-copy array views, and the migration bytes
of :meth:`AdapterRegistry.export_user_bytes` are the same record in memory
(:func:`~repro.nn.serialization.record_bytes`).

The registry also answers the serving hot path of ``last`` and ``lora``:
:meth:`gather` stacks the parameter sets of the users in one micro-batch
into ``(tasks, ...)`` tensors, one ``np.stack`` per parameter tensor over
those users' stored arrays.  Nothing is kept between batches, so a tier
move or an adaptation has no stacked copy to keep current, and a served
batch's stack is freed with the batch.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .. import nn
from ..core.models import PoseCNN
from ..dataset.loader import ArrayDataset
from ..engine.functional import (
    gradient_step,
    lowrank_forward,
    lowrank_parameters,
    lowrank_shapes,
)
from ..nn.serialization import (
    parse_record,
    read_record_header,
    record_bytes,
    save_record,
)
from ..runtime.seeding import seed_for_key
from .faults import FaultInjector
from .kernel import SharedParameterKernel
from .metrics import ServeMetrics
from .policy import AdapterPolicy

__all__ = ["AdapterRegistry"]

#: schema of the metadata in a user's record (spill file or migration
#: bytes); the ``rank`` field makes low-rank factor records self-describing.
#: Records of any other format are rejected with an error naming their format.
RECORD_FORMAT = 2

_SPILL_PREFIX = "user-"
_SPILL_SUFFIX = ".spill"

_log = logging.getLogger(__name__)


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


class AdapterRegistry:
    """Stores per-user adapted parameter sets and produces them in bulk.

    The registry takes one snapshot of the base model's parameters, at
    construction, and every scope trains and serves from it without
    copying it again: the ``lora`` base and the ``last`` trunk kernel and
    head initialization are those arrays, the ``all`` working clone is
    bound to them between uses and each ``all`` user starts from them, and
    a :class:`repro.serve.PoseServer` builds its base kernel over them
    (:attr:`base_parameters`).  Adaptation keeps one mini-batch step's
    graph alive at a time.

    Parameters
    ----------
    model:
        The shared base model whose parameters seed every adaptation.  The
        registry never mutates it, and later changes to it reach neither
        adaptation nor serving.
    policy:
        The :class:`repro.serve.AdapterPolicy` governing everything here:
        adaptation scope and hyper-parameters, the low-rank ``rank``, and the
        hot/warm/cold tier budgets.  ``None`` uses the default policy
        (``scope="all"``, the paper's ~5-epoch online regime).
    metrics:
        Optional :class:`ServeMetrics` receiving adaptation and
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
        metrics: Optional[ServeMetrics] = None,
        gemm_block: int = 32,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.model = model
        self.policy: AdapterPolicy = policy if policy is not None else AdapterPolicy()
        # Read-only, so no route can write the weights every route shares.
        self._base = [_readonly(p.data.astype(float)) for p in model.parameters()]
        self._trunk_kernel: Optional[SharedParameterKernel] = None
        self._head_init: List[np.ndarray] = []
        self._lora_base: List[nn.Tensor] = []
        self._full_clone: Optional[PoseCNN] = None
        if self.policy.scope == "last":
            head = model.last_layer
            if not isinstance(head, nn.Linear):
                raise ValueError("scope='last' requires the final layer to be Linear")
            trunk = nn.Sequential(*list(model.network)[:-1])
            split = len(trunk.parameters())
            self._trunk_kernel = SharedParameterKernel(
                trunk, parameters=self._base[:split], block=gemm_block
            )
            self._head_init = self._base[split:]
            shapes = [p.shape for p in self._head_init]
        elif self.policy.scope == "lora":
            # The adaptable-layer census doubles as the architecture check;
            # the base snapshot is what lowrank_forward serves against and
            # deliberately does not require gradients — adaptation trains
            # only the rank-r factors.
            rank = self.policy.rank
            shapes = [
                shape
                for fan_out, fan_in in lowrank_shapes(model)
                for shape in ((rank, fan_in), (fan_out, rank))
            ]
            self._lora_base = [nn.Tensor(base) for base in self._base]
        else:
            # The working model: a deep copy of the module tree whose memo
            # maps every parameter array to its snapshot (and any gradient
            # to nothing), so no weight is copied.
            memo = {}
            for param, base in zip(model.parameters(), self._base):
                memo[id(param.data)] = base
                if param.grad is not None:
                    memo[id(param.grad)] = None
            self._full_clone = copy.deepcopy(model, memo).eval()
            shapes = [base.shape for base in self._base]
        #: the tensor shapes of one user's parameter set, in parameter order
        self._shapes: List[Tuple[int, ...]] = [tuple(shape) for shape in shapes]
        self.metrics = metrics
        self.fault_injector = fault_injector
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
        self._spill_dir = self.policy.spill_path()
        if self._spill_dir is not None:
            self._spill_dir.mkdir(parents=True, exist_ok=True)
            self._attach_spill_dir()

    @property
    def scope(self) -> str:
        """Which layers are personalised: ``"all"``, ``"last"`` or ``"lora"``."""
        return self.policy.scope

    @property
    def base_parameters(self) -> List[np.ndarray]:
        """The snapshot of the base model's parameters every scope shares.

        Read-only arrays in ``model.parameters()`` order, taken once at
        construction; a server's base kernel is built over them.
        """
        return list(self._base)

    def trunk_embed(self, features: np.ndarray) -> np.ndarray:
        """The shared-trunk embedding under ``scope="last"`` (batch-invariant)."""
        if self._trunk_kernel is None:
            raise ValueError("trunk_embed is only available with scope='last'")
        return self._trunk_kernel.predict(features)

    @contextmanager
    def _full_model(self) -> Iterator[PoseCNN]:
        """The ``scope="all"`` working model: an eval-mode clone of the base.

        The clone holds no weights of its own.  Inside the block the caller
        binds one user's parameters to it at a time (adaptation trains on
        it, serving predicts with it); on exit its parameters are the base
        snapshot's arrays again, so it keeps no user's state alive.
        """
        try:
            yield self._full_clone
        finally:
            self._bind_base(self._full_clone)

    def _bind_base(self, model: PoseCNN) -> None:
        """Bind the working model's parameters to the base snapshot, without gradients."""
        for param, base in zip(model.parameters(), self._base):
            param.data = base
            param.grad = None

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
        params = self._resolve([user_id], record=False)[user_id]
        return sum(int(array.nbytes) for array in params)

    def parameters_for(self, user_id: Hashable) -> Optional[List[np.ndarray]]:
        """The user's adapted parameters as read-only views, or ``None``.

        Under ``scope="all"`` these follow ``model.parameters()`` order;
        under ``scope="last"`` they are the personal head's
        ``[weight, bias]``; under ``scope="lora"`` the per-layer factors
        ``[a0, b0, a1, b1, ...]``.  A warm user is transparently promoted.
        """
        try:
            params = self._resolve([user_id], record=False)[user_id]
        except KeyError:
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
        """Fine-tune many users, bitwise as :meth:`adapt_user` would one by one.

        Under ``scope="last"`` and ``scope="lora"``, users whose adaptation
        sets have equal sizes share one grouped forward/backward per
        mini-batch through the task-batched kernels (one ``(users, ...)``
        tensor per parameter); unequal sizes are grouped by size.  Under
        ``scope="all"`` each user trains alone on the registry's working
        clone of the model.
        Either way each user starts from the shared base parameters and
        follows exactly the update sequence a solo adaptation would.
        (Under ``scope="lora"`` the factor initialization is seeded per
        user, so a user's trajectory is also independent of which peers
        share the grouped call.)
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
        """One adaptation over equally sized sets."""
        policy = self.policy
        epochs = epochs if epochs is not None else policy.epochs
        batch_size = min(policy.batch_size, size)
        # Mirror BatchLoader's shuffling so grouped and solo adaptation
        # consume mini-batches in the same order.
        batches: List[np.ndarray] = []
        for epoch in range(epochs):
            indices = np.arange(size)
            if policy.shuffle:
                indices = np.random.default_rng(policy.seed + epoch).permutation(size)
            batches.extend(
                indices[start : start + batch_size] for start in range(0, size, batch_size)
            )

        if policy.scope == "all":
            if any(isinstance(m, nn.Dropout) and m.p > 0 for m in self._full_clone.modules()):
                # Training with dropout needs its masks, and the working
                # model's one mask generator would tie a user's parameters to
                # who trained before them; refuse rather than train without.
                raise ValueError(
                    "scope='all' adaptation is unavailable for a model with active "
                    "dropout (scope='last' may still work)"
                )
            with self._full_model() as model:
                return {
                    user: self._adapt_full(model, dataset, batches)
                    for user, dataset in zip(users, datasets)
                }

        num_users = len(users)
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
        else:
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

        for batch in batches:
            x = nn.Tensor(features[:, batch])
            y = nn.Tensor(labels[:, batch])
            losses = nn.per_task_loss(forward(params, x), y, policy.loss)
            losses.sum().backward()
            # Free this step's graph before the next forward builds one.
            del losses, x, y
            gradient_step(params, policy.learning_rate)

        return {
            user: [stacked.data[slot].copy() for stacked in params]
            for slot, user in enumerate(users)
        }

    def _adapt_full(
        self, model: PoseCNN, dataset: ArrayDataset, batches: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Train one ``scope="all"`` user from the base snapshot.

        The model's own forward and autograd on the working clone, one SGD
        step per mini-batch: the arithmetic of :class:`repro.core.FineTuner`
        with plain SGD, bit for bit.  Each step rebinds a parameter to a new
        array, so training starts on the snapshot without copying it.
        """
        self._bind_base(model)
        params = model.parameters()
        for batch in batches:
            # A cohort of one task, so every scope computes the policy's loss alike.
            predictions = model(nn.Tensor(dataset.features[batch])).reshape(1, len(batch), -1)
            labels = nn.Tensor(dataset.labels[None, batch])
            nn.per_task_loss(predictions, labels, self.policy.loss).sum().backward()
            # Free this step's graph before the next forward builds one.
            del predictions, labels
            gradient_step(params, self.policy.learning_rate)
        return [param.data for param in params]

    # ------------------------------------------------------------------
    # Lifecycle tiers
    # ------------------------------------------------------------------
    def _promote(
        self, user_id: Hashable, protect: Set[Hashable]
    ) -> Optional[List[np.ndarray]]:
        """Load a warm user's spill file back into the hot tier.

        A spill file that fails to load or verify is quarantined (see
        :meth:`_read_spill`) and ``None`` returned, so the caller serves the
        base model instead of crashing the whole flush.  Graceful
        degradation, visible in the ``spill_quarantined`` counter and one
        log line.
        """
        spilled = self._read_spill(user_id)
        if spilled is None:
            return None
        params, _ = spilled
        del self._warm[user_id]
        self._params[user_id] = params
        self._params.move_to_end(user_id)
        # The spill file stays current (write-through), so a later demotion
        # of this user is again a pure in-memory drop.
        self._enforce_budgets(protect={user_id} | set(protect))
        return params

    def _read_spill(self, user_id: Hashable) -> Optional[Tuple[List[np.ndarray], bytes]]:
        """Read and verify a warm user's spill record, without promoting them.

        The one spill reader after attach: promotion and
        :meth:`export_user_bytes` both come here, so every read checks the
        record's CRC, schema and tensor shapes.  Returns the parameters and
        the checked record bytes they view.  A record that fails — torn,
        corrupted, wrong schema or shapes — is *quarantined* (renamed aside
        for forensics, out of the attach scan), the user demoted to cold,
        and ``None`` returned.
        """
        path = self._warm[user_id]
        source = f"spill file {path}"
        try:
            data = path.read_bytes()
            state, metadata = parse_record(data, source)
            self._validate_record(metadata, source)
            return self._record_params(state, source), data
        except (OSError, ValueError) as exc:
            self._quarantine_spill(path, exc, user_id)
            return None

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
            while len(self._params) > hot_capacity and evictable:
                user = evictable.pop(0)
                del self._params[user]
                if user in self._spill_paths:
                    self._warm[user] = self._spill_paths[user]
                    if self.metrics is not None:
                        self.metrics.record_adapter_demotion("warm")
                else:
                    self._cold.add(user)
                    if self.metrics is not None:
                        self.metrics.record_adapter_demotion("cold")
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
        for path in sorted(self._spill_dir.glob(f"{_SPILL_PREFIX}*{_SPILL_SUFFIX}")):
            try:
                metadata = read_record_header(path)
                if not metadata or "user" not in metadata:
                    continue
                user_id = self._decode_user(metadata["user"])
            except (OSError, ValueError) as exc:
                # An unreadable (truncated, corrupted) file must not block
                # the restart — quarantine it and keep scanning; its user
                # re-onboards from the base model.  Policy mismatches below
                # still raise: a wrong-rank record is an operator error,
                # not data corruption.
                self._quarantine_spill(path, exc)
                continue
            self._validate_record(metadata, f"spill file {path}")
            if user_id not in self._params:
                self._warm[user_id] = path
            self._spill_paths[user_id] = path

    def _write_spill(self, user_id: Hashable, params: Sequence[np.ndarray]) -> None:
        """Write-through one user's parameters to their spill record."""
        if self._spill_dir is None:
            return
        encoded = self._encode_user(user_id)
        digest = hashlib.sha1(repr(encoded).encode("utf-8")).hexdigest()[:16]
        path = self._spill_dir / f"{_SPILL_PREFIX}{digest}{_SPILL_SUFFIX}"
        state = {f"p{slot:03d}": array for slot, array in enumerate(params)}
        save_record(state, path, metadata=self._record_metadata(encoded))
        self._spill_paths[user_id] = path
        if (
            self.fault_injector is not None
            and self.fault_injector.check("corrupt_spill", "spill") is not None
        ):
            self.fault_injector.corrupt_file(path)

    # ------------------------------------------------------------------
    # Records: spill files and migration bytes
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_user(user_id: Hashable) -> List:
        if isinstance(user_id, bool) or not isinstance(user_id, (str, int)):
            raise TypeError(
                f"only str/int user ids are persistable, got {type(user_id).__name__}"
            )
        return ["str" if isinstance(user_id, str) else "int", user_id]

    @staticmethod
    def _decode_user(encoded) -> Hashable:
        """The user id a record's metadata names; ``ValueError`` unless it
        is exactly what :meth:`_encode_user` writes."""
        if (
            not isinstance(encoded, list)
            or len(encoded) != 2
            or (encoded[0], type(encoded[1])) not in (("str", str), ("int", int))
        ):
            raise ValueError(f"malformed user id {encoded!r} in a record")
        return encoded[1]

    def _record_metadata(self, encoded_user: List) -> Dict:
        metadata = {"format": RECORD_FORMAT, "scope": self.scope}
        if self.scope == "lora":
            metadata["rank"] = self.policy.rank
        metadata["user"] = encoded_user
        return metadata

    def _validate_record(self, metadata: Optional[Dict], source: str) -> None:
        """Check a record's metadata against this registry's policy.

        Raises a readable error on any mismatch of format, scope or rank.
        """
        if not metadata or "format" not in metadata:
            raise ValueError(f"{source} is not an adapter-registry record")
        if metadata["format"] != RECORD_FORMAT:
            raise ValueError(
                f"{source} is a format-{metadata['format']} record; "
                f"this registry reads format {RECORD_FORMAT} only"
            )
        record_scope = metadata.get("scope")
        if record_scope != self.scope:
            raise ValueError(
                f"{source} was saved with scope='{record_scope}', "
                f"registry policy has scope='{self.scope}'"
            )
        if self.scope == "lora":
            record_rank = metadata.get("rank")
            if record_rank != self.policy.rank:
                raise ValueError(
                    f"{source} holds rank-{record_rank} factors, "
                    f"registry policy has rank={self.policy.rank}"
                )

    def _record_params(self, state: Mapping[str, np.ndarray], source: str) -> List[np.ndarray]:
        """A record's tensors in parameter order, refused unless their
        shapes are the ones this registry's model and policy adapt — a
        record of another model must not reach :meth:`gather`, where one
        wrong shape fails the whole batch's ``np.stack``."""
        params = [state[key] for key in sorted(state)]
        shapes = [array.shape for array in params]
        if shapes != self._shapes:
            raise ValueError(
                f"{source} holds tensors of shapes {shapes}, "
                f"the registry's model adapts {self._shapes}"
            )
        return params

    def export_user_bytes(self, user_id: Hashable) -> Optional[bytes]:
        """One user's parameter set as record bytes, or ``None``.

        The record is the one a spill file holds (format/scope/rank plus
        the encoded user id in its metadata), so the importing registry
        checks its CRC and its schema before accepting it.  A warm user's
        export is their spill file's bytes, verified and returned without
        promotion or re-serialization; cold/unknown users return ``None``,
        and so does a warm user whose spill record fails verification (it
        is quarantined, so corrupted factors never travel).
        This is the unit of adapter state that live user migration moves
        over the wire.
        """
        params = self._params.get(user_id)
        if params is None:
            if user_id not in self._warm:
                return None
            spilled = self._read_spill(user_id)
            return spilled[1] if spilled is not None else None
        state = {f"p{slot:03d}": array for slot, array in enumerate(params)}
        return record_bytes(state, metadata=self._record_metadata(self._encode_user(user_id)))

    def import_user_bytes(self, user_id: Hashable, data: bytes) -> None:
        """Install one user's parameter set from :meth:`export_user_bytes` output.

        Damaged bytes (the record's CRC or length check fails),
        scope/rank/format mismatches and tensors of the wrong shapes raise
        :class:`ValueError` before the registry changes.  The user enters
        the hot tier (their adapted predictions are about to be served
        here) and is written through to the spill directory when one is
        configured.
        """
        source = "migrated record"
        state, metadata = parse_record(data, source)
        self._validate_record(metadata, source)
        encoded = metadata.get("user")
        if encoded is not None and self._decode_user(encoded) != user_id:
            raise ValueError(
                f"{source} belongs to user {self._decode_user(encoded)!r}, not {user_id!r}"
            )
        params = self._record_params(state, source)
        self._params[user_id] = params
        self._params.move_to_end(user_id)
        self._warm.pop(user_id, None)
        self._cold.discard(user_id)
        self._write_spill(user_id, params)
        self._enforce_budgets()

    def remove(self, user_id: Hashable) -> bool:
        """Forget one user entirely (all tiers); returns whether they existed."""
        existed = self._params.pop(user_id, None) is not None
        existed = self._warm.pop(user_id, None) is not None or existed
        spill = self._spill_paths.pop(user_id, None)
        if spill is not None:
            spill.unlink(missing_ok=True)
        self._cold.discard(user_id)
        return existed

    # ------------------------------------------------------------------
    # Serving hot path
    # ------------------------------------------------------------------
    def _resolve(
        self, user_ids: Sequence[Hashable], record: bool = True
    ) -> Dict[Hashable, List[np.ndarray]]:
        """The hot-tier parameters of every user of one micro-batch.

        Warm users are promoted, with the whole batch protected from the
        demotions a promotion triggers; with ``record``, every distinct user
        records one tier access.  A cold or unknown user — or one whose
        spill record is quarantined on promotion — raises :class:`KeyError`.
        """
        metrics = self.metrics if record else None
        resolved: Dict[Hashable, List[np.ndarray]] = {}
        missing = []
        composition = set(user_ids)
        for user in dict.fromkeys(user_ids):
            if user in self._params:
                self._params.move_to_end(user)
                resolved[user] = self._params[user]
                if metrics is not None:
                    metrics.record_adapter_access("hot")
            elif user in self._warm:
                promoted = self._promote(user, protect=composition)
                if promoted is not None:
                    resolved[user] = promoted
                    if metrics is not None:
                        metrics.record_adapter_access("warm")
                else:
                    # Spill file quarantined during promotion: the user is
                    # now cold and must re-onboard from the base model.
                    if metrics is not None:
                        metrics.record_adapter_access("cold")
                    missing.append(user)
            else:
                if metrics is not None and user in self._cold:
                    metrics.record_adapter_access("cold")
                missing.append(user)
        if missing:
            raise KeyError(f"no adapted parameters for users {missing!r}")
        return resolved

    def gather(self, user_ids: Sequence[Hashable]) -> List[nn.Tensor]:
        """Stack the users' parameter sets into ``(tasks, ...)`` tensors.

        The result feeds the ``last`` and ``lora`` serving routes directly:
        row ``t`` is the head or the factors (under ``scope="all"``, the
        whole parameter set) of ``user_ids[t]``, one ``np.stack`` per
        parameter tensor over the users' stored arrays; ``all`` serving
        uses :meth:`predict_full` instead and never stacks them.  Warm
        users are transparently promoted to the hot tier first; requesting a
        cold or unknown user raises :class:`KeyError` (the caller re-onboards
        on demand).
        """
        if not user_ids:
            raise ValueError("at least one user is required")
        resolved = self._resolve(user_ids)
        per_param = zip(*(resolved[user] for user in user_ids))
        return [nn.Tensor(np.stack(arrays)) for arrays in per_param]

    def predict_full(self, user_ids: Sequence[Hashable], features: np.ndarray) -> np.ndarray:
        """``scope="all"`` predictions, one frame at a time.

        Row ``t`` of ``features`` runs alone, a batch of one, through the
        working model with ``user_ids[t]``'s stored arrays bound to it, so
        no stacked copy of anyone's parameters is built.  Raises
        :class:`KeyError` as :meth:`gather` does, before predicting anything.
        """
        if self.scope != "all":
            raise ValueError("predict_full is only available with scope='all'")
        resolved = self._resolve(user_ids)
        outputs = np.empty((len(user_ids), self.model.config.output_dim))
        with self._full_model() as model:
            for row, user in enumerate(user_ids):
                for param, array in zip(model.parameters(), resolved[user]):
                    param.data = array
                outputs[row] = model.predict(features[row : row + 1])[0]
        return outputs
