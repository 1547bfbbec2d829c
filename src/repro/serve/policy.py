"""The unified per-user adaptation policy of the serving subsystem.

:class:`AdapterPolicy` is one frozen configuration object describing
*everything* about per-user adaptation:

* **what is personalised** — ``scope``: ``"all"`` (full per-user parameter
  tensors), ``"last"`` (shared trunk + personal final layer), or ``"lora"``
  (full-network personalization through rank-``rank`` low-rank deltas on
  every layer: ``O(rank * (fan_in + fan_out))`` resident memory per user
  instead of ``O(fan_in * fan_out)``);
* **how adaptation trains** — ``epochs`` / ``learning_rate`` /
  ``batch_size`` / ``loss`` / ``shuffle`` / ``seed``, the plain-SGD
  fine-tuning hyper-parameters the FUSE initialization was optimized for;
* **where adapter state lives** — the hot/warm/cold lifecycle:
  ``hot_capacity`` bounds the users resident in the in-memory gather stack,
  ``spill_dir`` enables the warm tier (per-user CRC-checked spill records,
  written through on adaptation so they double as crash persistence), and
  ``warm_capacity`` bounds the spill files before the coldest users are
  dropped entirely (cold: re-onboard on demand).

One policy object travels through :class:`repro.serve.ServeConfig`, every
server constructor, the :class:`repro.serve.worker.ShardFactory` pickle
boundary, the wire protocol's ``hello`` handshake and the ``fuse-serve``
CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

__all__ = ["AdapterPolicy"]

#: adaptation scopes the serving subsystem understands
ADAPTER_SCOPES = ("all", "last", "lora")


@dataclass(frozen=True)
class AdapterPolicy:
    """Everything about per-user adaptation, in one frozen object.

    Attributes
    ----------
    scope:
        ``"all"`` | ``"last"`` | ``"lora"`` — which parameters each user
        personalises (see the module docstring).
    rank:
        Rank of the per-layer low-rank deltas under ``scope="lora"``
        (ignored by the other scopes).
    epochs:
        Passes over the calibration frames per adaptation (the paper's
        ~5-epoch online regime by default).
    learning_rate / batch_size / loss / shuffle / seed:
        Optimization settings of the grouped SGD adaptation, identical in
        meaning to :class:`repro.core.finetune.FineTuneConfig`.
    hot_capacity:
        Bound on users resident in the in-memory (hot) tier; the least
        recently served user beyond it is demoted.  ``None`` = unbounded.
    warm_capacity:
        Bound on users in the warm tier (spill files on disk); beyond it
        the least recently demoted user's file is deleted (cold).
        ``None`` = unbounded.
    spill_dir:
        Directory of the warm tier's per-user spill records.  ``None``
        disables the warm tier: demoted users drop straight to cold, and
        adapter state does not survive a process restart.
    """

    scope: str = "all"
    rank: int = 4
    epochs: int = 5
    learning_rate: float = 1e-2
    batch_size: int = 32
    loss: str = "l1"
    shuffle: bool = True
    seed: int = 0
    hot_capacity: Optional[int] = None
    warm_capacity: Optional[int] = None
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scope not in ADAPTER_SCOPES:
            raise ValueError(
                f"unknown adaptation scope '{self.scope}' "
                f"(expected one of {', '.join(ADAPTER_SCOPES)})"
            )
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss not in ("l1", "l2", "mse", "huber"):
            raise ValueError(f"unknown loss '{self.loss}'")
        if self.hot_capacity is not None and self.hot_capacity < 1:
            raise ValueError("hot_capacity must be >= 1")
        if self.warm_capacity is not None and self.warm_capacity < 1:
            raise ValueError("warm_capacity must be >= 1")
        if self.spill_dir is not None and not isinstance(self.spill_dir, str):
            # Frozen dataclass: normalise Path and friends through the
            # object.__setattr__ escape hatch the dataclass itself uses.
            object.__setattr__(self, "spill_dir", str(self.spill_dir))

    # ------------------------------------------------------------------
    # Derived forms
    # ------------------------------------------------------------------
    def with_spill_subdir(self, name: str) -> "AdapterPolicy":
        """The same policy with ``spill_dir`` pushed one directory down.

        Sharded deployments give every shard its own subdirectory so two
        shards never race on one user file; a policy without a spill
        directory is returned unchanged.
        """
        if self.spill_dir is None:
            return self
        return replace(self, spill_dir=str(Path(self.spill_dir) / name))

    def spill_path(self) -> Optional[Path]:
        return None if self.spill_dir is None else Path(self.spill_dir)

    # ------------------------------------------------------------------
    # Wire transport (the serve-config handshake)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable description for the wire handshake."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "AdapterPolicy":
        """Rebuild a policy from :meth:`to_dict` output (unknown keys ignored)."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})
