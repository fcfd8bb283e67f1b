"""Canonical text keys of the persistent result store.

The sqlite result store (:mod:`repro.engine.store`) persists evaluation
outcomes across processes and runs, keyed by *what was evaluated*:

* :func:`signature_key` -- the candidate axis.  A
  :data:`repro.engine.compiled_spec.Signature` is already canonical
  (sorted item tuples), so its compact JSON rendering is a stable,
  collision-free text key.  Floats render via ``repr`` and therefore
  round-trip exactly; the key is only ever compared, never parsed.
* :func:`spec_store_key` -- the problem axis.  Two
  :class:`~repro.core.strategy.DesignSpec` instances describe the same
  problem exactly when their serialized forms agree, so the key is a
  SHA-256 over the canonical JSON of the spec's serialized parts
  (application, architecture, future, base schedule, weights, horizon).
  Store rows from different scenarios can then share one database file
  without ever colliding.

Both keys are pure functions of their inputs -- no timestamps, no
environment -- which is what makes a warm store safe to share across
shard processes and restarts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING

from repro.serialize.codec import (
    application_to_dict,
    architecture_to_dict,
    future_to_dict,
    schedule_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignSpec
    from repro.engine.compiled_spec import Signature


def signature_key(signature: "Signature") -> str:
    """Canonical text form of one candidate signature."""
    return json.dumps(signature, separators=(",", ":"))


def spec_store_key(spec: "DesignSpec") -> str:
    """Scenario key of one design problem (SHA-256 hex digest)."""
    payload = {
        "application": application_to_dict(spec.current),
        "architecture": architecture_to_dict(spec.architecture),
        "future": future_to_dict(spec.future),
        "base_schedule": (
            None
            if spec.base_schedule is None
            else schedule_to_dict(spec.base_schedule)
        ),
        "weights": dataclasses.asdict(spec.weights),
        "horizon": spec.effective_horizon(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
