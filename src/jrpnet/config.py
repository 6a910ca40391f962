"""Pipeline configuration: one flat record, stamped into every artifact.

Defaults follow the analysis parameters stated by the study this
pipeline operationalizes (5 s windows with 20% overlap, minimum line
lengths of 3, 5-fold cross-validation); the remaining knobs are our own
documented choices.  Precedence when assembling a config: command-line
flags override config-file fields, which override these defaults.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields

from .errors import InputError
from .ingest import check_keys, check_type, read_json_object
from .recurrence import NORMS

__all__ = ["CONFIG_SCHEMA_VERSION", "STAGE_FIELDS", "PipelineConfig", "load_config"]

CONFIG_SCHEMA_VERSION = 4

#: The stages in order, each with the config fields its own code reads.
#: An artifact depends on its stage's fields and on every earlier stage's;
#: train reads nothing evaluate does not.
STAGE_FIELDS: dict[str, tuple[str, ...]] = {
    "embed-params": ("target_rr", "norm", "tau_max", "m_max"),
    "analyze": ("window_s", "overlap", "l_min", "v_min", "binarize_rho"),
    "features": ("n_null", "seed"),
    "evaluate": ("lambda_points", "lambda_span", "k_folds"),
    "train": (),
}

@dataclass(frozen=True)
class PipelineConfig:
    window_s: float = 5.0
    overlap: float = 0.2
    target_rr: float = 0.1
    norm: str = "L1"
    l_min: int = 3
    v_min: int = 3
    binarize_rho: float = 0.5
    n_null: int = 20
    lambda_points: int = 20
    lambda_span: float = 1e-3
    k_folds: int = 5
    seed: int = 0
    tau_max: int | None = None
    m_max: int = 10

    def __post_init__(self) -> None:
        for f in fields(self):
            check_type(f.name, getattr(self, f.name), f.type)
        if not 0.0 < self.window_s < float("inf"):
            raise InputError(f"window_s must be finite and > 0, got {self.window_s}")
        if not 0.0 <= self.overlap < 1.0:
            raise InputError(f"overlap must be in [0, 1), got {self.overlap}")
        if not 0.0 < self.target_rr < 1.0:
            raise InputError(f"target_rr must be in (0, 1), got {self.target_rr}")
        if self.norm not in NORMS:
            raise InputError(f"norm must be one of {', '.join(NORMS)}; got {self.norm!r}")
        if self.l_min < 2 or self.v_min < 2:
            raise InputError("l_min and v_min must be >= 2")
        if not 0.0 < self.binarize_rho <= 1.0:
            raise InputError(f"binarize_rho must be in (0, 1], got {self.binarize_rho}")
        if self.n_null < 1:
            raise InputError(f"n_null must be >= 1, got {self.n_null}")
        if self.lambda_points < 2:
            raise InputError(f"lambda_points must be >= 2, got {self.lambda_points}")
        if not 0.0 < self.lambda_span < 1.0:
            raise InputError(f"lambda_span must be in (0, 1), got {self.lambda_span}")
        if self.k_folds < 2:
            raise InputError(f"k_folds must be >= 2, got {self.k_folds}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.tau_max is not None and self.tau_max < 1:
            raise InputError(f"tau_max must be >= 1 or null, got {self.tau_max}")
        if self.m_max < 1:
            raise InputError(f"m_max must be >= 1, got {self.m_max}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        check_keys("config", raw, (f.name for f in fields(cls)))
        return cls(**raw)

    def replace(self, **overrides) -> "PipelineConfig":
        merged = self.to_dict()
        merged.update(overrides)
        return PipelineConfig.from_dict(merged)


def load_config(path: str | os.PathLike | None, **overrides) -> PipelineConfig:
    """Config from an optional JSON file plus explicit overrides.

    Overrides with value None are ignored, so optional CLI flags can be
    passed through directly.
    """
    raw = {} if path is None else read_json_object(path, "config")
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    return PipelineConfig.from_dict(raw)
