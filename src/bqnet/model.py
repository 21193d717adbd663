"""The full system description: arrivals, batch law, nodes, kernel choice."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arrivals import ArrivalProcess
from .batch import BatchLaw
from .errors import ValidationError
from .kernels import (MarkovKernel, RenewalKernel, TimeGrid,
                      load_tabulated_kernel_csv)
from .service import EXPONENTIAL, ServiceNode, validate_nodes


def renewal_grid(kernel_spec):
    """The renewal grid a kernel block names: [0, 8] with 1025 nodes by default."""
    return TimeGrid(end=kernel_spec.get("end", 8.0), nodes=kernel_spec.get("nodes", 1025))


@dataclass
class AnalysisDefaults:
    cap: int = 20
    rtol: float = 1e-8
    seed: int = 20240901

    def __post_init__(self):
        if self.cap < 0:
            raise ValidationError("analysis cap must be >= 0")
        if not (math.isfinite(self.rtol) and self.rtol > 0):
            raise ValidationError("analysis rtol must be finite and > 0")


@dataclass
class NetworkModel:
    """Queue count, arrival stream, batch law, and per-node service/routing."""

    J: int
    arrival: ArrivalProcess
    batch: BatchLaw
    nodes: list[ServiceNode] | None
    kernel_spec: dict = field(default_factory=lambda: {"representation": "auto"})
    analysis: AnalysisDefaults = field(default_factory=AnalysisDefaults)

    def __post_init__(self):
        if self.batch.J != self.J:
            raise ValidationError(
                f"batch law dimension {self.batch.J} != queue count {self.J}")
        if self.nodes is not None:
            validate_nodes(self.nodes, self.J)

    def build_kernel(self):
        """Construct the occupancy kernel named by ``kernel_spec``."""
        rep = self.kernel_spec.get("representation", "auto")
        if rep == "tabulated":
            return load_tabulated_kernel_csv(self.kernel_spec["path"])
        if self.nodes is None:
            raise ValidationError("a node list is required unless the kernel is tabulated")
        if rep == "auto":
            all_markov = all(n.is_absorbing or n.service.kind == EXPONENTIAL
                             for n in self.nodes)
            rep = "markov-uniformization" if all_markov else "renewal-grid"
        if rep == "markov-uniformization":
            return MarkovKernel(self.nodes, self.J)
        if rep == "renewal-grid":
            return RenewalKernel(self.nodes, self.J, renewal_grid(self.kernel_spec))
        raise ValidationError(f"unknown kernel representation {rep!r}")
