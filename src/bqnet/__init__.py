"""Analytics for open networks of infinite-server queues with batch
Poisson arrivals: exact transient occupancy laws, stability verdicts,
and an embedded Monte Carlo cross-check."""

from .arrivals import ArrivalProcess
from .batch import BatchLaw, UnivariateLaw
from .compound import (CompoundSnapshot, compound_lattice, compound_pgf,
                       compound_pmf, poisson_multinomial_pmf)
from .config import bundled_config_path, load_config, parse_config
from .ergodicity import (BatchOccupancyIntegral, StabilityVerdict,
                         classify_ergodicity, expected_batch_occupancy)
from .errors import (BqnetError, ConvergenceError, DomainError,
                     KernelDomainError, RefinementRequiredError,
                     ResourceBudgetError, SimulationBudgetError,
                     UnsupportedRepresentationError, ValidationError)
from .kernels import (MarkovKernel, OccupancyKernel, RenewalKernel,
                      TabulatedKernel, TimeGrid, load_tabulated_kernel_csv)
from .model import AnalysisDefaults, NetworkModel
from .quadrature import QuadratureSpec
from .service import ServiceLaw, ServiceNode
from .simulate import (SimulationEstimate, SimulationPlan,
                       run_simulation, sample_arrival_times, sample_trajectory)
from .tables import LatticePMF, SimplexIndex, read_occupancy_csv
from .transient import (TransientMoments, recompute_with_pivot,
                        transient_moments, transient_pgf, transient_pmf,
                        transient_zero_prob)

__all__ = [
    'AnalysisDefaults', 'ArrivalProcess', 'BatchLaw',
    'BatchOccupancyIntegral', 'BqnetError', 'bundled_config_path',
    'classify_ergodicity',
    'compound_lattice', 'compound_pgf', 'compound_pmf',
    'CompoundSnapshot', 'ConvergenceError', 'DomainError',
    'expected_batch_occupancy', 'KernelDomainError',
    'LatticePMF', 'load_config', 'load_tabulated_kernel_csv',
    'MarkovKernel', 'NetworkModel', 'OccupancyKernel', 'parse_config',
    'poisson_multinomial_pmf', 'QuadratureSpec', 'read_occupancy_csv',
    'recompute_with_pivot', 'RefinementRequiredError', 'RenewalKernel',
    'ResourceBudgetError', 'run_simulation', 'sample_arrival_times',
    'sample_trajectory', 'ServiceLaw', 'ServiceNode', 'SimplexIndex',
    'SimulationBudgetError', 'SimulationEstimate', 'SimulationPlan',
    'StabilityVerdict', 'TabulatedKernel', 'TimeGrid',
    'transient_moments', 'transient_pgf', 'transient_pmf',
    'transient_zero_prob', 'TransientMoments', 'UnivariateLaw',
    'UnsupportedRepresentationError', 'ValidationError',
]

__version__ = "0.1.0"
