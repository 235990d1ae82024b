"""Isotropic Gaussian random fields on the d-sphere by sums of random waves."""

from .covariance import (
    BivariateNegativeBinomial,
    BivariateSpectralMatern,
    Chentsov,
    Exponential,
    GeneralizedF,
    ModelError,
    NegativeBinomial,
    QuadratureError,
    SchoenbergFactor,
    SequenceCovariance,
    SequenceMultiCovariance,
    SpectralMatern,
    factor_schoenberg_matrix,
    schoenberg_coeff_quadrature,
)
from .degree_sampling import (
    FiniteDegrees,
    GeometricDegrees,
    OddShiftedZeta,
    Recommendation,
    ShiftedZeta,
    mu3_converges,
    recommend_distribution,
    support_covers,
    theta_prime_max,
)
from .diagnostics import (
    BerryEsseenReport,
    CovarianceEstimate,
    Mu3Result,
    berry_esseen_bound,
    berry_esseen_report,
    duplication_check,
    empirical_covariance,
    ks_normality,
    mu3_gegenbauer,
    mu3_wave,
)
from .gegenbauer import (
    gegenbauer_at_one,
    gegenbauer_eval,
    gegenbauer_eval_table,
    gegenbauer_norm_sq,
)
from .grids import (
    GridError,
    LatLonGrid,
    PointListGrid,
    SectionGrid,
    Slice3Grid,
    build_grid,
    parse_grid,
)
from .simulator import (
    Realization,
    SimulationConfig,
    SimulationError,
    WaveParams,
    clt_marginal_samples,
    geodesic,
    sample_pole,
    simulate,
    simulate_ensemble,
    single_wave_values,
    wave_eval_scalar,
    wave_eval_vector,
)

__version__ = "0.1.0"
