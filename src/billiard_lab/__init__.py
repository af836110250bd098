"""Open planar billiards: deformable no-eclipse tables, symbolic orbits,
and Lyapunov exponents along deformations."""

from .geometry import (AlphaRangeError, ConvexityError, DeformationFamily,
                       EclipseCertificate, EclipseError, GeometryError,
                       ObstacleSpec, SmoothnessError, TableBounds,
                       boundary_pair_extremes, circle, check_no_eclipse,
                       curvature, curvature_partials, ellipse, partial_jet,
                       phi_max_from_observation, table_bounds,
                       validate_family)
from .dynamics import (GrazingError, Hit, boundary_map, first_intersection,
                       reflect)
from .symbolic import (AlphaDerivatives, BilliardOrbit, CoreReflections,
                       ShadowingError, SolveError, Word, alpha_derivatives,
                       enumerate_cyclic_words, find_orbit_segment,
                       find_orbits, find_periodic_orbit, is_admissible,
                       orbit_alpha_derivatives, sample_itinerary)
from .lyapunov import (CurvatureTrace, FrontExpansionReport, KdotTrace,
                       LyapunovReport, default_seed_curvature,
                       f_derivative_sum, front_expansion_check,
                       jacobian_lyapunov_oracle, kdot_trace,
                       lyapunov_estimate, periodic_curvature_fixed_point,
                       propagate_curvature, seed_sensitivity)

__version__ = "0.1.0"
