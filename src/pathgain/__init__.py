"""Closed-form average path gain laws for canonical radio environments.

The package pairs every closed form with a first-principles numerical
oracle (image sums, reflection-order series, boundary quadratures) plus
slope-intercept fitting, RMSE evaluation against measurements, and 3GPP
reference curves.  See the README for the CLI and the verification suites.
"""

from .canyon import (
    CanyonGeometry,
    LosLink,
    breakpoint_range_m,
    ground_reflection,
    los_canyon_gain,
    los_gain_coherent,
    los_gain_incoherent,
)
from .diffuse import DiffuseLink, PenetrationSpec, diffuse_pathgain, enhancement_factors, t_eff
from .fitting import (
    FitResult,
    MeasurementDataset,
    fit_slope_intercept,
    load_dataset,
    rmse_against_model,
)
from .morphology import (
    FoliageLayer,
    IndoorClutter,
    Link,
    MacroGeometry,
    StreetScene,
    canyon_total_gain,
    canyon_with_trees_gain,
    kappa_v_at_frequency,
    outdoor_indoor_canyon_gain,
    overtop_gain,
    rural_gain,
    sidewalk_guided_gain,
    sidewalk_unguided_gain,
    suburban_indoor_gain,
    suburban_street_gain,
    tree_density_fraction,
)
from .reference import (
    SlopeIntercept,
    ThreeGppScenario,
    friis_gain,
    slope_intercept_eval,
    tr38901_pathloss,
    uma_nlos_36814,
)
from .result import GainResult
from .surface import (
    Dielectric,
    TelegraphRoughness,
    WallSurface,
    fresnel_exact,
    fresnel_low_grazing,
    reflection_total,
    roughness_spectrum,
    specular_roughness_factor,
    wall_loss,
)

__version__ = "0.1.0"
