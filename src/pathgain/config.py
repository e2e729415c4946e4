"""Environment config files: flat INI blocks with unit-suffixed keys.

A config describes one scene: `[link]` carrier, `[wall]` material and
corrugation, `[canyon]` cross-section, `[foliage]`, `[penetration]`,
`[macro]`, `[indoor]` and `[street]` blocks as needed by the chosen
morphology.  Keys are case-sensitive and unknown sections or keys are
rejected, so a config is an auditable record of a scenario.  `#` starts a
comment.  Every block is validated and built into its scene object at load;
errors name the file and the block.
"""

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from . import morphology
from .canyon import CanyonGeometry, LosLink, los_gain_coherent, los_gain_incoherent
from .diffuse import PenetrationSpec
from .morphology import FoliageLayer, IndoorClutter, Link, MacroGeometry, StreetScene
from .reference import friis_gain
from .result import FLAG_KAPPA_EXTRAPOLATED, GainResult
from .surface import DEFAULT_GROUND, Dielectric, TelegraphRoughness, WallSurface
from .units import GainError, wavelength_m


class ConfigError(ValueError):
    """Invalid or insufficient configuration content."""


@dataclass(frozen=True)
class EnvironmentConfig:
    """Scene built at load: one object per block, None where a block is absent."""

    path: str
    frequency_hz: float | None = None
    wall: WallSurface | None = None
    canyon: CanyonGeometry | None = None
    foliage: FoliageLayer | None = None
    penetration: PenetrationSpec | None = None
    macro: MacroGeometry | None = None
    indoor: IndoorClutter | None = None
    street: StreetScene | None = None
    flags: tuple[str, ...] = field(default=())


_FLOAT = "float"
_AUTO = "float_or_auto"
_WALL_ROUGHNESS_KEYS = ("A_m", "p1", "p2", "mean_width_m", "mean_gap_m")

# penetration variant -> (keys its constructor takes, in order, constructor)
_VARIANTS = {
    "unbounded": ((), PenetrationSpec.unbounded),
    "street": (("w1_m",), PenetrationSpec.street),
    "aperture": (("w1_m", "w2_m"), PenetrationSpec.aperture),
    "facade": (("p_window", "t_window2", "t_wall2"), PenetrationSpec.facade_mixture),
}


def _link(v: dict, built: dict, flags: list) -> float:
    wavelength_m(v["frequency_hz"])
    return v["frequency_hz"]


def _wall(v: dict, built: dict, flags: list) -> WallSurface:
    present = [k for k in _WALL_ROUGHNESS_KEYS if k in v]
    if present and len(present) != len(_WALL_ROUGHNESS_KEYS):
        raise ValueError(f"roughness needs all of {', '.join(_WALL_ROUGHNESS_KEYS)} "
                         f"(got {', '.join(present)})")
    roughness = (TelegraphRoughness(v["A_m"], v["p1"], v["p2"], 1.0 / v["mean_width_m"],
                                    1.0 / v["mean_gap_m"]) if present else None)
    return WallSurface(Dielectric(v["n_eff"]), roughness)


def _canyon(v: dict, built: dict, flags: list) -> CanyonGeometry:
    ground = DEFAULT_GROUND
    if "ground_index" in v:
        if v["ground_index"] <= math.sqrt(2.0):
            # the parallel low-grazing ground reflection is singular there
            raise ValueError(f"ground_index must exceed sqrt(2), got {v['ground_index']:g}")
        ground = Dielectric(v["ground_index"])
    return CanyonGeometry(v["width_m"], v["tx_height_m"], v["rx_height_m"],
                          built.get("wall"), ground,
                          tx_offset_m=v.get("tx_offset_m", 0.0),
                          rx_offset_m=v.get("rx_offset_m", 0.0))


def _foliage(v: dict, built: dict, flags: list) -> FoliageLayer:
    kappa = v["kappa_np_per_m"]
    if kappa == "auto":
        if "link" not in built:
            raise ValueError("kappa_np_per_m=auto needs [link] frequency_hz")
        kappa = morphology.kappa_v_at_frequency(built["link"])
        if not 1e9 <= built["link"] <= 100e9:
            flags.append(FLAG_KAPPA_EXTRAPOLATED)
    # the block's keys are the FoliageLayer fields
    return FoliageLayer(**{**v, "kappa_np_per_m": kappa})


def _penetration(v: dict, built: dict, flags: list) -> PenetrationSpec:
    variant = v["variant"]
    keys, make = _VARIANTS[variant]
    # the mixture carries its own transmissions; the others default to 1
    optional = () if variant == "facade" else ("material_t2",)
    extra = [k for k in v if k not in ("variant", *keys, *optional)]
    if extra:
        raise ValueError(f"{variant} variant does not take {', '.join(extra)}")
    missing = [k for k in keys if k not in v]
    if missing:
        raise ValueError(f"{variant} variant needs {', '.join(missing)}")
    return make(*(v[k] for k in keys + optional if k in v))


def _street(v: dict, built: dict, flags: list) -> StreetScene:
    if "canyon" not in built or "foliage" not in built:
        raise ValueError("needs the [canyon] and [foliage] blocks")
    return StreetScene(
        built["canyon"], built["foliage"], v["standoff_m"], rho_v=v.get("rho_v"),
        kappa_extra_np_per_m=(v.get("kappa_ped_np_per_m", 0.0)
                              + v.get("kappa_scaff_np_per_m", 0.0)),
        direct_veg_path_m=v.get("direct_veg_path_m"),
    )


# section -> ({key: kind}, required keys, builder(values, built, flags)).
# kind is _FLOAT, _AUTO (a number or "auto") or a tuple of choices.  Blocks
# are built in this order, so a builder may read the blocks above it from
# `built`; it raises ValueError, which load_config names with the block.
BLOCKS = {
    "link": ({"frequency_hz": _FLOAT}, ("frequency_hz",), _link),
    "wall": ({"n_eff": _FLOAT, "A_m": _FLOAT, "p1": _FLOAT, "p2": _FLOAT,
              "mean_width_m": _FLOAT, "mean_gap_m": _FLOAT}, ("n_eff",), _wall),
    "canyon": ({"width_m": _FLOAT, "tx_height_m": _FLOAT, "rx_height_m": _FLOAT,
                "ground_index": _FLOAT, "tx_offset_m": _FLOAT,
                "rx_offset_m": _FLOAT},
               ("width_m", "tx_height_m", "rx_height_m"), _canyon),
    "foliage": ({"depth_m": _FLOAT, "kappa_np_per_m": _AUTO,
                 "n_tree_per_m": _FLOAT, "tree_width_m": _FLOAT,
                 "tree_height_m": _FLOAT, "veg_start_m": _FLOAT},
                ("depth_m", "kappa_np_per_m"), _foliage),
    "penetration": ({"variant": tuple(_VARIANTS), "material_t2": _FLOAT,
                     "w1_m": _FLOAT, "w2_m": _FLOAT, "p_window": _FLOAT,
                     "t_window2": _FLOAT, "t_wall2": _FLOAT},
                    ("variant",), _penetration),
    "macro": ({"z_bs_m": _FLOAT, "z_c_m": _FLOAT, "z_m_m": _FLOAT,
               "street_width_m": _FLOAT},
              ("z_bs_m", "z_c_m", "z_m_m", "street_width_m"),
              lambda v, *_: MacroGeometry(v["z_bs_m"], v["z_c_m"], v["z_m_m"],
                                          v["street_width_m"])),
    "indoor": ({"kappa_np_per_m": _FLOAT, "depth_m": _FLOAT},
               ("kappa_np_per_m", "depth_m"), lambda v, *_: IndoorClutter(**v)),
    "street": ({"standoff_m": _FLOAT, "rho_v": _FLOAT,
                "kappa_ped_np_per_m": _FLOAT, "kappa_scaff_np_per_m": _FLOAT,
                "direct_veg_path_m": _FLOAT}, ("standoff_m",), _street),
}


def _parse_sections(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"{path}: cannot read config file")
    out = {}
    for section in parser.sections():
        if section not in BLOCKS:
            raise ConfigError(
                f"{path}: unknown section [{section}]; known: "
                + ", ".join(sorted(BLOCKS))
            )
        allowed = BLOCKS[section][0]
        values = {}
        for key, raw in parser[section].items():
            if key not in allowed:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; known: "
                    + ", ".join(sorted(allowed))
                )
            values[key] = raw.strip()
        out[section] = values
    return out


def _convert(kinds: dict, raw_values: dict[str, str]) -> dict:
    out = {}
    for key, raw in raw_values.items():
        kind = kinds[key]
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ValueError(f"{key} must be one of {kind}, got {raw!r}")
            out[key] = raw
        elif kind == _AUTO and raw == "auto":
            out[key] = raw
        else:
            try:
                out[key] = float(raw)
            except ValueError:
                raise ValueError(f"{key} must be a number, got {raw!r}") from None
            if not math.isfinite(out[key]):
                raise ValueError(f"{key} must be finite")
    return out


def load_config(path) -> EnvironmentConfig:
    """Parse an environment config file and build each of its blocks.

    Raises ConfigError naming the file and the block.
    """
    sections = _parse_sections(path)
    built, flags = {}, []
    for section, (kinds, required, build) in BLOCKS.items():
        if section not in sections:
            continue
        try:
            values = _convert(kinds, sections[section])
            missing = [k for k in required if k not in values]
            if missing:
                raise ValueError(f"missing required key(s): {', '.join(missing)}")
            built[section] = build(values, built, flags)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}: [{section}] {exc}") from exc
    frequency_hz = built.pop("link", None)
    return EnvironmentConfig(str(path), frequency_hz, flags=tuple(flags), **built)


_STREET = ("foliage", "street", "canyon")

# morphology -> (config blocks it needs, law(cfg, range_m) -> GainResult)
MORPHOLOGIES = {
    "los_corridor": (("canyon", "wall"), lambda cfg, r: los_gain_incoherent(
        LosLink(cfg.canyon, r, cfg.frequency_hz))),
    "los_corridor_coherent": (("canyon", "wall"), lambda cfg, r: los_gain_coherent(
        LosLink(cfg.canyon, r, cfg.frequency_hz))),
    "suburban_street": (_STREET, lambda cfg, r: morphology.suburban_street_gain(
        cfg.street, Link(r, cfg.frequency_hz))),
    "suburban_indoor": (_STREET + ("indoor", "penetration"),
                        lambda cfg, r: morphology.suburban_indoor_gain(
                            cfg.street, cfg.indoor, cfg.penetration,
                            Link(r, cfg.frequency_hz))),
    "over_top": (("macro", "foliage"), lambda cfg, r: morphology.overtop_gain(
        cfg.macro, cfg.foliage.kappa_np_per_m, Link(r, cfg.frequency_hz))),
    "rural": (("macro", "foliage"), lambda cfg, r: morphology.rural_gain(
        cfg.macro, cfg.foliage, Link(r, cfg.frequency_hz))),
    "outdoor_indoor": (("canyon", "wall", "penetration", "indoor"),
                       lambda cfg, r: morphology.outdoor_indoor_canyon_gain(
                           cfg.canyon, cfg.penetration, cfg.indoor,
                           Link(r, cfg.frequency_hz))),
    "sidewalk_trees": (_STREET + ("wall",),
                       lambda cfg, r: morphology.canyon_with_trees_gain(
                           cfg.street, Link(r, cfg.frequency_hz))),
    "canyon_total": (_STREET + ("wall", "macro"),
                     lambda cfg, r: morphology.canyon_total_gain(
                         cfg.street, cfg.macro, Link(r, cfg.frequency_hz))),
    "friis": ((), lambda cfg, r: GainResult(
        friis_gain(wavelength_m(cfg.frequency_hz), r), r)),
}


def make_evaluator(cfg: EnvironmentConfig, name: str):
    """Build range -> GainResult for a morphology from a config.

    The evaluator takes one range or an array of ranges (the whole sweep in
    one call) and returns gains, components and flags over them.  Raises
    ConfigError naming any missing blocks.  The evaluator raises ValueError
    for a range that is not finite and positive, and the law's GainError,
    its message prefixed with the morphology name, where the gain is not
    finite and positive (see units.checked_gain).  Its gain is finite and
    positive at every range; a component may underflow to 0.
    """
    if name not in MORPHOLOGIES:
        raise ConfigError(
            f"unknown morphology {name!r}; choose from {', '.join(MORPHOLOGIES)}"
        )
    blocks, law = MORPHOLOGIES[name]
    if cfg.frequency_hz is None:
        raise ConfigError(
            f"{cfg.path}: morphology {name!r} needs [link] frequency_hz"
        )
    missing = [block for block in blocks if getattr(cfg, block) is None]
    if missing:
        raise ConfigError(
            f"{cfg.path}: morphology {name!r} needs config "
            f"block(s): {', '.join(missing)}"
        )

    def evaluate(range_m) -> GainResult:
        try:
            result = law(cfg, np.asarray(range_m, dtype=float))
        except GainError as exc:
            raise GainError(f"{name} {exc}") from None
        return result.with_flags(*cfg.flags) if cfg.flags else result

    return evaluate
