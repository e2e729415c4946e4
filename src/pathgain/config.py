"""Environment config files: flat INI blocks with unit-suffixed keys.

A config describes one scene: `[link]` carrier, `[wall]` material and
corrugation, `[canyon]` cross-section, `[foliage]`, `[penetration]`,
`[macro]`, `[indoor]` and `[street]` blocks as needed by the chosen
morphology.  Keys are case-sensitive and unknown sections or keys are
rejected, so a config is an auditable record of a scenario.  `#` starts a
comment.
"""

import configparser
import math
from dataclasses import dataclass, field

from . import morphology
from .canyon import CanyonGeometry, LosLink, los_gain_coherent, los_gain_incoherent
from .diffuse import PenetrationSpec
from .morphology import FoliageLayer, IndoorClutter, Link, MacroGeometry, StreetScene
from .reference import friis_gain
from .result import FLAG_KAPPA_EXTRAPOLATED, GainResult
from .surface import DEFAULT_GROUND, Dielectric, TelegraphRoughness, WallSurface
from .units import wavelength_m


class ConfigError(ValueError):
    """Invalid or insufficient configuration content."""


_FLOAT = "float"
_CHOICE_VARIANT = ("unbounded", "street", "aperture", "facade")

# section -> {key: kind}; kind "float", "float_or_auto", or a choice tuple
SCHEMA = {
    "link": {"frequency_hz": _FLOAT},
    "wall": {"n_eff": _FLOAT, "A_m": _FLOAT, "p1": _FLOAT, "p2": _FLOAT,
             "mean_width_m": _FLOAT, "mean_gap_m": _FLOAT},
    "canyon": {"width_m": _FLOAT, "tx_height_m": _FLOAT, "rx_height_m": _FLOAT,
               "ground_index": _FLOAT, "tx_offset_m": _FLOAT,
               "rx_offset_m": _FLOAT},
    "foliage": {"depth_m": _FLOAT, "kappa_np_per_m": "float_or_auto",
                "n_tree_per_m": _FLOAT, "tree_width_m": _FLOAT,
                "tree_height_m": _FLOAT, "veg_start_m": _FLOAT},
    "penetration": {"variant": _CHOICE_VARIANT, "material_t2": _FLOAT,
                    "w1_m": _FLOAT, "w2_m": _FLOAT, "p_window": _FLOAT,
                    "t_window2": _FLOAT, "t_wall2": _FLOAT},
    "macro": {"z_bs_m": _FLOAT, "z_c_m": _FLOAT, "z_m_m": _FLOAT,
              "street_width_m": _FLOAT},
    "indoor": {"kappa_np_per_m": _FLOAT, "depth_m": _FLOAT},
    "street": {"standoff_m": _FLOAT, "rho_v": _FLOAT,
               "kappa_ped_np_per_m": _FLOAT, "kappa_scaff_np_per_m": _FLOAT,
               "direct_veg_path_m": _FLOAT},
}

_WALL_ROUGHNESS_KEYS = ("A_m", "p1", "p2", "mean_width_m", "mean_gap_m")


@dataclass(frozen=True)
class EnvironmentConfig:
    """Parsed scene description; blocks not present in the file are None."""

    path: str
    frequency_hz: float | None = None
    wall: WallSurface | None = None
    canyon_dims: dict | None = None
    foliage: FoliageLayer | None = None
    penetration: PenetrationSpec | None = None
    macro: MacroGeometry | None = None
    indoor: IndoorClutter | None = None
    street: dict | None = None
    flags: tuple[str, ...] = field(default=())


def _parse_sections(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"{path}: cannot read config file")
    out = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}]; known: "
                + ", ".join(sorted(SCHEMA))
            )
        allowed = SCHEMA[section]
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


def _floats(path, section: str, values: dict[str, str],
            allow_auto: tuple[str, ...] = ()) -> dict:
    out = {}
    for key, raw in values.items():
        kind = SCHEMA[section][key]
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ConfigError(
                    f"{path}: [{section}] {key} must be one of {kind}, got {raw!r}"
                )
            out[key] = raw
            continue
        if kind == "float_or_auto" and raw == "auto":
            out[key] = "auto"
            continue
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{path}: [{section}] {key} must be a number, got {raw!r}"
            ) from exc
        if not math.isfinite(value):
            raise ConfigError(f"{path}: [{section}] {key} must be finite")
        out[key] = value
    return out


def _require(path, section: str, values: dict, keys: tuple[str, ...]):
    missing = [k for k in keys if k not in values]
    if missing:
        raise ConfigError(
            f"{path}: [{section}] missing required key(s): {', '.join(missing)}"
        )


def load_config(path) -> EnvironmentConfig:
    """Parse and validate an environment config file."""
    sections = _parse_sections(path)
    flags: list[str] = []

    frequency_hz = None
    if "link" in sections:
        values = _floats(path, "link", sections["link"])
        _require(path, "link", values, ("frequency_hz",))
        frequency_hz = values["frequency_hz"]
        if frequency_hz <= 0.0:
            raise ConfigError(f"{path}: [link] frequency_hz must be positive")

    wall = None
    if "wall" in sections:
        values = _floats(path, "wall", sections["wall"])
        _require(path, "wall", values, ("n_eff",))
        present = [k for k in _WALL_ROUGHNESS_KEYS if k in values]
        if present and len(present) != len(_WALL_ROUGHNESS_KEYS):
            raise ConfigError(
                f"{path}: [wall] roughness needs all of "
                f"{', '.join(_WALL_ROUGHNESS_KEYS)} (got {', '.join(present)})"
            )
        try:
            roughness = None
            if present:
                roughness = TelegraphRoughness(
                    values["A_m"], values["p1"], values["p2"],
                    1.0 / values["mean_width_m"], 1.0 / values["mean_gap_m"],
                )
            wall = WallSurface(Dielectric(values["n_eff"]), roughness)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}: [wall] {exc}") from exc

    canyon_dims = None
    if "canyon" in sections:
        values = _floats(path, "canyon", sections["canyon"])
        _require(path, "canyon", values,
                 ("width_m", "tx_height_m", "rx_height_m"))
        if "ground_index" in values and values["ground_index"] <= math.sqrt(2.0):
            # the parallel low-grazing ground reflection is singular there
            raise ConfigError(
                f"{path}: [canyon] ground_index must exceed sqrt(2), "
                f"got {values['ground_index']:g}"
            )
        canyon_dims = values

    foliage = None
    if "foliage" in sections:
        values = _floats(path, "foliage", sections["foliage"])
        _require(path, "foliage", values, ("depth_m", "kappa_np_per_m"))
        kappa = values["kappa_np_per_m"]
        if kappa == "auto":
            if frequency_hz is None:
                raise ConfigError(
                    f"{path}: [foliage] kappa_np_per_m=auto needs [link] frequency_hz"
                )
            kappa = morphology.kappa_v_at_frequency(frequency_hz)
            if not 1e9 <= frequency_hz <= 100e9:
                flags.append(FLAG_KAPPA_EXTRAPOLATED)
        try:
            foliage = FoliageLayer(
                values["depth_m"], kappa,
                n_tree_per_m=values.get("n_tree_per_m", 0.0),
                tree_width_m=values.get("tree_width_m", 0.0),
                tree_height_m=values.get("tree_height_m", 0.0),
                veg_start_m=values.get("veg_start_m", 0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: [foliage] {exc}") from exc

    penetration = None
    if "penetration" in sections:
        values = _floats(path, "penetration", sections["penetration"])
        _require(path, "penetration", values, ("variant",))
        try:
            penetration = _build_penetration(values)
        except ValueError as exc:
            raise ConfigError(f"{path}: [penetration] {exc}") from exc

    macro = None
    if "macro" in sections:
        values = _floats(path, "macro", sections["macro"])
        _require(path, "macro", values,
                 ("z_bs_m", "z_c_m", "z_m_m", "street_width_m"))
        try:
            macro = MacroGeometry(values["z_bs_m"], values["z_c_m"],
                                  values["z_m_m"], values["street_width_m"])
        except ValueError as exc:
            raise ConfigError(f"{path}: [macro] {exc}") from exc

    indoor = None
    if "indoor" in sections:
        values = _floats(path, "indoor", sections["indoor"])
        _require(path, "indoor", values, ("kappa_np_per_m", "depth_m"))
        try:
            indoor = IndoorClutter(values["kappa_np_per_m"], values["depth_m"])
        except ValueError as exc:
            raise ConfigError(f"{path}: [indoor] {exc}") from exc

    street = None
    if "street" in sections:
        street = _floats(path, "street", sections["street"])

    return EnvironmentConfig(str(path), frequency_hz, wall, canyon_dims,
                             foliage, penetration, macro, indoor, street,
                             tuple(flags))


def _build_penetration(values: dict) -> PenetrationSpec:
    variant = values["variant"]
    t2 = values.get("material_t2", 1.0)
    if variant == "unbounded":
        return PenetrationSpec.unbounded(t2)
    if variant == "street":
        if "w1_m" not in values:
            raise ValueError("street variant needs w1_m")
        return PenetrationSpec.street(values["w1_m"], t2)
    if variant == "aperture":
        missing = [k for k in ("w1_m", "w2_m") if k not in values]
        if missing:
            raise ValueError(f"aperture variant needs {', '.join(missing)}")
        return PenetrationSpec.aperture(values["w1_m"], values["w2_m"], t2)
    missing = [k for k in ("p_window", "t_window2", "t_wall2")
               if k not in values]
    if missing:
        raise ValueError(f"facade variant needs {', '.join(missing)}")
    return PenetrationSpec.facade_mixture(values["p_window"],
                                          values["t_window2"],
                                          values["t_wall2"])


def _canyon_geometry(cfg: EnvironmentConfig) -> CanyonGeometry:
    dims = cfg.canyon_dims
    ground = (Dielectric(dims["ground_index"]) if "ground_index" in dims
              else DEFAULT_GROUND)
    return CanyonGeometry(
        dims["width_m"], dims["tx_height_m"], dims["rx_height_m"], cfg.wall,
        ground, tx_offset_m=dims.get("tx_offset_m", 0.0),
        rx_offset_m=dims.get("rx_offset_m", 0.0),
    )


def _street_scene(cfg: EnvironmentConfig) -> StreetScene:
    geometry = _canyon_geometry(cfg)
    street = cfg.street
    kappa_extra = (street.get("kappa_ped_np_per_m", 0.0)
                   + street.get("kappa_scaff_np_per_m", 0.0))
    try:
        return StreetScene(
            geometry, cfg.foliage, street["standoff_m"],
            rho_v=street.get("rho_v"),
            kappa_extra_np_per_m=kappa_extra,
            direct_veg_path_m=street.get("direct_veg_path_m"),
        )
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: [street] {exc}") from exc


def _bind(law, f_hz: float, *scene):
    """range -> law(*scene, Link(range, f_hz))."""
    return lambda range_m: law(*scene, Link(range_m, f_hz))


def _bind_los(law, f_hz: float, geometry: CanyonGeometry):
    return lambda range_m: law(LosLink(geometry, range_m, f_hz))


def _bind_friis(lam: float):
    return lambda range_m: GainResult(friis_gain(lam, range_m), range_m)


_STREET = ("foliage", "street", "canyon")

# morphology -> (config blocks it needs, builder(cfg, frequency_hz) that
# returns the range -> GainResult evaluator)
MORPHOLOGIES = {
    "los_corridor": (("canyon", "wall"), lambda cfg, f_hz: _bind_los(
        los_gain_incoherent, f_hz, _canyon_geometry(cfg))),
    "los_corridor_coherent": (("canyon", "wall"), lambda cfg, f_hz: _bind_los(
        los_gain_coherent, f_hz, _canyon_geometry(cfg))),
    "suburban_street": (_STREET, lambda cfg, f_hz: _bind(
        morphology.suburban_street_gain, f_hz, _street_scene(cfg))),
    "suburban_indoor": (_STREET + ("indoor", "penetration"), lambda cfg, f_hz: _bind(
        morphology.suburban_indoor_gain, f_hz, _street_scene(cfg), cfg.indoor,
        cfg.penetration)),
    "over_top": (("macro", "foliage"), lambda cfg, f_hz: _bind(
        morphology.overtop_gain, f_hz, cfg.macro, cfg.foliage.kappa_np_per_m)),
    "rural": (("macro", "foliage"), lambda cfg, f_hz: _bind(
        morphology.rural_gain, f_hz, cfg.macro, cfg.foliage)),
    "outdoor_indoor": (("canyon", "wall", "penetration", "indoor"), lambda cfg, f_hz: _bind(
        morphology.outdoor_indoor_canyon_gain, f_hz, _canyon_geometry(cfg),
        cfg.penetration, cfg.indoor)),
    "sidewalk_trees": (_STREET + ("wall",), lambda cfg, f_hz: _bind(
        morphology.canyon_with_trees_gain, f_hz, _street_scene(cfg))),
    "canyon_total": (_STREET + ("wall", "macro"), lambda cfg, f_hz: _bind(
        morphology.canyon_total_gain, f_hz, _street_scene(cfg), cfg.macro)),
    "friis": ((), lambda cfg, f_hz: _bind_friis(wavelength_m(f_hz))),
}


def make_evaluator(cfg: EnvironmentConfig, name: str):
    """Build range -> GainResult for a morphology from a config.

    Raises ConfigError naming any missing blocks or fields.
    """
    if name not in MORPHOLOGIES:
        raise ConfigError(
            f"unknown morphology {name!r}; choose from {', '.join(MORPHOLOGIES)}"
        )
    blocks, build = MORPHOLOGIES[name]
    if cfg.frequency_hz is None:
        raise ConfigError(
            f"{cfg.path}: morphology {name!r} needs [link] frequency_hz"
        )
    missing = [block for block in blocks
               if getattr(cfg, "canyon_dims" if block == "canyon" else block) is None]
    if missing:
        raise ConfigError(
            f"{cfg.path}: morphology {name!r} needs config "
            f"block(s): {', '.join(missing)}"
        )
    if "street" in blocks and "standoff_m" not in cfg.street:
        raise ConfigError(
            f"{cfg.path}: morphology {name!r} needs [street] standoff_m"
        )
    evaluator = build(cfg, cfg.frequency_hz)
    if cfg.flags:
        inner = evaluator

        def flagged(range_m: float) -> GainResult:
            return inner(range_m).with_flags(*cfg.flags)

        return flagged
    return evaluator
