"""Experiment registry: figure name -> driver module.

A driver is any module exposing the sweep interface (``PROFILES``,
``sweep``, ``run_point``, ``check`` and ``table``); this module maps
the user-facing figure names onto them and validates both the name and
the requested profile with actionable error messages instead of
tracebacks.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import Dict, List

FIGURE_MODULES: Dict[str, str] = {
    "fig08": "repro.experiments.fig08",
    "fig09": "repro.experiments.fig09",
    "fig10": "repro.experiments.fig10",
    "fig11": "repro.experiments.fig11",
    "fig12": "repro.experiments.fig12",
    "fig13": "repro.experiments.fig13",
    "fig14": "repro.experiments.fig14",
    "fig15": "repro.experiments.fig15",
    "fig16": "repro.experiments.fig16",
    "fig17": "repro.experiments.fig17",
    "fig18": "repro.experiments.fig18",
    "fig19": "repro.experiments.fig19",
    "fig20": "repro.experiments.fig20",
    "fig21": "repro.experiments.fig21",
    "fig22": "repro.experiments.fig22",
    "fig23": "repro.experiments.fig23",
    "fig24": "repro.experiments.fig24",
    "fig28": "repro.experiments.fig28_29",
    "nqos": "repro.experiments.nqos",
}

_REQUIRED_ATTRS = ("PROFILES", "sweep", "run_point", "check", "table")


class UnknownExperimentError(ValueError):
    """Raised for a figure name the registry does not know."""


class UnknownProfileError(ValueError):
    """Raised for a profile name the driver does not define."""


def available_experiments() -> List[str]:
    return sorted(FIGURE_MODULES)


def driver_for(name: str) -> ModuleType:
    """Import and validate the driver module for a figure name."""
    try:
        module_name = FIGURE_MODULES[name]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(available_experiments())}"
        ) from None
    module = importlib.import_module(module_name)
    missing = [a for a in _REQUIRED_ATTRS if not hasattr(module, a)]
    if missing:
        raise TypeError(
            f"driver {module_name} lacks the sweep interface: "
            f"missing {', '.join(missing)}"
        )
    return module


def profiles_for(name: str) -> List[str]:
    return sorted(driver_for(name).PROFILES)


def validate_profile(name: str, profile: str) -> None:
    profiles = profiles_for(name)
    if profile not in profiles:
        raise UnknownProfileError(
            f"{name}: unknown profile {profile!r}; available: "
            f"{', '.join(profiles)}"
        )
