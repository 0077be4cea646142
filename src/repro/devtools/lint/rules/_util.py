"""The runtime packages, shared by the rules that gate only them."""

from __future__ import annotations

__all__ = ["RUNTIME_PACKAGES", "in_runtime_package"]

#: The distributed runtime: code that runs on the master and workers.
RUNTIME_PACKAGES = ("repro.workqueue", "repro.system", "repro.cluster")


def in_runtime_package(module: str) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in RUNTIME_PACKAGES
    )
