"""NICs and the inter-server fabric."""

from repro.net.fabric import InterServerFabric, FabricConfig, StorageBackend
from repro.net.nic import LNic, NicConfig, RNic, TopLevelNic

__all__ = [
    "LNic",
    "RNic",
    "TopLevelNic",
    "NicConfig",
    "InterServerFabric",
    "FabricConfig",
    "StorageBackend",
]
