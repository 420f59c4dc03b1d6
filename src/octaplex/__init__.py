"""Verification workbench for toric codes on the octaplex tessellation."""

__version__ = "0.1.0"
