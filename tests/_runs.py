"""Run directories built by hand for the stage tests."""

import dataclasses

from churnpool.data import load_collection


def save_fitted_trace(trace, out, split=0.20):
    """Save ``trace`` as ``out/trace.bin`` with the fit record that a CLI
    fit at ``split`` on the collection under ``out/smes`` writes into its
    header."""
    record = {"calibration_split": split,
              "collection_sha256": load_collection(out / "smes").fingerprint()}
    dataclasses.replace(trace, config={**trace.config, "fit": record}).save(
        out / "trace.bin")
