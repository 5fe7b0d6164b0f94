"""Asymmetric CSS codes built from products of classical codes.

The package covers the whole pipeline: finite fields and packed GF(q)
matrices, classical component codes, the product and enlarged quantum
constructions, encoding circuits, syndrome decoders, Pauli channels, rate
bounds, and the Monte Carlo harness behind the command line tool.
"""

from .bounds import (
    hashing_rate,
    max_hashing_gap,
    pccss_channel_rate,
    pz_upper_bound,
    rate_curves,
)
from .channel import PauliChannel, PauliError, make_channel, sample_error, sample_errors
from .codes import (
    LinearCode,
    dual,
    lift_block,
    make_alternant,
    make_expander,
    make_repetition,
)
from .css import (
    CssCode,
    StabilizerCode,
    check_valid,
    css_from_text,
    css_to_text,
    distance_css,
    distance_stabilizer,
    fast_family,
    make_css,
    make_enlarged,
    make_pccss,
)
from .decode import (
    bdd_alternant,
    exhaustive_decode,
    flip_decode,
    pccss_decode_x,
    pccss_decode_z,
)
from .galois import GF2, FieldSpec, field_of_size
from .harness import ExperimentConfig, adversarial_sweep, run_trials, timing_scaling
from .matgf import MatrixGF
from .stabcirc import Circuit, build_encoder, tableau_run, verify_encoder

__all__ = [
    "GF2",
    "FieldSpec",
    "field_of_size",
    "MatrixGF",
    "LinearCode",
    "make_repetition",
    "make_alternant",
    "make_expander",
    "lift_block",
    "dual",
    "CssCode",
    "StabilizerCode",
    "make_css",
    "make_pccss",
    "fast_family",
    "make_enlarged",
    "check_valid",
    "distance_css",
    "distance_stabilizer",
    "css_to_text",
    "css_from_text",
    "Circuit",
    "build_encoder",
    "verify_encoder",
    "tableau_run",
    "PauliChannel",
    "PauliError",
    "make_channel",
    "sample_error",
    "sample_errors",
    "exhaustive_decode",
    "bdd_alternant",
    "flip_decode",
    "pccss_decode_x",
    "pccss_decode_z",
    "hashing_rate",
    "pccss_channel_rate",
    "max_hashing_gap",
    "pz_upper_bound",
    "rate_curves",
    "ExperimentConfig",
    "run_trials",
    "adversarial_sweep",
    "timing_scaling",
]

__version__ = "0.1.0"
