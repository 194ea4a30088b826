"""Desk-scale laboratory for space-bounded Kolmogorov complexity.

A two-stack machine model with exact space accounting, deciders for
halting within a space bound, a reference interpreter with exhaustive
shortest-program search at small caps, entropy vectors with an exact
Shannon-cone membership prover, and a harness that measures the minimal
constants of complexity laws on exhaustive grids.
"""

from .machine import (
    Configuration,
    Instruction,
    MachineFormatError,
    BitsParseError,
    MachineSpec,
    Op,
    RunResult,
    Verdict,
    canonical_halt_state,
    canonicalize,
    check_bits,
    final_configuration,
    parse_bits,
    parse_machine,
    record_width,
    run,
    serialize_machine,
    serialized_length,
    state_width,
    step,
)
from .halting import (
    HaltVerdict,
    ProbeStats,
    config_count,
    decide_backward,
    decide_counter,
    decide_forward,
    predecessors,
    stack_pair_count,
)
from .kolmo import (
    C_SIM,
    INTERPRETER_TAG,
    MACHINE_MODE_MIN_LENGTH,
    MAX_CLOSED_FORM_CAP,
    ComplexityCache,
    ComplexityProfile,
    ComplexityResult,
    ReferenceParseError,
    ReferenceRunError,
    cached_ks,
    complexity_profile,
    decode_pair,
    encode_pair,
    encode_tuple,
    ks,
    ks_scan,
    reference_decode,
    scan_combine,
)
from .entropy import (
    JointDistribution,
    LinearInequality,
    ShannonDecision,
    basic_inequality,
    elemental_inequalities,
    entropy_vector,
    evaluate,
    is_shannon,
    parse_inequality,
)
from .laws import (
    CAVEAT,
    BaselineMismatch,
    LawReport,
    StageOrdinal,
    TypicalSet,
    find_stable_level,
    freeze_or_check,
    gap_report,
    iterate_f,
    lemma_bound,
    mutual_info_profile,
    staged_enumeration,
    staged_sets,
    strings_up_to,
    typical_set,
    verify_law,
)

__version__ = "0.1.0"
