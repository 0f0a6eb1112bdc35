"""Linear-optical comparison of coherent states and the protocols built on it.

Modules
-------
domain      the input domain: range guards, MAX_AMPLITUDE and the work budget
linear      lossless networks (beam splitters, balanced multiports) on coherent amplitudes
fock        truncated number-basis simulator, the package's brute-force oracle
detection   detector models and the Monte Carlo click engine
comparison  closed-form success probabilities and the universal baseline
lockkey     lock-and-key protocol, attack analysis, information bounds
pkd         public-key distribution with and without a trusted center
cli         command-line front end (``qcompare``)
"""

from .errors import InvariantError
from .linear import (
    CoherentRegister,
    LinearNetwork,
    apply_network,
    compose,
    make_balanced_multiport,
    make_beam_splitter,
    make_phase_shift,
)
from .fock import (
    FockVector,
    apply_bs_fock,
    coherent_fock,
    fidelity,
    odd_photon_probability,
    photon_distribution,
    product_state,
    recommended_cutoff,
    squeezed_pass_state,
    squeezed_vacuum_fock,
    su2_pass_state,
)
from .detection import (
    IDEAL,
    DetectorModel,
    Estimate,
    run_trials,
    stream,
)
from .comparison import (
    AmgmReport,
    ComparisonReport,
    coherent_overlap,
    compare_report,
    multiport_success_forms,
    no_click_probabilities,
    p_success_conjugate,
    p_success_multiport,
    p_success_phase,
    p_success_two,
    p_success_universal,
    p_symm,
    unbalanced_test,
)
from .lockkey import (
    AttackOptimum,
    EntropyReport,
    KeyString,
    LockTestResult,
    analytic_pass_probability,
    attack_pass_probability,
    entropy_by_diagonalization,
    forgery_string_probability,
    generate_key,
    holevo_entropy_finite,
    holevo_entropy_infinite,
    lock_test,
    lock_test_pass_rate,
    optimal_coherent_attack,
    photon_budget_ok,
    stirling_entropy_approx,
)
from .pkd import (
    AliceCenterAttack,
    CharlieTamper,
    Party,
    ProtocolTranscript,
    VerificationResult,
    cheat_bound,
    coherent_with_overlap,
    distributed_exchange,
    private_key_amplitudes,
    simulate_dishonest_alice_center,
    simulate_dishonest_charlie,
    trusted_center_distribute,
    verify_against_private,
)

__version__ = "0.1.0"
