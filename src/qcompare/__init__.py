"""Linear-optical comparison of coherent states and the protocols built on it.

Modules
-------
domain      the input domain: range guards, MAX_AMPLITUDE and the work budget
errors      InvariantError, raised when an internal cross-check fails
linear      lossless networks (beam splitters, balanced multiports) on coherent amplitudes
fock        truncated number-basis simulator, the package's brute-force oracle
detection   detector models and the Monte Carlo click engine
comparison  closed-form success probabilities and the universal baseline
lockkey     lock-and-key protocol, attack analysis, information bounds
pkd         public-key distribution with and without a trusted center
cli         command-line front end (``qcompare``)

Import each name from its module, as in
``from qcompare.comparison import compare_report``; ``import qcompare`` loads
no submodule.
"""

__version__ = "0.1.0"
