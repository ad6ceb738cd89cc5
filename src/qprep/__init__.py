"""qprep: amplitude encoding via quantum phase estimation.

Compiles a classical complex vector into explicit gate sequences (deterministic
and probabilistic schemes), synthesizes the required diagonal unitaries into
multi-controlled phase gates, simulates everything exactly, and verifies the
analytic error and success-probability bounds.  Each name is imported from
its module (``qprep.prepare``, ``qprep.sim``, ...); the package imports none.
"""

__version__ = "0.1.0"
