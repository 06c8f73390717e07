"""Extended Kalman-Bucy filtering with provable error envelopes.

Continuous-time nonlinear filtering for contractive signals: model classes
with certified regularity constants, a deterministic simulation engine for
the signal/observation/filter triple, closed-form concentration and
forgetting envelopes, and a Monte Carlo harness that checks the envelopes
against sampled paths.  Each name is imported from the module that
defines it; the packages re-export nothing.
"""

__version__ = "0.1.0"
