"""Spectral simulation and control synthesis for a damped hinged beam.

The model is the suspension-bridge beam of Lazer-McKenna type: a damped
Euler-Bernoulli beam on (0, 1) with hinged ends, a one-sided cable-stay
restoring force, a distributed control, impulsive velocity jumps, a
delayed nonlinear perturbation, and a nonlocal initial history.  The
package simulates mild solutions on a spectral truncation, synthesizes
minimum-energy steering controls from per-mode controllability Gramians,
and runs the pull-back approximate-controllability experiment and the
exact-controllability fixed-point iteration with its contraction
certificate.
"""

__version__ = "0.1.0"
