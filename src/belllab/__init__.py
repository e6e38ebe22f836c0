"""Desk-scale laboratory for spin-singlet correlation experiments.

Simulates EPR-Bohm singlet runs under pluggable counterfactual models,
checks the exact finite-run Bell identities and the asymptotic V3/V4
inequalities, decides local-polytope feasibility of correlation targets,
and classifies which correlations have definite values under hypothesis
sets drawn from {QM, WeakRealism, Locality, EACP, FWP}.
"""

__version__ = "0.1.0"
