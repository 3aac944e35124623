"""Noise-sweep benchmark of joint interference tests on a simulated
two-qubit device.

Prepared three-level superpositions are projected onto seven subset
states; the resulting probabilities reduce to the pairwise contrasts
gamma_ij, the consistency parameter F and the third-order interference
defect kappa, which are swept against readout, depolarizing and thermal
noise strengths.
"""

__version__ = "0.1.0"
