"""Exact certification of a Grover-amplified simulator for the GMW protocol.

The package is organized bottom up: ``registers`` holds the tensor-product
state and operator algebra, ``symm`` the permutation and graph machinery,
``protocol`` the real verifier view in factored form, ``simulator`` the
coherent attempt circuit with its amplification identities, ``amplify`` the
theory for arbitrary input-independent success probabilities, and ``cli``
the report runner.  Each name is imported from its module, as in
``from zkamp.protocol import Instance``; the package binds only the version.
The dense oracles the factored forms are checked against live with the
tests, not here.
"""

__version__ = "0.1.0"
