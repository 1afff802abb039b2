"""Exact verification toolkit: Frobenius splitting verdicts, Witt carries,
Groebner smoothness certificates, integer intersection numbers and del Pezzo
lattice counts.

The package namespace re-exports nothing, so ``import fanocheck`` loads no
module.  Import each of the nine modules by path, for example
``from fanocheck.poly import parse_poly``:

- ``poly``: polynomials mod p, parsing, the packed kernels;
- ``ideals``: Buchberger, normal forms, localized unit tests;
- ``splitting``: F-splitting verdicts, reports and carry probes;
- ``geometry``: ambient spaces and smoothness verdicts;
- ``chow``: intersection rings and class expressions;
- ``delpezzo``: Picard lattices and PGL_3 orbits;
- ``smallfields``: table-driven GF(p^k);
- ``corpus``: the check kinds and corpus reports;
- ``cli``: the ``fanocheck`` command line.
"""

__version__ = "0.1.0"
