"""Second-order-in-time Fourier pseudospectral solver for the good
Boussinesq equation, with exact solitary-wave references and the
convergence/stability experiment harness.

Each public name is imported from its module, e.g.
``from boussinesq.stepping import run``; the package itself exports none."""
