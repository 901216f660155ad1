"""degenkit: exact integer-lattice analysis of semiabelian degenerations."""

__version__ = "0.1.0"
