"""Finite ideal lattices: prime spectra, dual topologies, support data."""

from .adjunction import (LatticeMorphism, SpectrumDatum, SupportDatum,
                         adjunct_map, adjunct_morphism, check_support_morphism,
                         is_classifying, preimage_uniqueness, spec_of_morphism,
                         tautological_spectrum_datum, tautological_support_datum,
                         universal_spectrum_map, universal_support_map,
                         verify_morphism)
from .decomposition import (Decomposition, decompose_semiprime,
                            finest_partition, indecomposable_witness,
                            is_indecomposable)
from .errors import (ClosureError, DatumError, DecompositionError,
                     LatSpecError, LatticeError, MorphismError, SemiringError,
                     SourceError, SpaceError, VerificationError)
from .instances import (ClosureSublattice, ClosureSystem, FiniteSemiring,
                        SemiringIdealLattice, ThickTensorLattice,
                        closure_projection, closure_sublattice, divisor_lattice,
                        enumerate_ideals, ideal_closure,
                        object_support_from_datum, semiring_ideal_lattice,
                        support_datum_from_objects, thick_tensor_lattice,
                        verify_closure_system)
from .lattice import (FiniteIdealLattice, is_prime, is_semiprime,
                      prime_avoidance, prime_elements, prime_violation,
                      primes_above, primes_not_above, radical,
                      semiprime_elements, verify_axioms)
from .report import Check, Report
from .sources import (build_lattice, lattice_source, parse_closure_system,
                      parse_datum, parse_lattice, parse_semiring, parse_space,
                      read_lattice, read_space, space_source)
from .topology import (ClassificationTable, ContinuousMap, FiniteSpace,
                       canonical_homeomorphism, closed_set_classification,
                       generic_point, hochster_dual, irreducibility_witness,
                       is_homeomorphism, is_irreducible, is_spectral,
                       open_lattice, open_set_classification,
                       spectrum_positions, support_classification,
                       support_points, verify_spectral, zariski_spectrum)

__version__ = "0.1.0"
