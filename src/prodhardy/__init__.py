"""Desk-scale computational pipeline for product Hardy space machinery on
finite weighted quasi-metric spaces: dyadic cube systems, Haar-type wavelet
bases, product square functions, strong-maximal level sets, the Journe
covering check, and a fully constructive atomic decomposition -- every step
verifiable by brute force."""

from .space import FiniteSpace, SpaceValidationError, load_space, make_space
from .dyadic import Cube, DyadicSystem, build_system, verify_system
from .wavelet import Wavelet, WaveletBasis, build_haar, building_blocks
from .product import (ProductCoefficients, ProductSpace, double_center, hp_seminorm,
                      inverse_product_transform, product_transform, square_function)
from .maximal import OpenSet, ell_enlarge, enlarge, epsilon0, level_sets, strong_maximal
from .journe import MaximalRectangleFamily, cmo_p, journe_check, maximal_rectangles
from .atoms import (AtomicDecomposition, ChannelError, ProductAtom, atomic_decompose,
                    equivalence_report, generate_atom, verify_atom)

__version__ = "0.1.0"
