"""Exact polyhedral models of Demazure crystals and the Schubert calculus
they carry: string/GT/SGT polytopes, pipe-dream face indices, crystal
generation, and independent character/divided-difference oracles."""

from .cartan import (
    RootDatum,
    WeylElement,
    all_elements,
    all_reduced_words,
    bruhat_leq,
    compatible_subsets,
    identity_element,
    length,
    longest_element,
    multiply,
    reduced_word,
    simple_element,
    standard_word,
    word_to_element,
)
from .crystals import (
    demazure_crystal,
    generate_b_lambda,
    opposite_demazure_crystal,
    richardson_lattice_points,
)
from .faces import (
    DeformedContext,
    degree_pairing,
    demazure_faces,
    h0_dimension,
    opposite_demazure_faces,
    product_c,
    schubert_class,
    side_volume,
)
from .oracles import bgg_structure_constants, demazure_dimension, weyl_dimension
from .pipedreams import (
    Diagram,
    arrangement_kd,
    arrangement_kd_prime,
    bottom_diagram,
    ladder_closure,
    ladder_move,
    ladder_set,
    mitosis_chain,
    mitosis_top,
    mset,
)
from .polytopes import (
    Polytope,
    deformed_polytope,
    lattice_points,
    model_polytope,
    string_polytope,
    vertices,
)

__version__ = "0.1.0"
