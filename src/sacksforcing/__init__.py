"""Perfect-tree combinatorics and the condition calculus built on it.

The package has five layers: a bit-sequence codec (Cantor pairing,
columns, interleaving), perfect binary trees given by finite skeletons,
forcing-style conditions over those trees (pairs, guarded iterations,
finite-support products), desk-scale degree posets with censuses and
self-coding schedules, and implicit definability over finite membership
structures.  The command-line front end in `cli` batches the invariant
suites from `suites`.
"""

from .bitseq import (bits, bits_str, column, join_family, join_pair,
                     pair_index, pair_split, split_pair, width)
from .conditions import (IterCondition, PairCondition, ProductCondition,
                         iter_amalgamate, iter_equal, iter_leq, iter_leq_n,
                         iter_restrict, plain_iter, prod_amalgamate,
                         prod_extends, prod_leq, prod_restrict)
from .degrees import (DegreePoset, Ordinal2, ScPattern, TowerCensus,
                      TowerRecipe, census_decode, census_encode, poset_dot,
                      sc_census_decode, sc_census_encode, sc_decode,
                      sc_pattern, sc_schedule, tower_degrees)
from .errors import (AmalgamationError, DecodeError, EngineError,
                     FusionError, IncompatibleError, InputError, ParseError,
                     PreconditionError, ResourceError)
from .implicit import (FinStructure, eval_formula, formula_size,
                       formula_text, imp_levels, implicit_subsets,
                       implicitly_defined_by, parse_formula, set_members,
                       set_of, vn_levels)
from .trees import (SkeletonTree, amalgamate, enumerate_trees, full_tree,
                    fusion_prefix, leq_n, subtree_leq, tree_dot)

__version__ = "0.1.0"
