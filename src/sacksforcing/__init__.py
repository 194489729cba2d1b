"""Perfect-tree combinatorics and the condition calculus built on it.

The package has five layers: a bit-sequence codec (Cantor pairing,
columns, interleaving), perfect binary trees given by finite skeletons,
forcing-style conditions over those trees (pairs, guarded iterations,
finite-support products), desk-scale degree posets with censuses and
self-coding schedules, and implicit definability over finite membership
structures.  The command-line front end in `cli` batches the invariant
suites from `suites`.

Importing the package loads no layer.  Each name below, and each module
of the package, is looked up on first access (PEP 562): `from
sacksforcing import bits` loads only `bitseq` and `errors`, and
`sacksforcing.implicit.parse_formula` only `implicit` and `errors`.
"""

from importlib import import_module

_EXPORTS = {
    "bitseq": "bits bits_str column join_family join_pair pair_index "
              "pair_split split_pair width",
    "conditions": "IterCondition PairCondition ProductCondition TowerRecipe "
                  "iter_amalgamate iter_equal iter_leq iter_leq_n "
                  "iter_restrict plain_iter prod_amalgamate prod_extends "
                  "prod_leq prod_restrict sc_schedule",
    "degrees": "DegreePoset Ordinal2 ScPattern TowerCensus census_decode "
               "census_encode poset_dot sc_census_decode sc_census_encode "
               "sc_decode sc_pattern tower_degrees",
    "errors": "AmalgamationError DecodeError EngineError FusionError "
              "IncompatibleError InputError ParseError PreconditionError "
              "ResourceError",
    "implicit": "FinStructure eval_formula formula_size formula_text "
                "imp_levels implicit_subsets implicitly_defined_by "
                "parse_formula set_members set_of vn_levels",
    "trees": "SkeletonTree amalgamate enumerate_trees full_tree "
             "fusion_prefix leq_n subtree_leq tree_dot",
}
_LAYER = {name: layer for layer, names in _EXPORTS.items()
          for name in names.split()}
_MODULES = {*_EXPORTS, "cli", "suites"}
__all__ = sorted(_LAYER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYER:
        return getattr(import_module(f"{__name__}.{_LAYER[name]}"), name)
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYER, *_MODULES})
