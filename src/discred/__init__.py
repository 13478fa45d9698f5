"""Exact classification of disconnected reductive groups.

A connected reductive group is encoded by its based root datum; a
disconnected group with that identity component and component group
Gamma is classified by a degree-2 cohomology class of Gamma in the
finite part of the center.  Everything here runs in exact integer
arithmetic.

``import discred`` loads no submodule.  Each name of ``__all__`` is
imported from its module on first access (PEP 562) and kept in the
package namespace, so a run compiles only the modules it uses:
``discred.cohomology_group`` loads ``errors``, ``exactlin``, ``abgroup``,
``grouptable``, ``record``, ``relations`` and ``cohomology``, never
``extension``; ``discred.build_extension`` adds ``extension`` and loads
neither ``rootdatum`` nor ``autbrd``, which ``classify`` imports when
called.  ``_EXPORTS`` is the one table of re-exports; each module it
lists is exported by name too.  The value classes are ``record.Record``
subclasses, whose methods are made at class creation without
compiling code.
"""

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "abgroup": ("AbHom", "DiagonalizableGroup", "FGAbelianGroup",
                "torsion_at", "torsion_inclusion"),
    "autbrd": ("AdHom", "BRDAutomorphism", "ad_from_element_images",
               "ad_from_generator_images", "brd_automorphism",
               "diagram_automorphisms", "induced_center_action",
               "is_brd_automorphism", "trivial_ad", "validate_ad"),
    "cohomology": ("Cochain", "CohomologyClass", "CohomologyGroup",
                   "GammaModule", "cohomology_group", "differential",
                   "eckmann_check", "gamma_module", "is_cocycle",
                   "stabilized_h2", "trivial_module"),
    "errors": ("BudgetExceededError", "DiscredError", "InternalCheckError",
               "ValidationError"),
    "exactlin": ("IntMatrix", "smith_normal_form", "solve_integer"),
    "extension": ("Classification", "DisconnectedGroupDescriptor",
                  "ExtensionModel", "build_extension", "classify",
                  "cocycle_witness", "extensions_equivalent",
                  "extract_cocycle", "pushout", "quotient_mod_center"),
    "grouptable": ("FiniteGroup", "cyclic", "from_generators",
                   "validate_table"),
    "relations": (),      # exported as a module only
    "rootdatum": ("BasedRootDatum", "RootDatum", "center", "dynkin",
                  "positive_systems", "validate_based", "weyl_generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
