"""What ``import discred``, its lazy exports and each CLI command load,
each measured in a fresh interpreter; and the package's export list,
which must stay the one it had when ``__init__`` imported every module
eagerly, less ``validate``, deleted when one closure came to check
every based root datum."""

import json
import os
import subprocess
import sys

import pytest

import discred
from fresh_cli import SRC, fresh_run, golden_path

# ``from discred import *`` before the exports were made lazy, less
# ``validate``: the re-exported names and the modules ``__init__``
# imported on the way
EAGER_EXPORTS = {
    "AbHom", "AdHom", "BRDAutomorphism", "BasedRootDatum",
    "BudgetExceededError", "Classification", "Cochain", "CohomologyClass",
    "CohomologyGroup", "DiagonalizableGroup", "DisconnectedGroupDescriptor",
    "DiscredError", "ExtensionModel", "FGAbelianGroup", "FiniteGroup",
    "GammaModule", "IntMatrix", "InternalCheckError", "RootDatum",
    "ValidationError", "abgroup", "ad_from_element_images",
    "ad_from_generator_images", "autbrd", "brd_automorphism",
    "build_extension", "center", "classify", "cocycle_witness",
    "cohomology", "cohomology_group", "cyclic", "diagram_automorphisms",
    "differential", "dynkin", "eckmann_check", "errors", "exactlin",
    "extension", "extensions_equivalent", "extract_cocycle",
    "from_generators", "gamma_module", "grouptable",
    "induced_center_action", "is_brd_automorphism", "is_cocycle",
    "positive_systems", "pushout", "quotient_mod_center", "relations",
    "rootdatum", "smith_normal_form", "solve_integer", "stabilized_h2",
    "torsion_at", "torsion_inclusion", "trivial_ad", "trivial_module",
    "validate_ad", "validate_based", "validate_table", "weyl_generate",
}
ENGINE = {"cohomology", "relations", "extension"}


def loaded_after(code):
    """The ``discred`` submodules loaded after running ``code`` in a new
    interpreter, and the JSON value ``code`` leaves in ``result``."""
    probe = (f"import sys\nresult = None\n{code}\nimport json\n"
             "print(json.dumps([sorted(m[len('discred.'):] for m in "
             "sys.modules if m.startswith('discred.')), result]))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    modules, result = json.loads(out.splitlines()[-1])
    return set(modules), result


def test_import_loads_no_submodule():
    assert loaded_after("import discred") == (set(), None)


def test_h2_names_load_only_the_cohomology_engine():
    modules, _ = loaded_after(
        "from discred import cohomology_group, gamma_module")
    assert modules == {"errors", "exactlin", "abgroup", "grouptable",
                       "record", "relations", "cohomology"}


def test_extension_models_skip_the_root_datum_layer():
    modules, _ = loaded_after(
        "from discred import build_extension, pushout, quotient_mod_center")
    assert modules == {"errors", "exactlin", "abgroup", "grouptable",
                       "record", "relations", "cohomology", "extension"}


@pytest.mark.parametrize("cmd", ["check", "center", "weyl", "dynkin"])
def test_light_commands_skip_the_engine(cmd):
    path = os.path.join(SRC, "discred", "problems", "d4_adjoint_s3.json")
    modules, code = loaded_after(
        "import contextlib, io\nfrom discred.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = main([{cmd!r}, '--input', {path!r}])")
    assert code == 0
    assert not modules & ENGINE
    assert "rootdatum" in modules


def test_classify_loads_the_engine():
    path = os.path.join(SRC, "discred", "problems", "sl2_z2_trivial.json")
    modules, code = loaded_after(
        "import contextlib, io\nfrom discred.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = main(['classify', '--input', {path!r}])")
    assert code == 0 and ENGINE <= modules


# what ``dataclasses`` imports on the way; records are built without it
HEAVY = ["dataclasses", "inspect"]


@pytest.mark.parametrize("code", [
    "from discred import classify",
    "import contextlib, io\nfrom discred.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    main(['classify', '--input', {path!r}])",
], ids=["library", "cli"])
def test_classify_loads_neither_dataclasses_nor_inspect(code):
    path = os.path.join(SRC, "discred", "problems", "sl2_z2_trivial.json")
    _, loaded = loaded_after(
        code.format(path=path)
        + f"\nresult = [m for m in {HEAVY!r} if m in sys.modules]")
    assert loaded == []


def test_star_import_and_dir_keep_the_eager_names():
    modules, names = loaded_after(
        "import discred\n"
        "listed = [n for n in dir(discred) if not n.startswith('_')]\n"
        "ns = {}\nexec('from discred import *', ns)\n"
        "result = [listed, sorted(n for n in ns if n != '__builtins__')]")
    listed, star = names
    assert set(listed) == set(star) == EAGER_EXPORTS
    assert modules == {"abgroup", "autbrd", "cohomology", "errors",
                       "exactlin", "extension", "grouptable", "record",
                       "relations", "rootdatum"}


def test_exports_are_the_module_objects():
    assert set(discred.__all__) == EAGER_EXPORTS
    assert len(discred.__all__) == len(EAGER_EXPORTS)
    for module, names in discred._EXPORTS.items():
        mod = getattr(discred, module)
        assert mod is sys.modules[f"discred.{module}"]
        for name in names:
            assert getattr(discred, name) is getattr(mod, name)
            assert vars(discred)[name] is getattr(mod, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'discred' has no attribute 'nope'$"):
        discred.nope
    assert not hasattr(discred, "standard_form")


@pytest.mark.parametrize("cmd", ["check", "center", "weyl", "dynkin",
                                 "classify"])
def test_fresh_cli_report_matches_golden(cmd):
    """One problem per command through ``python -m discred.cli``;
    tests/fresh_cli.py runs every problem and format."""
    code, out, err = fresh_run("d4_adjoint_s3", cmd, "json")
    assert (code, err) == (0, "")
    with open(golden_path("d4_adjoint_s3", cmd, "json"), "rb") as fh:
        assert out == fh.read()
