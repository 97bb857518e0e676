"""Golden CLI outputs: the exit code and the sha256 of stdout of fixed commands,
and the public names of the package.

The digests pin the output byte for byte, so any change to what a command
prints shows up here.  ``CONSTANTS`` in an argument list stands for the path
of a constants file holding ``CONSTANTS_TEXT``.
"""

import hashlib

import pytest

import twoflags
from twoflags.cli import main

CONSTANTS_TEXT = '{"b": {"3": "1/2"}, "c": {"3": "-2", "4": "5"}}'

GOLDEN = [
    (("classify", "--model", "ca_2"), 0,
     "03185a3a5de48f061ba75d5492447976a1a381c5edbf9cc7e5bc0aa033e706fe"),
    (("classify", "--model", "ex_2"), 0,
     "be9ab305fc6fe57e916b144b02ccdeaa0e4c6cad3fad38f6226539f33af53525"),
    (("classify", "--model", "bcd"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("classify", "--model", "appxB_D"), 0,
     "7daee3184d937a9054909c3af59fd949eca4a66188fdd4bd985a26764f952e52"),
    (("classify", "--model", "appxB_E"), 0,
     "cea99c5f158d991270e7d931f95d20a42e60906f3593532550d89a2e4cc3022c"),
    (("classify", "--model", "appxB_D", "--b", "3=1/2", "--c", "3=-2", "--c", "4=5/3"), 0,
     "7daee3184d937a9054909c3af59fd949eca4a66188fdd4bd985a26764f952e52"),
    (("classify", "--model", "appxB_E", "--b", "3=1/2", "--c", "3=-2"), 0,
     "cea99c5f158d991270e7d931f95d20a42e60906f3593532550d89a2e4cc3022c"),
    (("classify", "--model", "appxB_D", "--constants", "CONSTANTS"), 0,
     "7daee3184d937a9054909c3af59fd949eca4a66188fdd4bd985a26764f952e52"),
    (("classify", "--word", "1.2.1.3", "--b", "3=1", "--c", "3=1"), 0,
     "cea99c5f158d991270e7d931f95d20a42e60906f3593532550d89a2e4cc3022c"),
    (("classify", "--word", "1.2.1.2", "--constants", "CONSTANTS"), 0,
     "7daee3184d937a9054909c3af59fd949eca4a66188fdd4bd985a26764f952e52"),
    (("classify", "--word", "1.2.1.2", "--constants", "CONSTANTS", "--c", "4=-7/2"), 0,
     "7daee3184d937a9054909c3af59fd949eca4a66188fdd4bd985a26764f952e52"),
    (("classify", "--word", "1.2", "--point", "0,0,0,0,0,1,0"), 0,
     "b3a2c9b1bcb36b86da7edebfca7b26bcfe42dc78ff690860b9d4d421e7d278a5"),
    (("classify", "--word", "1.2", "--cap", "2"), 0,
     "be9ab305fc6fe57e916b144b02ccdeaa0e4c6cad3fad38f6226539f33af53525"),
    (("classify", "--word", "1.2.3", "--point", "1,-2,1/3,0,5,0,0,2,-1"), 0,
     "47f8eb1e436d93d5850c885f3b1e8a9039e6008cfae48b2aad25840f62636184"),
    (("classify", "--model", "ex_2", "--generic-geometry"), 0,
     "be9ab305fc6fe57e916b144b02ccdeaa0e4c6cad3fad38f6226539f33af53525"),
    (("classify", "--word", "1.2.3", "--generic-geometry"), 0,
     "6c4c5da1768ec5811d27ad5ca8c40211d6a071a392315035525ed24b06672b10"),
    (("classify", "--word", "1.2.3.3", "--generic-geometry"), 0,
     "d44c5f89ab4f029a0ef7e77213f79422695e5badc7fb076996d6bae77915f90d"),
    (("classify", "--word", "1.2.1.3", "--b", "3=1", "--c", "3=1", "--generic-geometry"), 0,
     "cea99c5f158d991270e7d931f95d20a42e60906f3593532550d89a2e4cc3022c"),
    (("verify", "--length", "3", "--seed", "9", "--zero-constants"), 0,
     "549febe4077d8011a9343ba879ab4be8a709cc33e54bd2f51ec61565c598b045"),
    (("atlas", "--length", "4", "--format", "json"), 0,
     "06bd8f9dd78166a677a10175d17ef282519bb6cfeca59591768bc8bd5b0741f6"),
    (("atlas", "--length", "4", "--format", "jsonl"), 0,
     "f8aa51d00549e8bb4e08b91d05493f5e997639672196298655854151c0201aff"),
    (("atlas", "--length", "4", "--format", "csv"), 0,
     "c618f87352ace7ef3f93c5d0b4fc2e23b02bba0b7e93905a2dc85ea5ffd7bf0a"),
    (("atlas", "--length", "4", "--format", "dot"), 0,
     "95d30fa9cea1cced060c96de2475191e739d42f48a72719656bac5e3bf8fb0a0"),
    (("atlas", "--length", "8", "--format", "json"), 0,
     "2c7ee91ff5c63ffcf9961fe44cdc8c5e4f1faec4f5ea4db8e5fb347662ecbf1b"),
    (("atlas", "--length", "8", "--format", "jsonl"), 0,
     "2b8c0f81083126754226d1319e00d3d2989cef8bff2afef057dd7e1dd938eb87"),
    (("atlas", "--length", "8", "--format", "csv"), 0,
     "74f99c3d90ee3c6f7353489a0a7d5c2b2e6b775476e4eacc91f8ca80aa8f9fb0"),
    (("atlas", "--length", "8", "--format", "dot"), 0,
     "4c469ac28fe4d9803b69d02272da92c88c777fba5281b02857bf1f73a647de75"),
    (("count", "--width", "2", "--length", "7"), 0,
     "ee3e9aa66fc8c9e97aceae912b53d97631edb3ebd14d95c3aa08a8d689ec1cf5"),
    (("count", "--width", "6", "--length", "7"), 0,
     "f93f6b4e35dcb7edd9e8da21209157edc41a9ccdca289181f690c401e22240a4"),
    (("count", "--width", "1", "--length", "9"), 0,
     "56292515f7d3a7110811eb8de26b3f75f82a0766aa5a1fd66ebcfcb84fe6d5ff"),
    (("count", "--length", "60"), 0,
     "a8963d57bccc27bd7a1203b301006e609c733940b654405709d06185c18dc976"),
    (("locus", "--word", "1.2.1.3"), 0,
     "b3fecddeed9af99d4b573aeaa3ea244ecb26e83d9b161f52c9b2321ae5fc5d0b"),
    (("locus", "--word", "1.2.3.3.2"), 0,
     "a1e9dc7ec30736780576bd49d6a398cd7ef6d2566be722269bc21df71b7bc77a"),
]


def run_golden(argv, tmp_path, capsys):
    constants = tmp_path / "constants.json"
    constants.write_text(CONSTANTS_TEXT)
    argv = [str(constants) if arg == "CONSTANTS" else arg for arg in argv]
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(case[0]) for case in GOLDEN])
def test_cli_output_is_byte_identical(argv, code, digest, tmp_path, capsys):
    assert run_golden(argv, tmp_path, capsys) == (code, digest)


# every name `from twoflags import *` gives, the submodules included
PUBLIC_NAMES = [
    "AtlasRecord", "BadModelName", "BadSyntax", "Chart", "ChartMismatch", "ClassificationReport",
    "ConstantNotAdmitted", "DegeneratePivot", "Distribution", "EkrBuild", "EkrSpec", "GeneratorBlowup",
    "IndexOutOfRange", "NotSpecialFlag", "OneForm", "Poly", "RationalMatrix", "RuleViolation", "SandwichWord",
    "Subspace", "TwoflagsError", "UnexpectedCovariantDimension", "VectorField", "Word", "adjacencies", "atlas",
    "big_flag", "build_atlas", "build_ekr", "cauchy_char_at", "classify", "closed_form_F", "closed_form_L",
    "codimension", "count_classes", "covariant_at", "ekr", "enumerate_words", "errors", "exactalg", "geometry",
    "iter_atlas", "lie_bracket", "lie_square", "model", "parse_rational", "polynomial_nullspace",
    "rank_and_nullspace", "singularity_class_at", "singularity_locus_equations", "small_flag", "span_includes",
    "value_at",
]


def test_public_names_are_pinned():
    assert sorted(twoflags.__all__) == PUBLIC_NAMES
