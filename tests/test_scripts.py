"""The repository scripts still run."""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bitwise_hashes_are_deterministic(capsys):
    # the hash values depend on the BLAS kernels of the machine, so only their
    # format and their repeatability are checked
    mod = load_script("bitwise_hashes")
    outputs = []
    for _ in range(2):
        assert mod.main() == 0
        outputs.append(capsys.readouterr().out)
    lines = outputs[0].splitlines()
    assert len(lines) == 11
    assert all(re.fullmatch(r"[0-9a-f]{40}  \S.*", line) for line in lines)
    assert outputs[1] == outputs[0]


def test_every_mutant_edits_text_that_occurs_once():
    mod = load_script("mutants")
    names = [m[0] for m in mod.MUTANTS]
    assert len(set(names)) == len(names)
    assert {"each part draws its own stage contexts", "nll_loss reversed without the base-point "
            "cotangent", "variational_loss's d_x not divided by n_samples"} <= set(names)
    for mutant in mod.MUTANTS:
        assert mod.occurrences(mutant) == 1, mutant[0]
