"""Named source edits that the tier-1 tests must catch.

Each mutant is a (name, file under ``src/maflow``, exact old text, new
text) entry of ``MUTANTS``.  For each one, the script copies ``src/``,
``tests/``, ``perfbench/``, ``scripts/``, ``pyproject.toml`` and
``BENCHMARK.json`` to a temporary directory, applies the edit there and
runs the tier-1 tests against the copy, one mutant at a time.  A mutant
survives when they pass.  A control run of the unedited copy comes first
and must pass.  The script prints one line per run and exits 1 if the
control fails or any mutant survives.

    PYTHONPATH=src python scripts/mutants.py [NAME ...]

The tests stop at their first failure (``-x``), so a caught mutant costs
less than a full run.  ``tests/test_scripts.py`` checks that each old text
occurs exactly once in today's source, so that the list cannot rot.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "scripts", "pyproject.toml", "BENCHMARK.json")

MUTANTS = (
    ("an RK4 weight in backprop", "flow.py",
     "_RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)",
     "_RK4_WEIGHTS = (1.0, 2.0, 1.0, 2.0)"),
    ("the shared kbar arrays of weights 1 and 2 swapped", "flow.py",
     "kbar = [shared[w][0] for w in _RK4_WEIGHTS]",
     "kbar = [shared[3.0 - w][0] for w in _RK4_WEIGHTS]"),
    ("a stage offset in the reverse chain", "flow.py",
     "kbar[i - 1] + (_STAGE_OFFSETS[i - 1] * eta) * xcot",
     "kbar[i - 1] + (0.5 * eta) * xcot"),
    ("a corrupt l0 recorded for an early step", "flow.py",
     "StepRecord(x0, l0, eta,",
     "StepRecord(x0, l0 + (k == 0), eta,"),
    ("the row reported by _first_bad_row", "flow.py",
     "return int(rows[0])",
     "return int(rows[-1])"),
    ("the log-density ignored by _first_bad_row", "flow.py",
     "np.isfinite(X).all(axis=1) & np.isfinite(L)",
     "np.isfinite(X).all(axis=1)"),
    ("each part draws its own stage contexts", "flow.py",
     "(pot, top, config, contexts, end, slice(0, k)),",
     "(pot, top, config, _stage_contexts(pot, rng, config.steps), end, slice(0, k)),"),
    ("part 1's rows reported from row 0", "flow.py",
     "batch row {rows.start + bad}",
     "batch row {bad}"),
    ("nll_loss reversed without the base-point cotangent", "flow.py",
     "grad = staticmethod(lambda X: X)",
     "grad = staticmethod(lambda X: 0.0 * X)"),
    ("variational_loss's d_x not divided by n_samples", "flow.py",
     "return energy.grad(X) / n,",
     "return energy.grad(X),"),
    ("each part's cotangents divided by its own row count", "flow.py",
     "return energy.grad(X) / n, np.full(len(X), 1.0 / n)",
     "return energy.grad(X) / len(X), np.full(len(X), 1.0 / len(X))"),
    ("the parameters hashed inside a loss", "flow.py",
     "traj = Trajectory() if record else None",
     "traj = Trajectory(fingerprint=pot.fingerprint()) if record else None"),
    ("reverse steps ranked by -k", "flow.py",
     "2 * len(traj.steps) - 1 - k)",
     "-k)"),
    ("the worker's gradient not added", "flow.py",
     "grad.add_dense(*dense)",
     "pass"),
    ("the worker part's error wins", "flow.py",
     'if early is None or (getattr(late, "order", math.inf)\n'
     '                                 < getattr(early, "order", -math.inf)):',
     "if early is None:"),
    ("the caller's NumericError always wins", "flow.py",
     '(getattr(late, "order", math.inf)\n'
     '                                 < getattr(early, "order", -math.inf))',
     "isinstance(late, NumericError)"),
    ("the worker's rows and the caller's rows swapped in the concatenation", "flow.py",
     "np.concatenate([X, own.X])",
     "np.concatenate([own.X, X])"),
    ("a worker forked while the process runs more than one thread", "flow.py",
     'return len(os.listdir("/proc/self/task")) == 1',
     "return True"),
    ("a failed fork not run in sequence", "flow.py",
     "                pass            # no process to spare: the parts run in sequence",
     "                raise"),
    ("the worker not reaped when stopped", "flow.py",
     "            os.kill(self.pid, signal.SIGKILL)\n            os.waitpid(self.pid, 0)\n",
     "            os.kill(self.pid, signal.SIGKILL)\n"),
    ("the worker reusing the previous job's evaluator", "flow.py",
     "            settings, args = _JobUnpickler(io.BytesIO(stream), buffers, groups).load()\n",
     "            settings, args = _JobUnpickler(io.BytesIO(stream), buffers, groups).load()\n"
     "            args = (groups.setdefault(\"first\", args[0]),) + args[1:]\n"),
    ("a failed call keeping the worker", "flow.py",
     "    except BaseException:\n        if worker is not None:\n            _stop_worker()\n",
     "    except BaseException:\n"),
    ("no reap at exit", "flow.py",
     "atexit.register(_stop_worker)",
     "atexit.register(lambda: None)"),
    ("the worker's handle not forgotten after a fork", "flow.py",
     "os.register_at_fork(after_in_child=_forget_worker)",
     "os.register_at_fork(after_in_child=lambda: None)"),
    ("the caller's floating-point settings not sent", "flow.py",
     "pickler.dump((np.geterr(), args))",
     "pickler.dump(({}, args))"),
    ("a job that does not pickle raised, not run in sequence", "flow.py",
     "the caller runs it\n            return False",
     "the caller runs it\n            raise"),
    ("a job the worker cannot load raised, not run on the caller", "flow.py",
     "if not isinstance(error, _NotLoaded):",
     "if True:"),
    ("a subclass of MLPPotential sent as its base", "flow.py",
     "    dispatch_table = collections.ChainMap(\n"
     "        {MLPPotential: lambda pot: (MLPPotential, (pot.params,))}, copyreg.dispatch_table)\n",
     "    def reducer_override(self, obj):\n"
     "        if isinstance(obj, MLPPotential):\n"
     "            return MLPPotential, (obj.params,)\n"
     "        return NotImplemented\n"),
    ("groups kept after a job the worker could not load", "flow.py",
     "            worker._sent.clear()\n",
     ""),
    ("the 2 a t2 W term of ParamGrad.to_vector", "potential.py",
     "coef = 2.0 * p.a * self.t2",
     "coef = p.a * self.t2"),
    ("the ragged last row block of ParamGrad._add_blocks skipped", "potential.py",
     "            block(slice(k, k + size), out)",
     "            if len(out) < len(self._scratch):\n"
     "                continue\n"
     "            block(slice(k, k + size), out)"),
    ("t2 not summed in ParamGrad.add", "potential.py",
     "self.sums += other.sums",
     "self.sums[:2] += other.sums[:2]"),
    ("the sum_k (a_k/2) W_k term of grad_lap dropped", "potential.py",
     "G += self._half_aW_sum",
     "pass"),
    ("the sum_k q_k term of grad_lap dropped", "potential.py",
     "np.subtract(self._q_sum, lap, out=lap)",
     "np.negative(lap, out=lap)"),
    ("no negate for a -1 row in SymmetryGroup.act", "symmetry.py",
     "return self._signed_take(m, X, self.perms)",
     "return np.take(X, self.perms[m], axis=-1)"),
    ("act in place of pull in SymmetrizedPotential.vjp", "symmetry.py",
     "xc = self.group.pull(m, xc)",
     "xc = self.group.act(m, xc)"),
    ("Adam's bias correction", "trainer.py",
     "m_hat = m / (1.0 - beta1 ** t)",
     "m_hat = m"),
    ("the RNG state not restored on resume", "trainer.py",
     "rng.bit_generator.state = resume.rng_state",
     "rng = np.random.default_rng(config.seed)"),
    ("the final checkpoint records config.epochs", "trainer.py",
     "final = checkpoint_now(epoch_done)",
     "final = checkpoint_now(config.epochs)"),
    ("the -n ln 256 term of bits/dim", "data.py",
     "logdet - dataset.n_dim * math.log(256.0)",
     "logdet"),
)


def source_path(root, file):
    return os.path.join(root, "src", "maflow", file)


def occurrences(mutant, root=ROOT):
    """How many times the mutant's old text occurs in its file under ``root``."""
    _, file, old, _ = mutant
    with open(source_path(root, file)) as f:
        return f.read().count(old)


CONTROL = ("control: no edit", "flow.py", "", "")


def run(mutant):
    """Apply one mutant in a copy of the tree and run tier-1 there; True if the tests fail."""
    _, file, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="maflow-mutant-") as tmp:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(tmp, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, dst)
        path = source_path(tmp, file)
        with open(path) as f:
            text = f.read()
        if old and text.count(old) != 1:
            raise ValueError(f"{file}: the old text must occur once, found {text.count(old)}")
        with open(path, "w") as f:
            f.write(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src")}
        out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors"],
                             cwd=tmp, env=env, capture_output=True, text=True)
    return out.returncode != 0


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    t = time.perf_counter()
    if run(CONTROL):
        print(f"the unedited copy fails its tests ({time.perf_counter() - t:.1f} s)")
        return 1
    print(f"passed   {time.perf_counter() - t:6.1f} s  {CONTROL[0]}", flush=True)
    survivors = 0
    for mutant in chosen:
        t = time.perf_counter()
        caught = run(mutant)
        survivors += not caught
        print(f"{'caught  ' if caught else 'SURVIVED'} {time.perf_counter() - t:6.1f} s  "
              f"{mutant[0]}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
