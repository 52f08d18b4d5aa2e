"""Committed mutants that tier-1 must kill, and their runner.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # the named ones

Each mutant replaces one exact text, which must occur once, in one file of
``src/habdf``. The runner copies ``src/habdf`` into a temporary directory,
applies the mutant to the copy (never to the checkout) and runs tier-1
against the copy with ``-x`` and no hypothesis example database
(``tests/conftest.py``'s ``no-database`` profile), so a mutant is decided as
a fresh checkout decides it, not by examples an earlier local run saved in
``.hypothesis/``. A mutant that tier-1 passes has survived. The
runner prints the test that killed each mutant and exits 1 if any mutant
survived or no longer applies. The file is not named ``test_*.py``, so pytest
does not collect it; each mutant costs up to one tier-1 run.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# errors._RULES' integer rules, which two mutants replace.
_INTEGER_RULES = '''    "an integer": lambda v: isinstance(v, numbers.Integral),
    "an integer >= 0": lambda v: isinstance(v, numbers.Integral) and v >= 0,
    "an integer >= 1": lambda v: isinstance(v, numbers.Integral) and v >= 1,'''

# (file under src/habdf, old text, new text, name)
MUTANTS = [
    # The paper's noise law and the expert's reset.
    ("fusion.py", "d, w_m[i], gamma[i], delta[i], floor", "d, w_m[i], delta[i], gamma[i], floor",
     "swapped-gamma-delta"),
    ("fusion.py", "return float(max(gamma * w_d + delta * w_M, cov_floor))",
     "return float(gamma * w_d + delta * w_M)", "no-floor"),
    ("fusion.py", "vecs.append(np.asarray(y, dtype=float))", "vecs.append(C @ r.posterior.mean)",
     "vote-on-expert-means"),
    ("experts.py", "self.misses >= self.stale_after:",
     "self.misses >= self.stale_after + 10**9:", "no-stale-reset"),
    # The closed-form axis block and the stacked scores.
    ("kalman.py", "u * d + r * g0 * g1,", "u * d,", "dropped-joseph-r-g0-g1"),
    ("kalman.py", "(p00, a01 + b.q01, p11 + b.q11)", "(p00, a01, p11 + b.q11)",
     "dropped-q01-predict-term"),
    ("kalman.py", "if not 0.0 < s < math.inf:", "if False:", "dropped-s-check"),
    ("metrics.py", "np.where(ratio < 1.0, ratio, 1.0)) + 0.0", "np.where(ratio < 1.0, ratio, 1.0))",
     "jaccard-without-plus-zero"),
    ("metrics.py", "np.where(ratio < 1.0, ratio, 1.0)) + 0.0", "np.minimum(ratio, 1.0)) + 0.0",
     "jaccard-np-minimum-clamp"),
    # Block states: the expert's lazily built covariance and the centre's positions.
    ("kalman.py", "np.array((0.0, *s.P))", "np.array((0.0, s.P[0], s.P[2], s.P[1]))",
     "block-cov-p01-p11-swapped"),
    ("fusion.py", "parts.append(r.posterior.m0)", "parts.append(r.posterior.m1)",
     "centre-fuses-rates"),
    # Scalar guards on Python floats.
    ("kalman.py", "ratio * ratio <= cond_limit and math.isfinite(sum(d))",
     "ratio * ratio <= cond_limit", "cholesky-without-nan-guard"),
    ("kalman.py", "if not math.isfinite(sum(y.tolist())) and not np.isfinite(y).all():",
     "if not math.isfinite(sum(y.tolist())):", "kf-update-without-array-fallback"),
    ("experts.py", "    try:\n        w = 1.0 / (1.0 + math.exp(xi - md))\n"
     "    except OverflowError:  # exp past ~709.78: a weight below _W_LO\n        w = 0.0\n",
     "    w = 1.0 / (1.0 + math.exp(xi - md))\n", "local-weight-without-overflow-guard"),
    # Settings refused, or stored as Python floats, where they are made, and the
    # per-detector gain lists.
    ("voting.py", "if not math.isfinite(self.omega0 + 2.0 * self.omega):",
     "if False:", "vote-config-without-overflow-bound"),
    ("voting.py", "object.__setattr__(self, name, float(v))", "pass",
     "vote-weight-in-setting-precision"),
    ("fusion.py", "if not math.isfinite(_noise_top(**terms)):", "if False:",
     "gains-without-overflow-bound"),
    ("fusion.py", "out.append(vals)", "out.append(vals[::-1])", "gain-list-reversed"),
    # One LAPACK factor-and-solve, the noise block's diagonal, the expert's own
    # copy of each reading and the terms an overflowing scale names.
    ("kalman.py", "_check_factor(S, L, info, COND_LIMIT)", "_check_factor(S, L, info, math.inf)",
     "kf-update-skips-factor-check"),
    ("fusion.py", "R.ravel()[::q + 1] = rvv", "R.ravel()[::q] = rvv[:q]",
     "noise-block-diagonal-stride"),
    ("experts.py", "y = np.array(y, dtype=float)", "y = np.asarray(y, dtype=float)",
     "expert-aliases-reading"),
    ("fusion.py", "bad = [k for k in big if math.isfinite(_noise_top(**{**terms, k: 1.0}))] or big",
     "bad = [\"gamma\"]", "overflow-blames-gamma-alone"),
    # A reading numpy cannot convert is refused, not passed on as numpy's error.
    ("experts.py", 'raise ContractViolationError(f"reading is not numeric: {exc}") from exc',
     "raise", "reading-refusal-dropped"),
    ("fusion.py", "except (TypeError, ValueError) as exc:", "except ZeroDivisionError as exc:",
     "centre-reading-refusal-dropped"),
    # One filter core: every model without an axis block, and every report
    # whose posterior is not a block state, is refused where it enters.
    ("experts.py", "self._block = _cv_block_of(model)", "self._block = model._cv_block",
     "expert-accepts-general-model"),
    ("fusion.py", "        _cv_block_of(model)\n", "", "centre-accepts-general-model"),
    ("experts.py", "if not isinstance(self.posterior, _BlockState):", "if False:",
     "report-accepts-plain-posterior"),
    # Settings refused once, at construction, and a first reading tested
    # before it anchors the expert.
    ("kalman.py", "if not math.isfinite(2.0 * float(init_var)):", "if False:",
     "init-var-overflow-check-dropped"),
    ("experts.py", "if not np.isfinite(y).all():", "if False:",
     "first-reading-finite-check-dropped"),
    # One rule checks every numeric setting. Without its integer test, a count
    # falls back to a bare comparison, which NaN passes; with a whole-number
    # test in its place, 2.0 passes and sizes an array; without its type test,
    # a str or None escapes as a TypeError.
    ("errors.py", _INTEGER_RULES, '''    "an integer": lambda v: True,
    "an integer >= 0": lambda v: not v < 0,
    "an integer >= 1": lambda v: not v < 1,''', "setting-count-accepts-nan"),
    ("errors.py", _INTEGER_RULES, '''    "an integer": lambda v: abs(v) < math.inf and v % 1 == 0,
    "an integer >= 0": lambda v: 0 <= v < math.inf and v % 1 == 0,
    "an integer >= 1": lambda v: 1 <= v < math.inf and v % 1 == 0,''',
     "setting-count-accepts-integral-float"),
    ("errors.py", "isinstance(value, numbers.Real) and _RULES[rule](value)",
     "_RULES[rule](value)", "setting-type-test-dropped"),
    # One spelling of each value: a shock window is two ordered ints, a report
    # holds the innovation variance s, and a bank shares detector 0's dynamics.
    ("sim.py", '> _setting("shock_end", end, "an integer"):',
     '> _setting("shock_end", end, "an integer") + math.inf:', "shock-ordering-dropped"),
    ("experts.py", "predicted_meas=mu, s=s, md=md", "predicted_meas=mu, s=s * s, md=md",
     "report-stores-s-squared"),
    ("fusion.py", "._replace(r=first.r) != first", ".k != first.k", "bank-compares-axes-only"),
    # One helper owns the three-detector minimum of the vote, the centre and the bank.
    ("voting.py", "if n < 3:", "if n < 2:", "two-detectors-accepted"),
    # A refused setting names the key its argument was read from: the refused
    # detector's own key, and the plant's dt as run.dt.
    ("records.py", "k[exc.detector] if isinstance(k, tuple)", "k[0] if isinstance(k, tuple)",
     "naming-ignores-detector"),
    ("records.py", 'with _naming({**_ARG_KEYS, "dt": "run.dt"}):', "with _naming(_ARG_KEYS):",
     "plant-dt-named-filter-dt"),
]


def run(mutant) -> tuple[bool, str]:
    """(killed, what killed it or why it could not run) for one mutant."""
    file, old, new, _ = mutant
    with tempfile.TemporaryDirectory() as tmp:
        pkg = Path(tmp) / "habdf"
        shutil.copytree(ROOT / "src" / "habdf", pkg, ignore=shutil.ignore_patterns("__pycache__"))
        target = pkg / file
        text = target.read_text()
        if text.count(old) != 1:
            return False, f"the old text occurs {text.count(old)} times in {file}"
        target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import habdf; print(habdf.__file__)"],
                               env=env, capture_output=True, text=True).stdout.strip()
        if Path(where).parent != pkg:
            return False, f"habdf imports from {where or 'nowhere'}, not the mutated copy"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-profile=no-database", "--continue-on-collection-errors"],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return False, "tier-1 passed"
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return True, failed[0] if failed else f"pytest exited {proc.returncode}"


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[3] in names]
    if unknown := set(names) - {m[3] for m in MUTANTS}:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    survivors = 0
    for mutant in chosen:
        killed, detail = run(mutant)
        survivors += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {mutant[3]}: {detail}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
