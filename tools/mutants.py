"""Mutation check: run the tier-1 suite against one-line mutants of the core.

Each mutant replaces one exact text fragment in one source file.  For every
mutant the tree is copied to a fresh ``tempfile`` directory, the mutation is
applied there, and the tier-1 command runs in the copy, stopping at the first
failing test.  A mutant that no test fails survives.  The script prints one
line per mutant and exits 1 if a survivor is not listed in ``EQUIVALENT``
(mutants that compute the same results as the original code), 2 if the
unmutated tree already fails.  Standard library only.

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # only the named mutants
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench_work-*")

# (name, file, original fragment, mutated fragment)
MUTANTS = [
    ("check_certificate_skips_qubit_links", "src/quditsim/universality.py",
     "for qubit in system.qubits():", "for qubit in ():"),
    ("check_certificate_skips_pair_check", "src/quditsim/universality.py",
     "if len(set(edge.term.support)) != 2 or set(edge.term.support) != set(edge.pair):",
     "if False:"),
    ("connect_all_drops_sign_gate", "src/quditsim/universality.py",
     "if scale <= 0 or resid > 1e-9 or", "if resid > 1e-9 or"),
    ("verify_order_is_max_ratio", "src/quditsim/program.py",
     "order = sum(ratios) / len(ratios) if ratios else 0.0",
     "order = max(ratios) if ratios else 0.0"),
    ("verify_best_is_last_error", "src/quditsim/program.py",
     "best = min(e for _, e in errors) if errors else 0.0",
     "best = errors[-1][1] if errors else 0.0"),
    ("measure_cosine_of_abs_overlap", "src/quditsim/program.py",
     "cosine = overlap / max(", "cosine = abs(overlap) / max("),
    ("eps_zero_1e-9", "src/quditsim/model.py",
     "EPS_ZERO = 1e-12", "EPS_ZERO = 1e-9"),
    ("classify_always_exits_0", "src/quditsim/cli.py",
     "return EXIT_OK if verdict.universal() else EXIT_NEGATIVE", "return EXIT_OK"),
    ("twirl_superop_wrong_transpose", "src/quditsim/operators.py",
     "m.transpose(0, 2, 1, 3)", "m.transpose(0, 3, 1, 2)"),
    ("trotter_group_commutator_order", "src/quditsim/program.py",
     "work += [(left, delta), (right, -delta), (left, -delta), (right, delta)]",
     "work += [(left, delta), (right, delta), (left, -delta), (right, -delta)]"),
    ("json_factors_type_unchecked", "src/quditsim/serialize.py",
     'if not isinstance(entry["factors"], dict):', "if False:"),
    ("isolation_scale_drops_peak", "src/quditsim/isolation.py",
     "scale = abs(survivor_coeff) * peak", "scale = abs(survivor_coeff)"),
]

# A symbolic edge scale is positive by construction (an isolation's scale or
# |h| of a one-term remainder), so a measured scale <= 0 is at least that far
# from it and the 1e-9 relative scale gate rejects it on its own.
EQUIVALENT = {"connect_all_drops_sign_gate"}


def run_tier1(tree: Path) -> tuple[bool, float]:
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, timeout=600)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def copy_tree(scratch: Path, mutant=None) -> Path:
    """A fresh copy of the tree, with ``mutant``'s text replacement applied."""
    tree = Path(tempfile.mkdtemp(dir=scratch))
    shutil.copytree(ROOT, tree, dirs_exist_ok=True, ignore=IGNORE)
    if mutant is None:
        return tree
    _, path, old, new = mutant
    target = tree / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{path}: expected one occurrence of {old!r}, found {text.count(old)}")
    target.write_text(text.replace(old, new), encoding="utf-8")
    return tree


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        passed, seconds = run_tier1(copy_tree(Path(scratch)))
        print(f"{'unmutated':40s} {'passes' if passed else 'FAILS':8s} {seconds:6.1f} s", flush=True)
        if not passed:
            return 2
        for mutant in chosen:
            passed, seconds = run_tier1(copy_tree(Path(scratch), mutant))
            verdict = "SURVIVES" if passed else "killed"
            print(f"{mutant[0]:40s} {verdict:8s} {seconds:6.1f} s", flush=True)
            if passed:
                survivors.append(mutant[0])
    unexplained = [name for name in survivors if name not in EQUIVALENT]
    print(f"survivors: {', '.join(survivors) or 'none'}")
    if unexplained:
        print(f"survivors not argued equivalent: {', '.join(unexplained)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
