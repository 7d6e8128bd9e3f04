"""The mutant battery: the checks prove they can fail.

Each :class:`Mutant` row breaks one mechanism of the paper (or one
contract the reproduction rests on) by a plain text replacement in one
file, and names the narrow test selection that must catch it -- without
the bitwise goldens, which catch any change and so cannot tell a
correct re-cut from a typo.  The runner copies ``src/`` and ``tests/``
to a temporary directory, applies one row there, runs its selection and
fails unless the selection fails.  It is not part of the Tier-1 suite
(a row costs a pytest start and its tests); run it from the repository
root::

    python -m tests.support.mutants            # every row
    python -m tests.support.mutants eq10_padding_halved checkpoint_crc_unchecked

A row whose text does not occur exactly once, or whose selection does
not run cleanly on the unmutated copy, is an error of the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Mutant:
    name: str
    #: file, relative to the repository root
    path: str
    #: exact source text; must occur exactly once in ``path``
    source: str
    replacement: str
    #: the paper reference (or repository contract) the mutant breaks
    breaks: str
    #: pytest node ids, at least one of which must fail
    selection: Tuple[str, ...]
    #: only meaningful where NumPy loaded an OpenBLAS
    needs_openblas: bool = False


MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        "r2sp_residual_base",
        "src/repro/fl/aggregation.py",
        "            if self.needs_residual:\n"
        "                recovered = first.global_state[key]",
        "            if False:\n"
        "                recovered = first.global_state[key]",
        "R2SP (PAPER.md section 1): pruned-away weights recover from the "
        "global model, not from zero",
        ("tests/test_fl/test_aggregation.py::"
         "test_weighted_r2sp_identity_on_untrained_submodels",),
    ),
    Mutant(
        "iss_without_w_hh_columns",
        "src/repro/pruning/importance.py",
        "    return row_scores + col_scores\n",
        "    return row_scores\n",
        "ISS l1 scores (Wen et al. 2017): a component owns column j of "
        "w_hh too",
        ("tests/test_pruning/test_importance.py::"
         "test_lstm_iss_scores_cover_rows_and_column",),
    ),
    Mutant(
        "top_indices_keeps_lowest",
        "src/repro/pruning/importance.py",
        'order = np.argsort(-scores, kind="stable")[:keep]',
        'order = np.argsort(scores, kind="stable")[:keep]',
        "l1 structured pruning (PAPER.md section 1): keep the largest "
        "l1 norms",
        ("tests/test_pruning/test_importance.py::"
         "test_top_indices_selects_highest_and_sorts",),
    ),
    Mutant(
        "eq10_padding_halved",
        "src/repro/bandit/eucb.py",
        "2.0 * math.log(max(total, math.e)) / count",
        "0.5 * math.log(max(total, math.e)) / count",
        "E-UCB Eq. 10: padding sqrt(2 log n_k / N_k(P))",
        ("tests/test_bandit/test_eucb.py::"
         "test_ucb_is_eqs_9_to_11_in_closed_form",),
    ),
    Mutant(
        "eq9_without_discount",
        "src/repro/bandit/eucb.py",
        "count = d * stats.disc_count if stats is not None else 0.0",
        "count = stats.disc_count if stats is not None else 0.0",
        "E-UCB Eq. 9: discounted play counts N_k(P)",
        ("tests/test_bandit/test_eucb.py::"
         "test_incremental_stats_match_full_replay",
         "tests/test_bandit/test_eucb.py::"
         "test_ucb_is_eqs_9_to_11_in_closed_form"),
    ),
    Mutant(
        "arm_at_region_low_edge",
        "src/repro/bandit/eucb.py",
        "arm = float(self.rng.uniform(best_region.low, best_region.high))",
        "arm = float(best_region.low)",
        "E-UCB (Algorithm 1, line 6): the ratio is drawn uniformly in "
        "the chosen region",
        ("tests/test_bandit/test_eucb.py::"
         "test_arm_is_drawn_uniformly_in_the_chosen_region",),
    ),
    Mutant(
        "codec_crc_unchecked",
        "src/repro/runtime/codec.py",
        "    if stored_crc != actual_crc:\n",
        "    if False:\n",
        "wire codec: a flipped byte in a frame is a typed error",
        ("tests/test_runtime/test_codec.py::"
         "test_flipped_byte_rejected_by_crc",
         "tests/test_runtime/test_codec_sparse.py::"
         "test_sparse_flipped_byte_rejected_by_crc"),
    ),
    Mutant(
        "checkpoint_crc_unchecked",
        "src/repro/fl/checkpoint.py",
        "    if zlib.crc32(blob) != crc:\n",
        "    if False:\n",
        "checkpoint format v3: a flipped byte is a typed error before "
        "the pickle runs",
        ("tests/test_fl/test_checkpoint.py::"
         "test_flipped_byte_in_a_run_checkpoint_is_a_typed_error",),
    ),
    Mutant(
        "blas_threads_unpinned",
        "src/repro/numerics.py",
        '_OPENBLAS("set_num_threads")(ctypes.c_int(1))',
        '_OPENBLAS("get_num_threads")()',
        "DESIGN.md section 6: bitwise is at one OpenBLAS thread, pinned "
        "by the package (fails only on a host with 2 or more CPUs)",
        ("tests/test_numerics.py::test_every_entry_pins_one_thread",
         "tests/test_numerics.py::"
         "test_library_path_replays_the_golden_trace"),
        needs_openblas=True,
    ),
)


def mutate(root: Path, mutant: Mutant) -> None:
    """Apply ``mutant`` to the tree at ``root`` (ValueError unless its
    text occurs exactly once)."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.source)
    if found != 1:
        raise ValueError(f"{mutant.name}: its text occurs {found} times in "
                         f"{mutant.path}, not once")
    path.write_text(text.replace(mutant.source, mutant.replacement),
                    encoding="utf-8")


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(root: Path, selection: Sequence[str]) -> Tuple[int, str]:
    """Exit status and output of pytest over ``selection`` in the tree
    at ``root``, importing ``repro`` from that tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p",
         "no:cacheprovider", *selection],
        cwd=root, env=env, capture_output=True, text=True, timeout=900)
    return done.returncode, done.stdout + done.stderr


def run_row(mutant: Mutant) -> Tuple[str, str]:
    """``(verdict, pytest output)``: ``caught`` when the selection fails
    (pytest exit 1) on the mutated copy; ``SURVIVED`` when it passes;
    ``ERROR`` on any other exit (a missing node id, a collection error)."""
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        mutate(root, mutant)
        status, output = _pytest(root, mutant.selection)
    verdict = {0: "SURVIVED", 1: "caught"}.get(status, "ERROR")
    return verdict, output


def _baseline(rows: Sequence[Mutant]) -> None:
    """Every selection passes on an unmutated copy (else SystemExit)."""
    selection = sorted({node for row in rows for node in row.selection})
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        status, output = _pytest(root, selection)
    if status != 0:
        print(output)
        raise SystemExit("baseline: the selections fail on the unmutated "
                         "tree; fix that first")


def main(argv: Sequence[str] = ()) -> int:
    rows = [row for row in MUTANTS if not argv or row.name in argv]
    unknown = set(argv) - {row.name for row in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutant(s): {sorted(unknown)}")
    sys.path.insert(0, str(ROOT / "src"))
    from repro import numerics

    if numerics.openblas_runtime() is None:
        skipped = [row.name for row in rows if row.needs_openblas]
        print(f"skipped (NumPy loaded no OpenBLAS): {skipped}")
        rows = [row for row in rows if not row.needs_openblas]
    _baseline(rows)
    failed: List[str] = []
    for row in rows:
        started = time.perf_counter()
        verdict, output = run_row(row)
        print(f"{verdict:8} {row.name:28} "
              f"{time.perf_counter() - started:6.1f} s  {row.breaks}",
              flush=True)
        if verdict != "caught":
            failed.append(row.name)
            print(output[-4000:])
    print(f"{len(rows) - len(failed)} of {len(rows)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
