#!/usr/bin/env python3
"""Measure what window overlap buys when signals straddle boundaries.

Each seed runs ``configs/overlap_pattern.json``, whose 60-token signal
straddles a multiple of 510 with probability 0.5, twice: at the config's
overlap and at overlap 0, with the same pattern detector. Without
overlap a straddling pattern is split across windows and invisible to a
contiguous matcher, so the overlapping run should win consistently.

Any other argument is a dotted override of the config, as for
``chunkfuse compare`` (e.g. ``--data.num_docs 300``). Exit status is 0
when the overlapping run scores at least as high in PASS_PERCENT of
seeds and 1 when it does not; a failed run exits with its error's code.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chunkfuse.cli import load_config
from chunkfuse.errors import ChunkfuseError
from chunkfuse.experiment import run_experiment

CONFIG = ROOT / "configs" / "overlap_pattern.json"
PASS_PERCENT = 80  # of seeds, rounded up


def run_seeds(num_seeds: int, output_dir: str, overrides: list[str]) -> int:
    overlap = load_config(CONFIG, overrides).chunking.overlap
    wins = 0
    for seed in range(num_seeds):
        scores = []
        for run_overlap in (overlap, 0):
            out = json.dumps(str(Path(output_dir) / f"seed{seed}_overlap{run_overlap}"))
            config = load_config(CONFIG, [
                *overrides, "--chunking.overlap", str(run_overlap),
                "--seed", str(seed), f"--output_dir={out}",
            ])
            (row,) = run_experiment(config).rows
            if row.error is not None:
                print(f"error: {row.error}", file=sys.stderr)
                return row.error_code
            scores.append(row.macro_auroc)
        with_overlap, without = scores
        ok = with_overlap >= without
        wins += ok
        print(
            f"seed {seed}: overlap-{overlap} {with_overlap:.3f}"
            f"  overlap-0 {without:.3f}  {'ok' if ok else 'MISS'}"
        )
    needed = -(-num_seeds * PASS_PERCENT // 100)
    print(f"overlap won in {wins}/{num_seeds} seeds (need {needed})")
    return 0 if wins >= needed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    parser.add_argument("--num-seeds", type=int, default=5)
    parser.add_argument("--output-dir", default="runs/overlap")
    args, overrides = parser.parse_known_args(argv)
    try:
        return run_seeds(args.num_seeds, args.output_dir, overrides)
    except ChunkfuseError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
