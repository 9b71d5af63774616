#!/usr/bin/env python3
"""Measure what window overlap buys when signals straddle boundaries.

Each seed builds one corpus whose 60-token signal straddles a multiple
of 510 with probability 0.5, then evaluates the same pattern detector
under overlap-50 and overlap-0 chunking. Without overlap a straddling
pattern is split across windows and invisible to a contiguous matcher,
so the overlap-50 run should win consistently.

Exit status is 0 when overlap-50 >= overlap-0 in at least 80% of seeds.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chunkfuse.chunker import ChunkingConfig
from chunkfuse.corpus import GeneratorConfig, TaskKind
from chunkfuse.experiment import (
    ExperimentConfig,
    Method,
    run_experiment,
)
from chunkfuse.scoring import ScorerDescriptor, ScorerKind


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--num-seeds", type=int, default=5)
    parser.add_argument("--num-docs", type=int, default=1000)
    parser.add_argument("--signal-length", type=int, default=60)
    parser.add_argument("--straddle-prob", type=float, default=0.5)
    parser.add_argument("--overlap", type=int, default=50)
    parser.add_argument("--output-dir", default="runs/overlap")
    return parser.parse_args()


def run_one(args: argparse.Namespace, seed: int, overlap: int) -> float:
    config = ExperimentConfig(
        task=TaskKind.MORTALITY,
        data=GeneratorConfig(
            num_docs=args.num_docs,
            min_tokens=1500,
            max_tokens=3000,
            signal_length=args.signal_length,
            placement="boundary",
            boundary_period=510,
            straddle_prob=args.straddle_prob,
        ),
        scorers=(
            ScorerDescriptor(
                "pattern", ScorerKind.PATTERN, 2, metadata={"pattern": "auto"}
            ),
        ),
        methods=(Method.AGGREGATION,),
        chunking=ChunkingConfig(capacity=510, overlap=overlap),
        output_dir=str(Path(args.output_dir) / f"seed{seed}_overlap{overlap}"),
        seed=seed,
    )
    (row,) = run_experiment(config).rows
    if row.macro_auroc is None:
        raise SystemExit(f"seed {seed} overlap {overlap} failed: {row.error}")
    return row.macro_auroc


def main() -> int:
    args = parse_args()
    wins = 0
    for seed in range(args.num_seeds):
        with_overlap = run_one(args, seed, args.overlap)
        without = run_one(args, seed, 0)
        ok = with_overlap >= without
        wins += ok
        print(
            f"seed {seed}: overlap-{args.overlap} {with_overlap:.3f}"
            f"  overlap-0 {without:.3f}  {'ok' if ok else 'MISS'}"
        )
    needed = -(-args.num_seeds * 4 // 5)
    print(f"overlap won in {wins}/{args.num_seeds} seeds (need {needed})")
    return 0 if wins >= needed else 1


if __name__ == "__main__":
    sys.exit(main())
