#!/usr/bin/env python3
"""Compare truncation, aggregation, and ensemble fusion across seeds.

For each seed this builds a fresh synthetic corpus with a uniformly
placed 12-token signal, trains two linear scorers that differ only in
their training substream, and evaluates on the held-out test split.
Expected picture: scoring every window (aggregation) beats scoring only
the first one (baseline) by a wide margin, and fusing the two scorers
stays within a point of the better single model.

Exit status is 0 when the ordering holds in at least 80% of seeds.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chunkfuse.corpus import GeneratorConfig, TaskKind
from chunkfuse.experiment import (
    ExperimentConfig,
    Method,
    run_experiment,
)
from chunkfuse.scoring import ScorerDescriptor, ScorerKind, TrainerConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--num-seeds", type=int, default=5)
    parser.add_argument("--num-docs", type=int, default=2000)
    parser.add_argument("--min-tokens", type=int, default=1500)
    parser.add_argument("--max-tokens", type=int, default=3000)
    parser.add_argument("--max-epochs", type=int, default=25)
    parser.add_argument("--vocab-size", type=int, default=600)
    parser.add_argument("--min-gap", type=float, default=0.10,
                        help="required aggregation-over-baseline margin")
    parser.add_argument("--ensemble-slack", type=float, default=0.01,
                        help="allowed fused shortfall vs the best single model")
    parser.add_argument("--output-dir", default="runs/ordering")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    scorer_ids = ("lin-a", "lin-b")
    wins = 0
    for seed in range(args.num_seeds):
        config = ExperimentConfig(
            task=TaskKind.MORTALITY,
            data=GeneratorConfig(
                num_docs=args.num_docs,
                min_tokens=args.min_tokens,
                max_tokens=args.max_tokens,
            ),
            scorers=tuple(
                ScorerDescriptor(sid, ScorerKind.LINEAR, 2) for sid in scorer_ids
            ),
            methods=(
                Method.BASELINE, Method.AGGREGATION, Method.ENSEMBLE_AGGREGATION,
            ),
            output_dir=str(Path(args.output_dir) / f"seed{seed}"),
            trainer=TrainerConfig(max_epochs=args.max_epochs),
            vocab_size=args.vocab_size,
            seed=seed,
        )
        report = run_experiment(config)
        value = {(r.method, r.scorer_ids): r.macro_auroc for r in report.rows}
        base = {s: value[(Method.BASELINE, (s,))] for s in scorer_ids}
        agg = {s: value[(Method.AGGREGATION, (s,))] for s in scorer_ids}
        fused = value[(Method.ENSEMBLE_AGGREGATION, scorer_ids)]
        ok = all(
            agg[s] >= base[s] + args.min_gap for s in scorer_ids
        ) and fused >= max(agg.values()) - args.ensemble_slack
        wins += ok
        print(
            f"seed {seed}: baseline {base['lin-a']:.3f}/{base['lin-b']:.3f}"
            f"  aggregation {agg['lin-a']:.3f}/{agg['lin-b']:.3f}"
            f"  fused {fused:.3f}  {'ok' if ok else 'MISS'}"
        )
    needed = -(-args.num_seeds * 4 // 5)  # ceil(0.8 * n)
    print(f"ordering held in {wins}/{args.num_seeds} seeds (need {needed})")
    return 0 if wins >= needed else 1


if __name__ == "__main__":
    sys.exit(main())
