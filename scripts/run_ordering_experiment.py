#!/usr/bin/env python3
"""Compare truncation, aggregation, and ensemble fusion across seeds.

Each seed runs ``configs/ordering.json``: a fresh synthetic corpus with
a uniformly placed 12-token signal, and two linear scorers that differ
only in their training substream, evaluated on the held-out test split.
Expected picture: scoring every window (aggregation) beats scoring only
the first one (baseline) by MIN_GAP, and fusing the scorers stays within
ENSEMBLE_SLACK of the better single model.

Any other argument is a dotted override of the config, as for
``chunkfuse compare`` (e.g. ``--data.num_docs 300``). Exit status is 0
when the ordering holds in at least PASS_PERCENT of seeds and 1 when it
does not; a failed run exits with its error's code.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chunkfuse.cli import load_config
from chunkfuse.errors import ChunkfuseError
from chunkfuse.experiment import Method, run_experiment

CONFIG = ROOT / "configs" / "ordering.json"
MIN_GAP = 0.10  # aggregation over baseline, for every scorer
ENSEMBLE_SLACK = 0.01  # fused shortfall allowed against the best aggregation
PASS_PERCENT = 80  # of seeds, rounded up


def run_seeds(num_seeds: int, output_dir: str, overrides: list[str]) -> int:
    wins = 0
    for seed in range(num_seeds):
        out = json.dumps(str(Path(output_dir) / f"seed{seed}"))
        config = load_config(CONFIG, [*overrides, "--seed", str(seed), f"--output_dir={out}"])
        report = run_experiment(config)
        failed = next((r for r in report.rows if r.error is not None), None)
        if failed is not None:
            print(f"error: {failed.error}", file=sys.stderr)
            return failed.error_code
        value = {(r.method, r.scorer_ids): r.macro_auroc for r in report.rows}
        ids = tuple(s.scorer_id for s in config.scorers)
        base = [value[(Method.BASELINE, (s,))] for s in ids]
        agg = [value[(Method.AGGREGATION, (s,))] for s in ids]
        fused = value[(Method.ENSEMBLE_AGGREGATION, ids)]
        ok = all(a >= b + MIN_GAP for a, b in zip(agg, base)) and (
            fused >= max(agg) - ENSEMBLE_SLACK
        )
        wins += ok
        print(
            f"seed {seed}: baseline {'/'.join(f'{v:.3f}' for v in base)}"
            f"  aggregation {'/'.join(f'{v:.3f}' for v in agg)}"
            f"  fused {fused:.3f}  {'ok' if ok else 'MISS'}"
        )
    needed = -(-num_seeds * PASS_PERCENT // 100)
    print(f"ordering held in {wins}/{num_seeds} seeds (need {needed})")
    return 0 if wins >= needed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    parser.add_argument("--num-seeds", type=int, default=5)
    parser.add_argument("--output-dir", default="runs/ordering")
    args, overrides = parser.parse_known_args(argv)
    try:
        return run_seeds(args.num_seeds, args.output_dir, overrides)
    except ChunkfuseError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
