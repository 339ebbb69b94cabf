#!/usr/bin/env python3
"""Retrain the ablation grid on the curved synthetic fixture.

Eight cells: neighborhood capacity {32, 64} x attention {on, off} x static
grid {on, off}, each distinct cell trained from scratch with the same seed,
scored against the capacity-32 cell with everything on. A cell without the
static grid trains mcr_n. Synthetic crowds are far below either capacity, so
the two capacities share each training here; on real data it is the axis
that matters.
"""

import argparse
import sys

from g2k import evaluation as ev
from g2k import training as tr
from g2k.config import write_text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=None,
                    help="override the per-cell epoch count")
    ap.add_argument("--out", default=None,
                    help="also write the relative-change table as CSV")
    args = ap.parse_args()

    batches, tcfg = tr.curved_comparison_setup()
    if args.epochs is not None:
        tcfg.epochs = args.epochs
    base = tr.curved_comparison_config("mcr_mp")
    base.neighborhood_size = 32

    result = ev.ablate(batches, base, tcfg)
    print(result.table())

    if args.out:
        write_text(args.out, ev.ablation_csv(result))
        print(f"\nwrote {args.out}")

    failed = [o for o in result.outcomes if o.report is None]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
