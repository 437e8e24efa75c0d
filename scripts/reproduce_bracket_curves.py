#!/usr/bin/env python3
"""Tabulate the loop-correction family over a range of decoherence times.

Writes one CSV with the decoherence-free reference column plus one column
per finite decoherence time, and prints where each curve peaks.  This is the
same table the `chaodecay fig3` command produces; the script exists so the
curve family and its peak drift can be regenerated (and tweaked) in a couple
of lines of Python instead of a config file.
"""

import argparse
import csv

import numpy as np

from chaodecay import figure3_curves

TAU_D_OVER_TH = (0.05, 0.1, 0.3, 1.0, np.inf)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dwell-over-th", type=float, default=0.3)
    ap.add_argument("--t-max", type=float, default=3.0, help="time axis end, units of T_H")
    ap.add_argument("--n-points", type=int, default=601)
    ap.add_argument("--out", default="bracket_curves.csv")
    args = ap.parse_args()

    table = figure3_curves(
        TAU_D_OVER_TH,
        tauD_over_TH=args.dwell_over_th,
        t_max_over_TH=args.t_max,
        n_points=args.n_points,
    )

    labels = list(table.columns)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_over_TH", "reference_inf", *labels])
        for k, t in enumerate(table.times):
            writer.writerow([t, table.reference[k]]
                            + [table.columns[lab][k] for lab in labels])

    print(f"wrote {args.out} ({args.n_points} rows, {len(labels) + 1} curves)")
    print(f"{'curve':>16} {'peak t/T_H':>11} {'peak value':>11}")
    k = int(np.argmax(table.reference))
    print(f"{'reference_inf':>16} {table.times[k]:11.4f} {table.reference[k]:11.5g}")
    for lab in labels:
        col = table.columns[lab]
        k = int(np.argmax(col))
        print(f"{lab:>16} {table.times[k]:11.4f} {col[k]:11.5g}")


if __name__ == "__main__":
    main()
