#!/usr/bin/env bash
# Run every CLI command once on the bundled example configs.
# Outputs land in scripts/out/<command>/, and simulate's run on two worker
# processes in scripts/out/simulate-threads2/.
set -euo pipefail
cd "$(dirname "$0")"

declare -A CONFIGS=(
  [simulate]=configs/simulate.json
  [lyapunov]=configs/lyapunov.json
  [variance]=configs/variance.json
  [pair-decoherence]=configs/pair_decoherence.json
  [correction]=configs/correction.json
  [fig3]=configs/fig3.json
  [quadrature]=configs/quadrature.json
  [peak]=configs/peak.json
)

for cmd in simulate lyapunov variance pair-decoherence correction fig3 quadrature peak; do
  echo "== $cmd =="
  chaodecay "$cmd" --config "${CONFIGS[$cmd]}" --out "out/$cmd"
  head -3 "out/$cmd/$cmd.csv" | cut -c1-120
done
# the worker-process pool of simulate: two workers, the same bytes as one
echo "== simulate --threads 2 =="
chaodecay simulate --config "${CONFIGS[simulate]}" --out out/simulate-threads2 --threads 2
cmp out/simulate/simulate.csv out/simulate-threads2/simulate.csv
echo "all commands done; see scripts/out/"
