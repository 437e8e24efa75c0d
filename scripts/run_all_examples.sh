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
# the fit reads the escape times of every worker: the same results too
python - out/simulate/manifest.json out/simulate-threads2/manifest.json <<'EOF_PY'
import json, sys
one, two = (json.load(open(path))["results"] for path in sys.argv[1:])
sys.exit(0 if one == two else f"simulate results differ between 1 and 2 workers: {one} != {two}")
EOF_PY
echo "all commands done; see scripts/out/"
