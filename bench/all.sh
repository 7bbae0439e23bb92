#!/bin/sh
# Run every workload, untraced and then traced, each in its own process:
#   sh bench/all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-25}
for w in graph-report word-algebra tree-certify; do
    for t in 0 1; do
        echo "== $w --trace $t"
        python3 "$(dirname "$0")/run.py" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
    done
done
