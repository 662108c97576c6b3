#!/usr/bin/env bash
# Run the repo's invariant checks (lint rules RL101-RL109) — the same
# invocation the CI `lintkit` job gates PRs on.
#
#   tools/lint.sh                 # lint src tests benchmarks
#   tools/lint.sh src/repro/sim   # lint a subtree
#   tools/lint.sh --explain RL104 # print one rule's rationale
#
# Exit codes: 0 clean, 1 findings, 2 usage error.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
  set -- src tests benchmarks
fi
PYTHONPATH=src exec python -m repro.lintkit "$@"
