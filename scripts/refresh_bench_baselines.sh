#!/usr/bin/env bash
# Regenerates the committed bench baselines in results/ from one real
# bench run on this machine.
#
#   scripts/refresh_bench_baselines.sh [--quick]
#
# Runs the kernels and sim bench suites once with CRITERION_JSON
# enabled, then splits the reports into the baseline files CI diffs
# against:
#
#   results/BENCH_kernels_baseline.json    — kernels / mlp / critic groups
#   results/BENCH_parallel_baseline.json   — gemm_tiled / pool groups
#   results/BENCH_sim_baseline.json        — sim group (sparse vs dense MNA,
#                                            MOSFET eval)
#   results/BENCH_warmstart_baseline.json  — warmstart group (seeded vs
#                                            cold DC solves)
#
# Baselines are machine-dependent; refresh them on the machine class CI
# runs on (or rely on the wide --time-tol the CI jobs pass).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=""
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

tmp=$(mktemp /tmp/bench_kernels.XXXXXX.json)
tmp_sim=$(mktemp /tmp/bench_sim.XXXXXX.json)
tmp_warm=$(mktemp /tmp/bench_warmstart.XXXXXX.json)
trap 'rm -f "$tmp" "$tmp_sim" "$tmp_warm"' EXIT

MAOPT_BENCH_QUICK=${quick} CRITERION_JSON="$tmp" cargo bench -p maopt-bench --bench kernels
MAOPT_BENCH_QUICK=${quick} CRITERION_JSON="$tmp_sim" cargo bench -p maopt-bench --bench sim
MAOPT_BENCH_QUICK=${quick} CRITERION_JSON="$tmp_warm" cargo bench -p maopt-bench --bench warmstart

# The criterion stub writes one benchmark record per line, so a report
# can be split into per-group baselines with grep.
split_groups() {
    local src=$1 out=$2
    shift 2
    {
        echo '{'
        echo '  "benchmarks": ['
        local lines
        lines=$(grep -E "\"name\": \"($(
            IFS='|'
            echo "$*"
        ))/" "$src")
        # Strip the trailing comma of the last record to stay valid JSON.
        printf '%s\n' "$lines" | sed '$ s/,$//'
        echo '  ]'
        echo '}'
    } >"$out"
}

split_groups "$tmp" results/BENCH_kernels_baseline.json kernels mlp critic
split_groups "$tmp" results/BENCH_parallel_baseline.json gemm_tiled pool
split_groups "$tmp_sim" results/BENCH_sim_baseline.json sim
split_groups "$tmp_warm" results/BENCH_warmstart_baseline.json warmstart

echo "wrote results/BENCH_kernels_baseline.json"
echo "wrote results/BENCH_parallel_baseline.json"
echo "wrote results/BENCH_sim_baseline.json"
echo "wrote results/BENCH_warmstart_baseline.json"
