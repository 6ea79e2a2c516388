#!/usr/bin/env bash
# Paired same-host regression gate on the repository benchmark.
#
#   ci/paired-gate.sh BASE_REV
#
# Builds perfbench (the BENCHMARK.json command) for BASE_REV in a git
# worktree and for the checked-out tree (HEAD), each with its own target
# directory, then runs `perfbench run` ROUNDS times per side, alternating
# which side runs first, into target/paired-gate/{base,head}/<round>/.
# HEAD's `perfbench compare` judges every workload's end-to-end metrics
# at the BENCHMARK.json bounds and exits 1 on a `regressed` row. Both
# sides run on this host, so its speed cancels out of the comparison. A
# head run that fails its output check (it still writes its bench.json)
# fails the script after the comparison; a base run that does is only
# reported.
set -euo pipefail

# Runs per side. With one run a side, every row whose metric has one
# sample per run (pipeline cold_s and peak_rss_mb, every warm_p75_s) has
# no spread and is `unresolved`; three runs give each side quartiles.
ROUNDS=3

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REV" >&2
    exit 2
fi
repo=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$repo" rev-parse --verify "$1^{commit}")
work=$repo/target/paired-gate
worktree=$work/base-src
rm -rf "$work/base" "$work/head"

# The worktree is kept between runs (only the files that differ are
# checked out again), and so are both target directories.
git -C "$repo" worktree prune
if [ -e "$worktree/.git" ]; then
    git -C "$worktree" checkout --quiet --force --detach "$base_sha"
else
    rm -rf "$worktree"
    git -C "$repo" worktree add --quiet --force --detach "$worktree" "$base_sha"
fi

build() {
    (cd "$2" && CARGO_TARGET_DIR=$work/$1-target \
        cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
}
echo "paired-gate: building base $base_sha"
build base "$worktree"
echo "paired-gate: building head"
build head "$repo"

# Each side runs from its own tree, so the commit its manifests record
# (read from the nearest .git) is that side's; --out is absolute.
declare -A tree=([base]=$worktree [head]=$repo)
head_failed=
run() {
    local side=$1 round=$2 out=$work/$1/$2
    mkdir -p "$out"
    echo "paired-gate: round $round $side"
    if ! (cd "${tree[$side]}" && "$work/$side-target/release/perfbench" run --trace 0 \
        --seed "$round" --out "$out" > "$out/stdout.txt"); then
        echo "paired-gate: the $side run of round $round failed" >&2
        if [ "$side" = head ]; then
            head_failed=1
        fi
    fi
}

for round in $(seq 1 "$ROUNDS"); do
    if [ $((round % 2)) -eq 1 ]; then
        run base "$round"
        run head "$round"
    else
        run head "$round"
        run base "$round"
    fi
done

status=0
"$work/head-target/release/perfbench" compare "$work/base" "$work/head" \
    --benchmark "$repo/BENCHMARK.json" || status=1
if [ -n "$head_failed" ]; then
    echo "paired-gate: a head run failed its output check" >&2
    status=1
fi
exit $status
