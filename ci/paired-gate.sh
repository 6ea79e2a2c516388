#!/usr/bin/env bash
# Paired same-host perf gate.
#
#   ci/paired-gate.sh KIND BASE_REV      KIND = sim | exec
#
# Builds BASE_REV in a git worktree with its own target directory and
# the checked-out tree (HEAD) in the usual one, then runs
# `experiments --bench KIND` ROUNDS times per side, alternating which
# side runs first, into target/paired-gate/KIND/{base,head}/<round>/.
# HEAD's `bricks prof gate` compares the two sides' medians and exits 1
# on a regression (see `bricks help`). Both sides run on this host, so
# its speed cancels out of the comparison. A head round that fails the
# bench's own gate (it still writes its BENCH file) fails the script
# after the comparison; a base round that does is only reported.
set -euo pipefail

# Rounds per side. A row whose spread exceeds the tolerance regresses
# only when every head round is worse than every base round, which pure
# noise does with probability 1/C(2R,R): 1/20 at R=3 (an unchanged tree
# failed 1 of 6 runs on a shared 2-vCPU host), 1/252 at R=5.
ROUNDS=5

if [ $# -ne 2 ] || { [ "$1" != sim ] && [ "$1" != exec ]; }; then
    echo "usage: $0 sim|exec BASE_REV" >&2
    exit 2
fi
kind=$1
repo=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$repo" rev-parse --verify "$2^{commit}")
head_target=${CARGO_TARGET_DIR:-$repo/target}
work=$repo/target/paired-gate
out=$work/$kind
worktree=$work/base-src
rm -rf "$out"
mkdir -p "$out"

# The worktree is kept between runs (only the files that differ are
# checked out again), so a second kind against the same base rebuilds
# nothing.
git -C "$repo" worktree prune
if [ -e "$worktree/.git" ]; then
    git -C "$worktree" checkout --quiet --force --detach "$base_sha"
else
    rm -rf "$worktree"
    git -C "$repo" worktree add --quiet --force --detach "$worktree" "$base_sha"
fi

echo "paired-gate: building base $base_sha"
(cd "$worktree" && CARGO_TARGET_DIR=$work/base-target \
    cargo build --release --quiet -p experiments)
echo "paired-gate: building head"
(cd "$repo" && cargo build --release --quiet -p experiments -p bricks-repro)

run() {
    local side=$1 round=$2 bin
    if [ "$side" = base ]; then
        bin=$work/base-target/release/experiments
    else
        bin=$head_target/release/experiments
    fi
    mkdir -p "$out/$side/$round"
    echo "paired-gate: round $round $side"
    if ! "$bin" --bench "$kind" --out "$out/$side/$round" > "$out/$side/$round/stdout.txt"; then
        echo "paired-gate: the $side run of round $round failed its own gate" >&2
        if [ "$side" = head ]; then
            head_failed=1
        fi
    fi
}

head_failed=

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
"$head_target/release/bricks" prof gate "$out/base" "$out/head" || status=1
if [ -n "$head_failed" ]; then
    echo "paired-gate: a head round failed the bench's own gate" >&2
    status=1
fi
exit $status
