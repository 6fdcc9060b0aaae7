#!/usr/bin/env bash
# TSan gate for the in-epoch parallelism: configures a separate build tree
# with -DPROXDET_SANITIZE=thread, builds it, and runs the `sanitize`-,
# `net`-, `obs`- and `shard`-labelled suites (thread-pool + determinism
# tests, the wire/transport suite whose transported runs drive the network
# link while the engine scans fan out, the observability suite whose
# relaxed-atomic counters and mutex-guarded sketches are written from
# those same scans, and the sharded serving plane whose frontend is only
# driven from serial commit sections) under a multi-thread global pool.
# The parallel-scan/serial-commit pattern is only safe if the scans are
# genuinely read-only and the link is only touched from commit sections —
# TSan is the check that they are.
#
# A second leg configures a tree with -DPROXDET_OBS=OFF and runs the same
# labelled suites there: every counter/histogram/trace call site must
# compile and behave identically against the noop observability surface
# (the shard frontend's per-shard counters and batch-fill histogram
# included).
#
# A third leg runs the `simd` suite under
# -DPROXDET_SANITIZE=undefined: the branchless lane arithmetic in the
# vector kernels (masked selects, safe-divisor guards) must not hide UB —
# every lane's intermediate math has to be well-defined even where a mask
# discards it.
#
# A fourth leg runs the same labelled suites in that tree with
# PROXDET_SIMD_FORCE=scalar: dispatch is pinned to the scalar reference
# kernels, so the detector properties prove the engines are
# backend-agnostic (the simd suite still compares every compiled backend
# with scalar through its test hook).
#
# The `socket`-labelled suite (the real-socket UDP backend) runs in every
# labelled leg, most importantly the TSan tree: the epoll loop threads only
# move bytes while the driver thread owns all protocol state, and TSan is
# the proof that the handoff queues are the only shared surface. Socket
# tests skip themselves where socket(2)/bind are unavailable, so the legs
# stay green in sandboxes that forbid networking.
#
# The `latency`-labelled suite (causal tracing + detect->deliver latency
# accounting) also runs in every labelled leg: the tracker is fed from the
# same serial commit sections as the link, and its deterministic digest
# invariance across thread counts is exactly the property TSan and the
# OBS-OFF build must not perturb.
#
#   scripts/check.sh [extra cmake args...]
#
# BUILD_DIR / OBS_OFF_BUILD_DIR / UBSAN_BUILD_DIR override the build trees
# (defaults: build-tsan, build-obs-off and build-ubsan, kept separate from
# the plain `build` tree so the configurations never fight).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-tsan}"
OBS_OFF_BUILD_DIR="${OBS_OFF_BUILD_DIR:-build-obs-off}"
UBSAN_BUILD_DIR="${UBSAN_BUILD_DIR:-build-ubsan}"
JOBS="$(nproc)"
LABELS='sanitize|net|obs|shard|simd|socket|latency|scale'

cmake -B "$BUILD_DIR" -S . -DPROXDET_SANITIZE=thread "$@"
cmake --build "$BUILD_DIR" -j "$JOBS"
PROXDET_THREADS="${PROXDET_THREADS:-4}" \
  ctest --test-dir "$BUILD_DIR" -L "$LABELS" --output-on-failure -j "$JOBS"

cmake -B "$OBS_OFF_BUILD_DIR" -S . -DPROXDET_OBS=OFF "$@"
cmake --build "$OBS_OFF_BUILD_DIR" -j "$JOBS"
ctest --test-dir "$OBS_OFF_BUILD_DIR" -L "$LABELS" --output-on-failure -j "$JOBS"

cmake -B "$UBSAN_BUILD_DIR" -S . -DPROXDET_SANITIZE=undefined "$@"
cmake --build "$UBSAN_BUILD_DIR" -j "$JOBS"
ctest --test-dir "$UBSAN_BUILD_DIR" -L simd --output-on-failure -j "$JOBS"
PROXDET_SIMD_FORCE=scalar \
  ctest --test-dir "$UBSAN_BUILD_DIR" -L "$LABELS" --output-on-failure -j "$JOBS"
