#!/usr/bin/env bash
# One-command verification: the tier-1 suite, then an explicit pass over
# the fault-marked failover/recovery tests, then the query-service tests
# with a 5-second load-generator smoke. The fault and service tests also
# run as part of the default suite; the extra passes keep them green even
# when developers filter the first run (e.g. `-m "not slow"` via
# PYTEST_ADDOPTS). The paper-shape gates (Tables VIII-X, Fig. 2) and the
# repo benchmark's self-tests run before the final shm leak guard.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
# Whatever happens above, never leave orphaned repro-shm-* segments in
# /dev/shm (a killed shard worker or interrupted smoke can strand them).
trap 'python -m repro.service.shards --cleanup' EXIT
python -m pytest -x -q "$@"
python -m pytest -x -q -m fault "$@"
python -m pytest -x -q tests/test_service.py tests/test_packed_service.py \
    tests/test_shard_rings.py tests/test_router.py tests/test_design.py \
    tests/test_variants.py tests/test_frontend.py "$@"
python -m repro.service.client --smoke --clients 4 --duration 5 --packed
python -m repro.service.client --smoke --clients 4 --duration 5 --no-packed
# Sharded smokes: with the adaptive scheduler (small batches served
# in-process), then without it, so every batch is scattered.
python -m repro.service.client --smoke --clients 4 --duration 5 --packed \
    --shards 2 --adaptive
python -m repro.service.client --smoke --clients 4 --duration 5 --packed \
    --shards 2
# Guide-design smoke: a served `design` request must be byte-identical
# to the in-process reference, with every candidate query covered by
# exactly one batched comparer pass (no per-guide rescans).
python -m repro.design --smoke
# Variant smoke: one comparer batch per variant search, served and
# 2-shard responses byte-identical to in-process, a TOML enzyme config
# served end to end; its sharded leg runs under the shm leak guard.
python -m repro.variants --smoke
# Routing-tier smoke: 3 subprocess backends behind a router, one
# SIGKILLed mid-load, one zero-downtime rollover, SIGTERM drain of the
# survivors; asserts byte-identity against a single-process server and
# a routed `design` request checked before and after the rollover.
python -m repro.service.router --smoke --duration 6
# Paper-shape gates: the Table VIII/IX/X and Fig. 2 shape assertions.
python -m pytest benchmarks -q --benchmark-disable
# Repo benchmark self-tests; they also pin the entry points its traced
# run wraps (_handle_request, _timed_rpc and the design/variant globals).
python -m pytest perfbench -q
# Short seeded hits run of the repo benchmark: its exit status checks
# served hits against the in-process search and the all-N hit count.
python3 perfbench/run.py --workload hits --seed 1 --seconds 4 --trace 0
# Short seeded scan run: every sampled guide must hit and a served
# subset must equal the in-process search, over the seed prefilter.
python3 perfbench/run.py --workload scan --seed 1 --seconds 4 --trace 0
# Short seeded routed-mix run: every kept routed response must equal,
# byte for byte, what a single whole-genome server sends for the same
# line, which pins the servers' column-native hit encoder against the
# router's json.dumps re-encoding.
python3 perfbench/run.py --workload routed-mix --seed 1 --seconds 4 --trace 0
# Every smoke and test above closed its tier; any surviving segment
# is a leak and fails verification before the trap's cleanup can mask
# it.
python -m repro.service.shards --guard
