PYTHON ?= python

.PHONY: test fault service router design variants verify

# Tier-1 suite (includes the fault-marked tests).
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Only the fault-injection / failover equivalence tests.
fault:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m fault

# Query-service tests plus load-generator smokes: packed and byte
# comparer modes, 2-shard worker-process runs with and without the
# adaptive scheduler (without it every batch is scattered), then a hard
# failure on any leaked shm segment before the cleanup sweep.
service:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_service.py \
		tests/test_packed_service.py tests/test_shard_rings.py
	PYTHONPATH=src $(PYTHON) -m repro.service.client --smoke \
		--clients 4 --duration 5 --packed
	PYTHONPATH=src $(PYTHON) -m repro.service.client --smoke \
		--clients 4 --duration 5 --no-packed
	PYTHONPATH=src $(PYTHON) -m repro.service.client --smoke \
		--clients 4 --duration 5 --packed --shards 2 --adaptive
	PYTHONPATH=src $(PYTHON) -m repro.service.client --smoke \
		--clients 4 --duration 5 --packed --shards 2
	PYTHONPATH=src $(PYTHON) -m repro.service.shards --guard
	PYTHONPATH=src $(PYTHON) -m repro.service.shards --cleanup

# Routing-tier tests plus the fleet smoke: 3 subprocess backends, one
# induced SIGKILL, one zero-downtime rollover, graceful SIGTERM drain;
# byte-identity against a single-process server and zero leaked
# processes/ready files/shm segments are asserted throughout.
router:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_router.py
	PYTHONPATH=src $(PYTHON) -m repro.service.router --smoke --duration 6
	PYTHONPATH=src $(PYTHON) -m repro.service.shards --guard

# Guide-design tests plus the design smoke: in-process reference vs a
# served design request, byte-identity and the single-scan comparer
# proof (one batch covering every candidate query) asserted.
design:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_design.py \
		tests/test_scoring.py
	PYTHONPATH=src $(PYTHON) -m repro.design --smoke

# Variant-aware search tests plus the variants smoke: single-batch
# comparer accounting, served/sharded byte-identity against the
# in-process payload, and a TOML enzyme config served end to end.
variants:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_variants.py
	PYTHONPATH=src $(PYTHON) -m repro.variants --smoke
	PYTHONPATH=src $(PYTHON) -m repro.service.shards --guard

# Tier-1 suite plus explicit fault and service passes, one command.
verify:
	./scripts/verify.sh
