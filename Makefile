PYTHON ?= python
PYTHONPATH := src
PYTEST_ARGS ?=

.PHONY: test lint bench bench-compare fleet-demo ha-demo report-demo grey-demo

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q $(PYTEST_ARGS)

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

# The repository benchmark (BENCHMARK.json): five workloads, end-to-end
# and per-layer metrics, exits 1 on any failed operation.  Extra flags
# via BENCH_ARGS, e.g. `make bench BENCH_ARGS="--out BENCH_0012.json"`.
BENCH_ARGS ?=

bench:
	$(PYTHON) bench/run.py $(BENCH_ARGS)

# make bench-compare BASE=bench/baseline/BENCH_0011.json NEW=BENCH_0012.json
bench-compare:
	$(PYTHON) bench/compare.py $(BASE) $(NEW)

# End-to-end fleet walkthrough: generate a multi-job workload, stream it
# through a sharded service (incident log to /tmp), verify golden parity.
fleet-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fleet loadgen \
		--jobs 8 --iterations 20 --fault-fraction 0.25 \
		--out /tmp/fleet-demo.fprec
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fleet serve \
		--input /tmp/fleet-demo.fprec --shards 4 \
		--incidents-out /tmp/fleet-demo-incidents.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fleet replay \
		--input /tmp/fleet-demo.fprec --shards 2
	@echo "incident log: /tmp/fleet-demo-incidents.jsonl"

# Highly-available fleet walkthrough: start the TCP ingest server with
# a chaos hook that SIGKILLs shard 1 mid-stream, push a recorded
# workload into it over 4 connections, and let journal-replay failover
# prove itself — the server exits 0 only if validation passes with
# zero lost records.
ha-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fleet loadgen \
		--jobs 8 --iterations 20 --fault-fraction 0.25 \
		--out /tmp/ha-demo.fprec
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fleet serve \
		--listen 127.0.0.1:19917 --shards 3 \
		--kill-shard 1 --kill-after 200 --idle-exit 2 \
		--incidents-out /tmp/ha-demo-incidents.jsonl & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 50); do \
		$(PYTHON) -c "import socket; socket.create_connection(('127.0.0.1', 19917), 1).close()" \
			2>/dev/null && break; \
		sleep 0.2; \
	done; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fleet stream \
		--connect 127.0.0.1:19917 --input /tmp/ha-demo.fprec \
		--connections 4 --wire-version 2; \
	wait $$SERVE_PID
	@echo "incident log: /tmp/ha-demo-incidents.jsonl"

# Gray-failure study walkthrough: sweep scenario kind x spray policy x
# congestion level into an FP/detection-latency CSV (with the event
# stream captured for forensics), run the disable-vs-reroute
# remediation face-off, and build the incident report from the study's
# own events.
grey-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro greylab \
		--kinds congested_healthy gray_conditional \
		--seeds-per-cell 2 --out /tmp/grey-demo.csv \
		--events-out /tmp/grey-demo-events.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro greylab \
		--kinds gray_conditional --sprays random --levels none \
		--seeds-per-cell 1 --compare-remediations --compare-seeds 10 \
		--out /tmp/grey-demo-remediation.csv
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro report \
		/tmp/grey-demo-events.jsonl --out /tmp/grey-demo-report --no-html
	@echo "study matrix: /tmp/grey-demo.csv"
	@echo "fact tables:  /tmp/grey-demo-report/"

# Post-incident forensics walkthrough: capture a chaos batch's event
# stream and a fleet incident log, then build the CSV fact tables and
# the self-contained HTML incident report from both.
report-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro chaos \
		--scenarios 20 --events-out /tmp/report-demo-events.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fleet loadgen \
		--jobs 4 --iterations 20 --fault-fraction 0.5 \
		--out /tmp/report-demo.fprec
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fleet serve \
		--input /tmp/report-demo.fprec --shards 2 \
		--incidents-out /tmp/report-demo-incidents.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro report \
		/tmp/report-demo-events.jsonl /tmp/report-demo-incidents.jsonl \
		/tmp/report-demo.fprec --out /tmp/report-demo
	@echo "open /tmp/report-demo/report.html"
