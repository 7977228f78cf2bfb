# Developer entry points.  Everything runs offline with the stdlib
# toolchain; PYTHONPATH=src replaces an editable install.

PY := PYTHONPATH=src python

.PHONY: test bench-abs bench-tests figures chaos sweep-smoke snapshot-smoke diagnose-smoke serve-smoke competitive-smoke soak-smoke

test:            ## tier-1 suite (must always be green)
	$(PY) -m pytest -x -q

W ?= fct_observed
bench-abs:       ## absolute benchmark, one workload: make bench-abs W=fct_star
	python3 -m bench once --workload $(W) --seed 1

bench-tests:     ## the absolute benchmark's own tests (not tier-1, < 1 min)
	$(PY) -m pytest bench/tests -q

figures:         ## regenerate the paper-figure benchmarks
	$(PY) -m pytest -q benchmarks/

chaos:           ## fault-injection smoke (sum(T) == B under link flaps)
	$(PY) -m repro chaos --faults examples/linkflap.json \
	    --scheme dynaq --wall-budget 600

sweep-smoke:     ## parallel-executor determinism: serial == --jobs 2 == --resume; workers preloaded
	$(PY) -m repro fct --schemes dynaq,pql --loads 0.3 --flows 60 \
	    > /tmp/repro-sweep-serial.out
	$(PY) -m repro fct --schemes dynaq,pql --loads 0.3 --flows 60 \
	    --jobs 2 > /tmp/repro-sweep-parallel.out
	$(PY) -m repro fct --schemes dynaq,pql --loads 0.3 --flows 60 \
	    --jobs 2 --resume > /tmp/repro-sweep-resumed.out
	diff /tmp/repro-sweep-serial.out /tmp/repro-sweep-parallel.out
	diff /tmp/repro-sweep-parallel.out /tmp/repro-sweep-resumed.out
	rm -f repro-fct.checkpoint.jsonl
	$(PY) tools/preload_smoke.py
	@echo "sweep-smoke: serial, parallel, and resumed output identical"

snapshot-smoke:  ## kill a run at an autosave, restore, require identical trace bytes
	$(PY) -m repro fair-sharing --schemes dynaq --time-unit 0.03 \
	    --trace-out /tmp/repro-snap-full.jsonl \
	    --snapshot-every 0.01 --snapshot-out /tmp/repro-snap-ref.snap
	$(PY) -m repro fair-sharing --schemes dynaq --time-unit 0.03 \
	    --trace-out /tmp/repro-snap-killed.jsonl \
	    --snapshot-every 0.01 --snapshot-out /tmp/repro-snap.snap \
	    --snapshot-kill-after 2; test $$? -eq 3
	$(PY) -m repro fair-sharing --schemes dynaq --time-unit 0.03 \
	    --restore /tmp/repro-snap.snap
	cmp /tmp/repro-snap-full.jsonl /tmp/repro-snap-killed.jsonl
	rm -f /tmp/repro-snap-full.jsonl /tmp/repro-snap-killed.jsonl \
	    /tmp/repro-snap-ref.snap /tmp/repro-snap.snap
	@echo "snapshot-smoke: killed+restored trace is byte-identical"

competitive-smoke: ## adversarial ratio grid; fails if LQD exceeds 1.5
	$(PY) -m repro competitive --buffer-sizes 16,32 --rounds 2 \
	    --out /tmp/repro-competitive.json
	$(PY) -m repro competitive --buffer-sizes 16,32 --rounds 2 \
	    --out /tmp/repro-competitive-par.json --jobs 2
	cmp /tmp/repro-competitive.json /tmp/repro-competitive-par.json
	rm -f /tmp/repro-competitive.json /tmp/repro-competitive-par.json \
	    repro-competitive.checkpoint.jsonl
	@echo "competitive-smoke: LQD within 1.5, serial == --jobs 2"

soak-smoke:      ## chaos soak: clean run exits 0; --drill must minimize to a bundle
	$(PY) -m repro soak --seed 1 --iterations 6 --jobs 2 \
	    --out /tmp/repro-soak-verdicts.jsonl
	$(PY) -m repro soak --seed 1 --iterations 2 --drill \
	    --triage-dir /tmp/repro-soak-triage; test $$? -eq 1
	test -n "$$(ls -d /tmp/repro-soak-triage/bundle-*/)"
	$(PY) -m repro soak \
	    --replay /tmp/repro-soak-triage/bundle-*/minimal.json; \
	    test $$? -eq 1
	rm -rf /tmp/repro-soak-triage /tmp/repro-soak-verdicts.jsonl \
	    repro-soak.checkpoint.jsonl
	@echo "soak-smoke: clean soak green, drill minimized and replayed"

serve-smoke:     ## daemon under drill kills: jobs finish, SIGTERM drains clean
	$(PY) tools/serve_smoke.py --workdir serve-smoke-artifacts
	rm -rf serve-smoke-artifacts

diagnose-smoke:  ## capture queue-diagnosis sketches and query them
	$(PY) -m repro fair-sharing --schemes dynaq --time-unit 0.03 \
	    --diagnose-out /tmp/repro-diag.json
	$(PY) -m repro diagnose /tmp/repro-diag.json
	$(PY) -m repro diagnose /tmp/repro-diag.json \
	    --port 's0->h0' --window 0:10000000
	rm -f /tmp/repro-diag.json
	@echo "diagnose-smoke: sketch capture and query green"
