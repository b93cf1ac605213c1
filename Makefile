.PHONY: build test verify bench benchjson

build:
	go build ./...

test:
	go test ./...

# Full check: vet, build, the planbench module's vet and tests,
# race-enabled tests (including the parallel search engine at forced
# pool sizes and the serving layer's
# singleflight/shedding/shutdown), a bench smoke that re-validates
# BENCH_PARTITION.json, a smoke run validating the -trace / -metrics
# telemetry exports end to end, and a looppartd daemon smoke (serve,
# cache, byte-identical hit, drain).
verify:
	sh scripts/verify.sh

bench:
	go test -bench=. -benchmem

# Regenerate the checked-in BENCH_PARTITION.json performance record.
benchjson:
	sh scripts/bench.sh
