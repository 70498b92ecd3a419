#!/usr/bin/env bash
# Product-coverage gate. Builds every shipped binary with coverage
# instrumentation, runs the shipped runs (the paper's experiments, the CI
# loadgen and CLI smokes, the lint suite, the examples and the benchmark),
# and checks that every non-test function outside bench/ those runs leave at
# 0% is listed, with a reason, in COVERAGE_product.txt. Run it from the
# repository root:
#
#   bash scripts/product-cover.sh
#
# The gate fails one way only: a zero-coverage function the ledger does not
# list fails it (exit 1). A listed function that a run does reach is
# reported, not failed, so a function that only some runs reach (timing,
# worker interleaving) cannot make the gate flaky. DESIGN.md §17 has the
# ledger's format and how to justify an entry.
set -euo pipefail

ledger=COVERAGE_product.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
mkdir -p "$bin" "$work/cov"

echo "building instrumented binaries..." >&2
go build -cover -coverpkg=repro/... -o "$bin/" ./cmd/... ./examples/... ./bench

n=0
# run CMD ARGS...: one shipped run, writing coverage into its own directory.
run() {
	n=$((n + 1))
	mkdir -p "$work/cov/$n"
	echo "run $n: $*" >&2
	local start=$SECONDS
	if ! GOCOVERDIR="$work/cov/$n" "$@" >"$work/run.log" 2>&1; then
		cat "$work/run.log" >&2
		echo "product-cover: run failed: $*" >&2
		exit 1
	fi
	echo "  ok ($((SECONDS - start))s)" >&2
}

# The paper's experiments, and the CI snapshot runs with their diffs.
run "$bin/benchrunner" -exp all -quick
run "$bin/benchrunner" -exp fig5 -quick -bench-out "$work/BENCH_fig5.json"
run "$bin/benchdiff" -skip-wall -threshold 0 BENCH_fig5.json "$work/BENCH_fig5.json"
run "$bin/benchrunner" -loadgen -workers 8 -read-only -max-requests 2000 -qps 100000 \
	-bench-out "$work/BENCH_loadgen.json"
run "$bin/benchdiff" -skip-wall -threshold 0 BENCH_loadgen.json "$work/BENCH_loadgen.json"
run "$bin/benchrunner" -loadgen -workers 8 -online-tune -qps 400 -duration 2s
run "$bin/benchrunner" -loadgen -guardrail -workers 8 -qps 400 -duration 2s
run "$bin/benchrunner" -exp q32 -trace-out "$work/q32.jsonl"

# The advisor CLI smokes, the same commands CI runs.
cat >"$work/tpcc.sql" <<'EOF'
SELECT c_last, c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 2 AND c_id = 7
SELECT COUNT(*) FROM stock WHERE s_w_id = 1 AND s_quantity < 15
EOF
cat >"$work/schema.sql" <<'EOF'
CREATE TABLE items (id BIGINT, cat BIGINT, price DOUBLE, name VARCHAR(16), PRIMARY KEY (id))
INSERT INTO items (id, cat, price, name) VALUES (1, 10, 2.5, 'a'), (2, 20, 4.0, 'b'), (3, 10, 9.5, 'c')
EOF
cat >"$work/workload.sql" <<'EOF'
-- one statement per line
SELECT name FROM items WHERE cat = 10
SELECT COUNT(*) FROM items WHERE price BETWEEN 1 AND 5;
UPDATE items SET price = 3.0 WHERE id = 2
EOF
run "$bin/autoindex" -scenario tpcc -apply -n 300
run "$bin/autoindex" -scenario banking -apply -guardrail -n 300
run "$bin/autoindex" -scenario tpcc -n 300 -apply -json -report
run "$bin/autoindex" -scenario tpcc -n 300 -apply -save "$work/tpcc.snap"
run "$bin/autoindex" -load "$work/tpcc.snap" -workload "$work/tpcc.sql"
run "$bin/autoindex" -schema "$work/schema.sql" -workload "$work/workload.sql" -apply
run "$bin/autoindex" -scenario tpcc -n 300 -metrics-addr 127.0.0.1:0
run "$bin/autoindex" -scenario tpcc -n 300 -round-timeout 1ms

# The lint suite over the tree, the examples, and the benchmark's untraced
# and traced runs.
run "$bin/autoindexlint" ./...
for ex in quickstart dynamic epidemic banking partitioned; do
	run "$bin/$ex"
done
run "$bin/bench" -seconds 1 -trace 0 -out "$work"
run "$bin/bench" -seconds 1 -trace 1 -out "$work"

# Functions the runs leave at 0% outside bench/, as "path Func", methods as
# "path Type.Method".
dirs=$(find "$work/cov" -mindepth 1 -maxdepth 1 -type d | sort | paste -sd, -)
go tool covdata func -i="$dirs" >"$work/func.txt"
awk '$NF == "0.0%" && $1 ~ /^repro\// && $1 !~ /^repro\/bench\// { print $1, $2 }' "$work/func.txt" |
	while read -r loc fn; do
		file=${loc#repro/}
		file=${file%%:*}
		line=${loc#*:}
		line=${line%%:*}
		name=${fn#\*}
		if [[ $name != *.* ]]; then
			name=$(sed -n "${line}p" "$file" |
				sed -nE 's/^func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\).*/\2./p')$name
		fi
		echo "$file $name"
	done >"$work/zero.txt"
# A library package no shipped binary links carries no coverage data at all.
go tool covdata pkglist -i="$dirs" | sort >"$work/linked.txt"
go list -f '{{if and .GoFiles (ne .Name "main")}}{{.ImportPath}}{{end}}' ./... | grep . | sort |
	comm -23 - "$work/linked.txt" | sed -e 's|^repro/||' -e 's|$| (package)|' >>"$work/zero.txt"
sort -u -o "$work/zero.txt" "$work/zero.txt"

# Ledger lines are "path Func — reason"; blank lines and # comments skip.
if awk '!/^(#|$)/' "$ledger" | grep -vE '^[^ ]+ [^ ]+ — [^ ]'; then
	echo "product-cover: the ledger lines above lack the \"path Func — reason\" form" >&2
	exit 1
fi
awk '!/^(#|$)/ { print $1, $2 }' "$ledger" | sort -u >"$work/listed.txt"

reached=$(comm -13 "$work/zero.txt" "$work/listed.txt")
if [ -n "$reached" ]; then
	echo "listed in $ledger but reached by a shipped run (or gone):" >&2
	sed 's/^/  /' <<<"$reached" >&2
fi
unlisted=$(comm -23 "$work/zero.txt" "$work/listed.txt")
if [ -n "$unlisted" ]; then
	echo "product-cover: zero-coverage functions not listed in $ledger:" >&2
	sed 's/^/  /' <<<"$unlisted" >&2
	echo "exercise each in a shipped run, delete it, or list it with its reason" >&2
	exit 1
fi
echo "product-cover: ok, $(wc -l <"$work/zero.txt") zero-coverage functions, all listed" >&2
