#!/usr/bin/env bash
# Product-coverage gate. Builds every shipped binary with coverage
# instrumentation, runs the shipped runs (the paper's experiments, the
# loadgen and CLI smokes, the examples and the benchmark),
# and checks that every non-test function outside bench/ those runs leave at
# 0% is listed, with a reason, in COVERAGE_product.txt. Run it from the
# repository root:
#
#   bash scripts/product-cover.sh
#
# The gate fails (exit 1) on a ledger line that names nothing — its file is
# gone or no longer declares that function, or a "(package)" line's
# directory is gone — before anything is built, and on a zero-coverage
# function the ledger does not list. A listed function that a run does reach
# is reported, not failed, so a function that only some runs reach (timing,
# worker interleaving) cannot make the gate flaky. DESIGN.md §17 has the
# ledger's format and how to justify an entry.
set -euo pipefail

ledger=COVERAGE_product.txt

# Ledger lines are "path Func — reason"; blank lines and # comments skip.
if awk '!/^(#|$)/' "$ledger" | grep -vE '^[^ ]+ [^ ]+ — [^ ]'; then
	echo "product-cover: the ledger lines above lack the \"path Func — reason\" form" >&2
	exit 1
fi
# Every line names something that exists: a "(package)" line a directory,
# any other line a function (Func) or method (Type.Method) its file declares.
stale=$(awk '!/^(#|$)/ { print $1, $2 }' "$ledger" | while read -r file name; do
	if [[ $name == "(package)" ]]; then
		[ -d "$file" ] || echo "$file $name"
		continue
	fi
	if [[ $name == *.* ]]; then
		decl="^func \(([A-Za-z0-9_]+ )?\*?${name%%.*}(\[[^]]*\])?\) ${name#*.}(\[|\()"
	else
		decl="^func ${name}(\[|\()"
	fi
	[ -f "$file" ] && grep -qE "$decl" "$file" || echo "$file $name"
done)
if [ -n "$stale" ]; then
	echo "product-cover: $ledger lines naming no function that exists:" >&2
	sed 's/^/  /' <<<"$stale" >&2
	echo "delete each line, or correct its path or name" >&2
	exit 1
fi

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

# pin FILE ARGS...: a benchrunner run whose -bench-out pin must equal the
# committed FILE byte for byte, so a counter that rises, falls, appears or
# vanishes fails the gate (DESIGN.md "The BENCH pin").
pin() {
	local file=$1
	shift
	run "$bin/benchrunner" "$@" -bench-out "$work/$file"
	if ! diff -u "$file" "$work/$file" >&2; then
		echo "product-cover: $file differs from a fresh run (diff above). If the change is meant," >&2
		echo "regenerate the file, commit it and give the reason in CHANGES.md:" >&2
		echo "  go run ./cmd/benchrunner $* -bench-out $file" >&2
		exit 1
	fi
}

# The paper's experiments, the BENCH_*.json pins, the online-tune and
# guardrail acceptance runs, and the experiment traces with their checks.
run "$bin/benchrunner" -exp all -quick
pin BENCH_fig5.json -exp fig5 -quick
pin BENCH_loadgen.json -loadgen -workers 8 -read-only -max-requests 2000 -qps 100000
run "$bin/benchrunner" -loadgen -workers 8 -online-tune -qps 400 -duration 2s
run "$bin/benchrunner" -loadgen -guardrail -workers 8 -qps 400 -duration 2s
run "$bin/benchrunner" -exp q32 -trace-out "$work/q32.jsonl"
if ! test -s "$work/q32.jsonl"; then
	echo "product-cover: q32 wrote no trace" >&2
	exit 1
fi
run "$bin/benchrunner" -exp fig5 -quick -trace-out "$work/fig5.jsonl"
if ! grep -q '"name":"apply"' "$work/fig5.jsonl"; then
	echo "product-cover: fig5 traced no apply span" >&2
	exit 1
fi
if grep '"name":"apply"' "$work/fig5.jsonl" | grep -v '"parent_id"'; then
	echo "product-cover: fig5 apply span without a parent: the round's trace is not one tree" >&2
	exit 1
fi

# The advisor CLI smokes.
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

# The examples, and the benchmark's untraced and traced runs.
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

awk '!/^(#|$)/ { print $1, $2 }' "$ledger" | sort -u >"$work/listed.txt"

reached=$(comm -13 "$work/zero.txt" "$work/listed.txt")
if [ -n "$reached" ]; then
	echo "listed in $ledger but reached by a shipped run:" >&2
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
