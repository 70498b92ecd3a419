// Package mcts is a mapiterorder fixture: its import-path base matches a
// recommendation-path target package, so the analyzer runs on it.
package mcts

import (
	"fmt"
	"sort"
)

// Flagged: the append is conditional, so even the sort after the loop
// cannot restore determinism of which elements were appended together.
func conditionalAppend(m map[string]bool, keep map[string]bool) []string {
	var out []string
	for k := range m {
		if keep[k] {
			out = append(out, k) // want "map iteration order flows into slice out"
		}
	}
	sort.Strings(out)
	return out
}

// Allowed: the collect-then-sort idiom — a single unconditional append
// whose target is sorted immediately after the loop.
func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Flagged: collected in iteration order and never sorted.
func unsortedCollect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "map iteration order flows into slice out"
	}
	return out
}

// Flagged: float summation order follows map iteration order.
func sumCosts(m map[string]float64) float64 {
	total := 0.0
	for _, c := range m {
		total += c // want "float accumulation over map iteration is order-dependent"
	}
	return total
}

// Allowed: integer accumulation is order-insensitive.
func countRows(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Flagged: output is emitted in iteration order.
func dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "ordered sink fmt.Println"
	}
}

// Flagged: which key is returned depends on iteration order.
func anyKey(m map[string]int) string {
	for k := range m {
		return k // want "returning a value selected by map iteration order"
	}
	return ""
}

// Allowed: map-to-map copies are order-insensitive.
func clone(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
