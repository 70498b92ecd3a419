package engine

import (
	"fmt"
	"runtime/debug"

	"repro/internal/fault"
)

// InternalError is a panic recovered at the engine's statement boundary and
// converted into a regular error. It keeps one poisoned statement from
// killing a long-running tuning daemon: the caller sees a typed error, the
// engine_internal_panics_total counter is bumped, and the process survives.
type InternalError struct {
	// Op names the boundary that recovered the panic (e.g. "ExecStmt").
	Op string
	// Panic is the recovered panic value.
	Panic any
	// Stack is the goroutine stack captured at recovery time.
	Stack string
}

// Error implements the error interface.
func (e *InternalError) Error() string {
	return fmt.Sprintf("engine: internal panic in %s: %v", e.Op, e.Panic)
}

// recoverToError is the deferred statement-boundary handler: it converts a
// panic during statement execution into an error on *errp. Injected faults
// (*fault.Error, raised by hot paths without an error return) pass through as
// themselves; anything else becomes an *InternalError carrying the stack.
// The result is nilled so callers never see partial output.
func (db *DB) recoverToError(op string, resp **Result, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if resp != nil {
		*resp = nil
	}
	if fe, ok := r.(*fault.Error); ok {
		*errp = fe
		return
	}
	if db.metrics != nil {
		db.metrics.internalPanics.Inc()
	}
	*errp = &InternalError{Op: op, Panic: r, Stack: string(debug.Stack())}
}
