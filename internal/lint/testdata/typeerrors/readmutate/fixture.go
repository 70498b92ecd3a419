// Package readmutate holds the violation sessionlock's deleted rule 2
// flagged: db.Exec under the shared reader lock. The closure's parameter
// type is inferred from Read's own signature, so the package compiles
// exactly when the value Read hands out has an Exec method.
package readmutate

import (
	"repro/internal/engine"
	"repro/internal/session"
)

type executor interface {
	Exec(sql string) (*engine.Result, error)
}

func dropUnder[DB executor](read func(func(DB) error) error) error {
	return read(func(db DB) error {
		_, err := db.Exec("DROP INDEX ix_orders_user")
		return err
	})
}

func mutateUnderRead(m *session.Manager) error {
	return dropUnder(m.Read)
}
