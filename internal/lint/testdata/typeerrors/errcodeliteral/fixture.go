// Package errcodeliteral holds the violation errclass's deleted rule 3
// flagged: a build-error code written as an integer.
package errcodeliteral

import "repro/internal/session"

func toCode(err error) session.ErrCode {
	if err == nil {
		return session.CodeOK
	}
	return session.ErrCode(4096)
}
