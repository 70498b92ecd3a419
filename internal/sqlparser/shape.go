package sqlparser

import "strconv"

// Placeholder bytes Shape writes for a stripped literal. The scanner rejects
// each of them outside a string, so no statement spells one and two
// statements with equal shapes have token streams that differ only where a
// placeholder stands.
const (
	shapeInt    = '#'
	shapeFloat  = '~'
	shapeString = '@'
	shapeInList = '&' // a whole literal-only IN list
)

// Shape appends the statement's shape to dst: its tokens in lower case, one
// space apart, with — in SELECT, INSERT, UPDATE and DELETE — every literal
// replaced by a placeholder naming its kind and a literal-only IN (...) list
// by a single one. It runs on the lexer's token scan alone and allocates
// nothing beyond dst's growth.
//
// The contract SQL2Template builds on: two statements with equal shapes
// either both fail to parse, or parse to trees that differ only in literal
// values where the canonical fingerprint has none. Whatever the parser reads
// out of a literal's text therefore stays in the shape: LIMIT's operand, a
// number strconv rejects, every literal of a statement the fingerprint does
// not strip (DDL, EXPLAIN). The converse does not hold and need not: `a = 5`
// and `a = 5.0` are two shapes of one template.
//
// Shape fails exactly when the lexer does.
func Shape(dst []byte, sql string) ([]byte, error) {
	s := scanner{src: sql}
	const (
		other = iota
		limit
		in
	)
	strip := false
	prev := other // the previous token
	for first := true; ; first = false {
		kind, start, end, err := s.next()
		if err != nil {
			return dst, err
		}
		if kind == tokEOF {
			return dst, nil
		}
		if !first {
			dst = append(dst, ' ')
		}
		raw := sql[start:end]
		after := prev
		prev = other
		switch kind {
		case tokIdent:
			mark := len(dst)
			dst = appendLowerASCII(dst, raw)
			switch string(dst[mark:]) {
			case "select", "insert", "update", "delete":
				if first {
					strip = true
				}
			case "limit":
				prev = limit
			case "in":
				prev = in
			}
		case tokPlaceholder:
			dst = append(dst, '$')
		case tokSymbol:
			dst = append(dst, symbolText(raw)...)
			if strip && after == in && raw == "(" && s.skipLiteralList() {
				dst = append(dst, ' ', shapeInList, ' ', ')')
			}
		default:
			tag := literalTag(kind, raw)
			if !strip || tag == 0 || (after == limit && kind == tokInt) {
				dst = append(dst, raw...)
			} else {
				dst = append(dst, tag)
			}
		}
	}
}

// literalTag is the placeholder for a literal token the parser will accept,
// or 0 for a number it will refuse (kept verbatim, so the refusal stays
// visible in the shape).
func literalTag(kind tokenKind, raw string) byte {
	switch kind {
	case tokInt:
		// Up to 18 digits always fit an int64.
		if len(raw) <= 18 {
			return shapeInt
		}
	case tokFloat:
		if _, err := strconv.ParseFloat(raw, 64); err == nil {
			return shapeFloat
		}
	case tokString:
		return shapeString
	}
	return 0
}

// skipLiteralList consumes `literal {, literal} )` when exactly that follows,
// and nothing otherwise.
func (s *scanner) skipLiteralList() bool {
	save := s.pos
	for {
		kind, start, end, err := s.next()
		if err != nil || literalTag(kind, s.src[start:end]) == 0 {
			break
		}
		kind, start, _, err = s.next()
		if err != nil || kind != tokSymbol {
			break
		}
		if s.src[start] == ')' {
			return true
		}
		if s.src[start] != ',' {
			break
		}
	}
	s.pos = save
	return false
}

func appendLowerASCII(dst []byte, word string) []byte {
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}
