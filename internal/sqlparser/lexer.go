package sqlparser

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol      // single/double char operators and punctuation
	tokPlaceholder // $ or ?
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased, identifiers lower-cased
	pos  int
}

// keywords maps each reserved word to itself, so a lookup by a folded
// scratch buffer hands back the canonical string without allocating.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE",
		"IS", "NULL", "GROUP", "BY", "ORDER", "HAVING", "ASC", "DESC", "LIMIT",
		"DISTINCT", "AS", "JOIN", "INNER", "ON", "INSERT", "INTO", "VALUES",
		"UPDATE", "SET", "DELETE", "CREATE", "TABLE", "INDEX", "UNIQUE",
		"PRIMARY", "KEY", "DROP", "EXPLAIN", "PARTITION", "PARTITIONS", "HASH",
		"LOCAL", "GLOBAL", "BIGINT", "INT", "INTEGER", "DOUBLE", "FLOAT", "TEXT",
		"VARCHAR", "CHAR", "NUMERIC", "DECIMAL",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the longest reserved word ("PARTITIONS").
const maxKeywordLen = 10

// keyword returns the canonical upper-case keyword word spells in any case,
// or "" when word is an identifier.
func keyword(word string) string {
	if len(word) > maxKeywordLen {
		return ""
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(word)])]
}

// scanner is the one definition of the token grammar: what whitespace, a
// literal, a word and a symbol are. lex builds the parser's token slice on
// it and Shape the literal-free statement shape; it allocates nothing.
type scanner struct {
	src string
	pos int
}

// next skips whitespace and returns the kind and extent src[start:end] of the
// next token. Words come back as tokIdent (the callers tell keywords apart);
// a string's extent includes its quotes.
func (s *scanner) next() (kind tokenKind, start, end int, err error) {
	src := s.src
	for s.pos < len(src) && isSpace(src[s.pos]) {
		s.pos++
	}
	start = s.pos
	if start >= len(src) {
		return tokEOF, start, start, nil
	}
	c := src[start]
	switch {
	case c == '$' || c == '?':
		s.pos++
		kind = tokPlaceholder
	case c == '\'':
		kind = tokString
		s.pos++
		for {
			i := strings.IndexByte(src[s.pos:], '\'')
			if i < 0 {
				return 0, 0, 0, fmt.Errorf("sqlparser: unterminated string at offset %d", start)
			}
			s.pos += i + 1
			if s.pos >= len(src) || src[s.pos] != '\'' {
				break
			}
			s.pos++ // '' is an escaped quote
		}
	case isDigit(c) || (c == '.' && start+1 < len(src) && isDigit(src[start+1])):
		kind = s.scanNumber()
	case isIdentStart(c):
		kind = tokIdent
		for s.pos < len(src) && isIdentPart(src[s.pos]) {
			s.pos++
		}
	default:
		kind = tokSymbol
		switch c {
		case '<':
			s.pos++
			if s.pos < len(src) && (src[s.pos] == '=' || src[s.pos] == '>') {
				s.pos++
			}
		case '>':
			s.pos++
			if s.pos < len(src) && src[s.pos] == '=' {
				s.pos++
			}
		case '!':
			if start+1 >= len(src) || src[start+1] != '=' {
				return 0, 0, 0, fmt.Errorf("sqlparser: unexpected character %q at offset %d", c, start)
			}
			s.pos += 2
		case '=', '(', ')', ',', '*', '+', '-', '/', '.', ';':
			s.pos++
		default:
			return 0, 0, 0, fmt.Errorf("sqlparser: unexpected character %q at offset %d", c, start)
		}
	}
	return kind, start, s.pos, nil
}

func (s *scanner) scanNumber() tokenKind {
	src := s.src
	kind := tokInt
	for s.pos < len(src) && isDigit(src[s.pos]) {
		s.pos++
	}
	if s.pos < len(src) && src[s.pos] == '.' {
		kind = tokFloat
		s.pos++
		for s.pos < len(src) && isDigit(src[s.pos]) {
			s.pos++
		}
	}
	if s.pos < len(src) && (src[s.pos] == 'e' || src[s.pos] == 'E') {
		kind = tokFloat
		s.pos++
		if s.pos < len(src) && (src[s.pos] == '+' || src[s.pos] == '-') {
			s.pos++
		}
		for s.pos < len(src) && isDigit(src[s.pos]) {
			s.pos++
		}
	}
	return kind
}

// symbolText is a symbol's canonical spelling: != is <>.
func symbolText(raw string) string {
	if raw == "!=" {
		return "<>"
	}
	return raw
}

// lex tokenizes src, returning the token stream or a syntax error. Token
// texts are substrings of src wherever src already spells them canonically.
func lex(src string) ([]token, error) {
	s := scanner{src: src}
	// Workload SQL runs at about four bytes a token; a denser statement
	// falls back on append's growth.
	toks := make([]token, 0, len(src)/3+2)
	for {
		kind, start, end, err := s.next()
		if err != nil {
			return nil, err
		}
		text := src[start:end]
		switch kind {
		case tokIdent:
			if kw := keyword(text); kw != "" {
				kind, text = tokKeyword, kw
			} else {
				text = lowerASCII(text)
			}
		case tokString:
			// A string literal outlives the statement once it is inserted
			// into a heap: copy it so a stored value never pins the SQL text.
			text = text[1 : len(text)-1]
			if strings.Contains(text, "''") {
				text = strings.ReplaceAll(text, "''", "'")
			} else {
				text = strings.Clone(text)
			}
		case tokSymbol:
			text = symbolText(text)
		case tokPlaceholder:
			text = "$"
		}
		toks = append(toks, token{kind: kind, text: text, pos: start})
		if kind == tokEOF {
			return toks, nil
		}
	}
}

// lowerASCII lower-cases an ASCII word, returning it unchanged (and
// unallocated) when it has no upper-case byte.
func lowerASCII(word string) string {
	for i := 0; i < len(word); i++ {
		if c := word[i]; c >= 'A' && c <= 'Z' {
			return strings.ToLower(word)
		}
	}
	return word
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Identifiers are ASCII-only. Treating bytes as runes here used to admit
// stray non-ASCII bytes as "letters" (unicode.IsLetter(rune(c)) is true for
// any byte >= 0x80 whose Latin-1 interpretation is a letter), and
// strings.ToLower then rewrote the invalid UTF-8 to U+FFFD, so the lexed
// identifier no longer matched the input (found by FuzzParse).
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}
