package sql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

// token is one lexed token. Identifiers keep their original spelling;
// keywords are matched case-insensitively with strings.EqualFold.
type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
}

// lexer splits SQL text into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex appends the tokens of src, ending with tokEOF, to toks[:0] and
// returns the extended slice, so a caller can reuse one buffer.
func lex(toks []token, src string) ([]token, error) {
	l := &lexer{src: src, toks: toks[:0]}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		var err error
		switch {
		case isIdentStart(c):
			l.lexIdent()
		case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			err = l.lexNumber()
		case c == '\'':
			err = l.lexString()
		default:
			err = l.lexSymbol()
		}
		if err != nil {
			return l.toks, err
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	l.emit(token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexNumber() error {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	if l.pos < len(l.src) && isIdentStart(l.src[l.pos]) {
		return fmt.Errorf("sql: invalid number at offset %d", start)
	}
	l.emit(token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
	return nil
}

// lexString scans a quoted literal. The token's text is the unquoted
// value: a slice of the source unless the literal contains a doubled
// quote, the only escape.
func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	escaped := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				if !escaped {
					sb.WriteString(l.src[start+1 : l.pos])
					escaped = true
				}
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			text := l.src[start+1 : l.pos]
			if escaped {
				text = sb.String()
			}
			l.pos++
			l.emit(token{kind: tokString, text: text, pos: start})
			return nil
		}
		if escaped {
			sb.WriteByte(c)
		}
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string at offset %d", start)
}

var twoCharSymbols = map[string]bool{"<=": true, ">=": true, "<>": true, "!=": true}

func (l *lexer) lexSymbol() error {
	start := l.pos
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		if twoCharSymbols[two] {
			l.pos += 2
			l.emit(token{kind: tokSymbol, text: two, pos: start})
			return nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '.', ';':
		l.pos++
		l.emit(token{kind: tokSymbol, text: l.src[start:l.pos], pos: start})
		return nil
	default:
		return fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
	}
}
