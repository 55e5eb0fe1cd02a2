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

// lexer scans SQL text one token at a time.
type lexer struct {
	src string
	pos int // the next byte to scan: after next, the end of its token
}

// lex appends the tokens of src, ending with tokEOF, to toks[:0] and
// returns the extended slice, so a caller can reuse one buffer.
func lex(toks []token, src string) ([]token, error) {
	l := lexer{src: src}
	toks = toks[:0]
	for {
		t, err := l.next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// next scans the token after any whitespace and comments at l.pos.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.lexIdent(), nil
	case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber()
	case c == '\'':
		return l.lexString()
	default:
		return l.lexSymbol()
	}
}

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

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
}

func (l *lexer) lexNumber() (token, error) {
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
		return token{}, fmt.Errorf("sql: invalid number at offset %d", start)
	}
	return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
}

// lexString scans a quoted literal. The token's text is the unquoted
// value: a slice of the source unless the literal contains a doubled
// quote, the only escape.
func (l *lexer) lexString() (token, error) {
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
			return token{kind: tokString, text: text, pos: start}, nil
		}
		if escaped {
			sb.WriteByte(c)
		}
		l.pos++
	}
	return token{}, fmt.Errorf("sql: unterminated string at offset %d", start)
}

var twoCharSymbols = map[string]bool{"<=": true, ">=": true, "<>": true, "!=": true}

func (l *lexer) lexSymbol() (token, error) {
	start := l.pos
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		if twoCharSymbols[two] {
			l.pos += 2
			return token{kind: tokSymbol, text: two, pos: start}, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '.', ';':
		l.pos++
		return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start}, nil
	default:
		return token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
	}
}

// Normalize returns src as its tokens' source text, one space standing
// wherever whitespace or a comment separated two tokens, without trailing
// semicolons: a statement's identity for caches and sketches. Texts that
// normalize equal lex to the same tokens, so they parse and bind alike,
// and Normalize(Normalize(s)) == Normalize(s). Text the lexer rejects
// comes back trimmed; it fails Parse either way.
func Normalize(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	l := lexer{src: src}
	end := -1 // the previous token's end
	keep := 0 // the output's length without its trailing semicolons
	for {
		t, err := l.next()
		if err != nil {
			return strings.Trim(src, " \t\n\r")
		}
		if t.kind == tokEOF {
			return b.String()[:keep]
		}
		if end >= 0 && t.pos > end {
			b.WriteByte(' ')
		}
		b.WriteString(src[t.pos:l.pos])
		end = l.pos
		if !t.isSemicolon() {
			keep = b.Len()
		}
	}
}

// Split cuts src at its semicolons and returns each statement's text
// without the semicolon and without the whitespace and comments around
// it; empty statements are dropped. On a lexer error it returns the
// statements before the failing one, with the error.
func Split(src string) ([]string, error) {
	var out []string
	l := lexer{src: src}
	start, end := -1, 0 // the current statement's bytes
	for {
		t, err := l.next()
		if err != nil {
			return out, err
		}
		if t.kind != tokEOF && !t.isSemicolon() {
			if start < 0 {
				start = t.pos
			}
			end = l.pos
			continue
		}
		if start >= 0 {
			out = append(out, src[start:end])
			start = -1
		}
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func (t token) isSemicolon() bool { return t.kind == tokSymbol && t.text == ";" }
