package sql

import "dbvirt/internal/types"

// Shape is one lexer pass over a statement, split into what every statement
// of the same shape shares and what varies between them: the key is the
// token stream with each number and string literal replaced by its kind,
// and the tokens keep the literals' text. Scan reuses the Shape's buffers,
// so one Shape serves a stream of statements.
type Shape struct {
	toks []token
	key  []byte
}

// Scan lexes src into the shape. Its error is Parse's for the same text.
// Tokens point into src; the buffer slots a shorter statement leaves
// unused are cleared, so the shape keeps only the last statement alive.
func (sh *Shape) Scan(src string) error {
	prev := len(sh.toks)
	var err error
	sh.toks, err = lex(sh.toks, src)
	if n := len(sh.toks); n < prev {
		clear(sh.toks[n:prev])
	}
	sh.key = sh.key[:0]
	if err != nil {
		return err
	}
	// Identifiers and symbols never contain '?' or ' ', so the key is
	// unambiguous.
	for _, t := range sh.toks {
		switch t.kind {
		case tokNumber:
			if numberKind(t.text) == types.KindFloat {
				sh.key = append(sh.key, "?f "...)
			} else {
				sh.key = append(sh.key, "?i "...)
			}
		case tokString:
			sh.key = append(sh.key, "?s "...)
		case tokEOF:
		default:
			sh.key = append(sh.key, t.text...)
			sh.key = append(sh.key, ' ')
		}
	}
	return nil
}

// Key is the shape's key. It is valid until the next Scan.
func (sh *Shape) Key() []byte { return sh.key }

// param is one parameter literal the parser recorded: the literal token at
// index tok, parsed as kind, became lit, negated when neg is set (the
// parser folds unary minus into number literals).
type param struct {
	tok  int
	lit  *Literal
	kind types.Kind
	neg  bool
}

// Template is a parsed statement whose parameters can be rewritten in
// place to those of another statement of the same shape. Literals outside
// parameter clauses — a LIMIT count, a LIKE pattern, a select-list or
// aggregate constant — are fixed: their text is part of the template.
type Template struct {
	// Stmt is the parsed statement. Set rewrites its parameter literals.
	Stmt Statement

	params []param
	fixed  []fixedLit
}

// fixedLit is a literal token that is not a parameter: token tok, whose
// text every matching statement repeats.
type fixedLit struct {
	tok  int
	text string
}

// ParseTemplate parses the scanned statement, recording its parameters.
// Its result and error are Parse's for the same text.
func ParseTemplate(sh *Shape) (*Template, error) {
	p := &parser{toks: sh.toks, record: true}
	stmt, err := p.parse()
	if err != nil {
		return nil, err
	}
	t := &Template{Stmt: stmt, params: p.params}
	next := 0 // params are recorded in token order
	for i, tok := range sh.toks {
		switch {
		case tok.kind != tokNumber && tok.kind != tokString:
		case next < len(p.params) && p.params[next].tok == i:
			next++
		default:
			t.fixed = append(t.fixed, fixedLit{tok: i, text: tok.text})
		}
	}
	return t, nil
}

// Matches reports whether the scanned statement, which has the template's
// shape key, differs from the template's only in its parameters' values:
// whether its fixed literals repeat the template's.
func (t *Template) Matches(sh *Shape) bool {
	for _, f := range t.fixed {
		if sh.toks[f.tok].text != f.text {
			return false
		}
	}
	return true
}

// Set writes the scanned statement's parameter values into the template's
// literals; sh must match the template. It fails when a value is not valid
// for its kind (an integer out of range, a malformed date), leaving the
// literals partly rewritten: the caller parses the text instead, which
// reports the error, and the next Set rewrites every parameter.
func (t *Template) Set(sh *Shape) bool {
	for i := range t.params {
		pm := &t.params[i]
		v, ok := literalValue(pm.kind, sh.toks[pm.tok].text)
		if !ok {
			return false
		}
		if pm.neg {
			v = negate(v)
		}
		pm.lit.Value = v
	}
	return true
}
