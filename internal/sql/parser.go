package sql

import (
	"fmt"
	"strconv"
	"strings"

	"dbvirt/internal/types"
)

// Parse parses one SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	toks, err := lex(nil, src)
	if err != nil {
		return nil, err
	}
	return (&parser{toks: toks}).parse()
}

// parse parses the whole token stream as one statement.
func (p *parser) parse() (Statement, error) {
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected input after statement")
	}
	return stmt, nil
}

// ParseSelect parses a statement that must be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected SELECT statement, got %T", stmt)
	}
	return sel, nil
}

type parser struct {
	toks []token
	i    int

	// param is set while the parser is in a clause whose literals are
	// statement parameters: WHERE, ON, INSERT VALUES and UPDATE SET, outside
	// aggregate calls. There binding depends on a literal's kind, never on
	// its value. With record set, each parameter is appended to params.
	param  bool
	record bool
	params []param
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return errorAt(p.cur(), format, args...)
}

// errorAt reports a syntax error at token t.
func errorAt(t token, format string, args ...any) error {
	where := "end of input"
	if t.kind != tokEOF {
		where = fmt.Sprintf("%q (offset %d)", t.text, t.pos)
	}
	return fmt.Errorf("sql: %s at %s", fmt.Sprintf(format, args...), where)
}

// acceptKeyword consumes the token if it is the given keyword.
func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.i++
		return true
	}
	return false
}

// expectKeyword consumes the keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

// peekKeyword reports whether the current token is the keyword.
func (p *parser) peekKeyword(kw string) bool {
	return isKeyword(p.cur(), kw)
}

// isKeyword reports whether t is the identifier kw in any letter case.
func isKeyword(t token, kws ...string) bool {
	if t.kind != tokIdent {
		return false
	}
	for _, kw := range kws {
		if strings.EqualFold(t.text, kw) {
			return true
		}
	}
	return false
}

// acceptSymbol consumes the token if it is the given symbol.
func (p *parser) acceptSymbol(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.i++
		return true
	}
	return false
}

// expectSymbol consumes the symbol or fails.
func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q", sym)
	}
	return nil
}

// expectIdent consumes and returns an identifier that is not a reserved
// keyword in this position.
func (p *parser) expectIdent(what string) (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errorf("expected %s", what)
	}
	return p.advance().text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKeyword("SELECT"):
		return p.parseSelect()
	case p.peekKeyword("CREATE"):
		return p.parseCreate()
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("DELETE"):
		return p.parseDelete()
	case p.peekKeyword("UPDATE"):
		return p.parseUpdate()
	case p.peekKeyword("ANALYZE"):
		return p.parseAnalyze()
	case p.peekKeyword("BEGIN"):
		p.advance()
		p.acceptKeyword("TRANSACTION")
		return &BeginStmt{}, nil
	case p.peekKeyword("COMMIT"):
		p.advance()
		return &CommitStmt{}, nil
	case p.peekKeyword("ROLLBACK"):
		p.advance()
		return &RollbackStmt{}, nil
	case p.peekKeyword("CHECKPOINT"):
		p.advance()
		return &CheckpointStmt{}, nil
	case p.peekKeyword("EXPLAIN"):
		p.advance()
		analyze := p.acceptKeyword("ANALYZE")
		if !p.peekKeyword("SELECT") {
			if analyze {
				return nil, p.errorf("EXPLAIN ANALYZE supports only SELECT")
			}
			return nil, p.errorf("EXPLAIN supports only SELECT")
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel.(*SelectStmt), Analyze: analyze}, nil
	default:
		return nil, p.errorf("expected a statement")
	}
}

// reservedAfterFrom are keywords that terminate a table alias.
var reservedAfterFrom = []string{
	"WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT", "ON", "AND", "OR",
}

func (p *parser) parseSelect() (Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	sel.Distinct = p.acceptKeyword("DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, fi)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseClause(true)
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseClause(false)
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseClause(false)
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			item, err := p.parseOrderItem()
			if err != nil {
				return nil, err
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		if p.cur().kind != tokNumber {
			return nil, p.errorf("expected LIMIT count")
		}
		n, err := strconv.ParseInt(p.cur().text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT count")
		}
		p.advance()
		sel.Limit = &n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseClause(false)
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent("alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.cur().kind == tokIdent && !isKeyword(p.cur(), reservedSelectTail...) {
		item.Alias = p.advance().text
	}
	return item, nil
}

// reservedSelectTail are keywords that end the select list (so a bare
// identifier after an expression is an implicit alias only if not one of
// these).
var reservedSelectTail = []string{"FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "AS"}

func (p *parser) parseOrderItem() (OrderItem, error) {
	var item OrderItem
	if p.cur().kind == tokNumber && !strings.Contains(p.cur().text, ".") {
		n, err := strconv.Atoi(p.advance().text)
		if err != nil || n < 1 {
			return item, p.errorf("invalid ORDER BY position")
		}
		item.Position = n
	} else {
		e, err := p.parseClause(false)
		if err != nil {
			return item, err
		}
		item.Expr = e
	}
	if p.acceptKeyword("DESC") {
		item.Desc = true
	} else {
		p.acceptKeyword("ASC")
	}
	return item, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	left, err := p.parseFromPrimary()
	if err != nil {
		return nil, err
	}
	var item FromItem = left
	for {
		var jt JoinType
		switch {
		case p.peekKeyword("JOIN"):
			p.advance()
			jt = InnerJoin
		case p.peekKeyword("INNER"):
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = InnerJoin
		case p.peekKeyword("LEFT"):
			p.advance()
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = LeftJoin
		default:
			return item, nil
		}
		right, err := p.parseFromPrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseClause(true)
		if err != nil {
			return nil, err
		}
		item = &JoinExpr{Type: jt, Left: item, Right: right, On: on}
	}
}

// parseFromPrimary parses a base table reference or a parenthesized
// derived table.
func (p *parser) parseFromPrimary() (FromItem, error) {
	if p.acceptSymbol("(") {
		if !p.peekKeyword("SELECT") {
			return nil, p.errorf("expected SELECT in derived table")
		}
		inner, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent("derived table alias")
		if err != nil {
			return nil, fmt.Errorf("sql: derived tables require an alias: %w", err)
		}
		return &SubqueryRef{Select: inner.(*SelectStmt), Alias: alias}, nil
	}
	return p.parseTableRef()
}

func (p *parser) parseTableRef() (*TableRef, error) {
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Table: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent("alias")
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if p.cur().kind == tokIdent && !isKeyword(p.cur(), reservedAfterFrom...) {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		name, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var cols []ColumnDef
		for {
			colName, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			kind, err := p.parseType()
			if err != nil {
				return nil, err
			}
			cols = append(cols, ColumnDef{Name: colName, Kind: kind})
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateTableStmt{Name: name, Columns: cols}, nil
	case p.acceptKeyword("INDEX"):
		name, err := p.expectIdent("index name")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Column: col}, nil
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseType() (types.Kind, error) {
	name, err := p.expectIdent("type name")
	if err != nil {
		return 0, err
	}
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT":
		return types.KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL":
		return types.KindFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		// Optional length, ignored.
		if p.acceptSymbol("(") {
			if p.cur().kind != tokNumber {
				return 0, p.errorf("expected length")
			}
			p.advance()
			if err := p.expectSymbol(")"); err != nil {
				return 0, err
			}
		}
		return types.KindString, nil
	case "BOOL", "BOOLEAN":
		return types.KindBool, nil
	case "DATE":
		return types.KindDate, nil
	default:
		return 0, p.errorf("unknown type %q", name)
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseClause(true)
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseClause(true)
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseClause(true)
		if err != nil {
			return nil, err
		}
		upd.Sets = append(upd.Sets, SetClause{Column: col, Value: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseClause(true)
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func (p *parser) parseAnalyze() (Statement, error) {
	p.advance() // ANALYZE
	st := &AnalyzeStmt{}
	if p.cur().kind == tokIdent {
		st.Table = p.advance().text
	}
	return st, nil
}

// --- expressions ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

// parseClause parses an expression whose literals are parameters exactly
// when param is set.
func (p *parser) parseClause(param bool) (Expr, error) {
	outer := p.param
	p.param = param
	e, err := p.parseExpr()
	p.param = outer
	return e, err
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Postfix predicates: BETWEEN, IN, LIKE, IS NULL, optionally negated.
	not := false
	if p.peekKeyword("NOT") {
		// Only consume NOT if followed by BETWEEN/IN/LIKE.
		save := p.i
		p.advance()
		if p.peekKeyword("BETWEEN") || p.peekKeyword("IN") || p.peekKeyword("LIKE") {
			not = true
		} else {
			p.i = save
			return l, nil
		}
	}
	switch {
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Not: not, E: l, Lo: lo, Hi: hi}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{Not: not, E: l, List: list}, nil
	case p.acceptKeyword("LIKE"):
		if p.cur().kind != tokString {
			return nil, p.errorf("LIKE pattern must be a string literal")
		}
		return &LikeExpr{Not: not, E: l, Pattern: p.advance().text}, nil
	case p.acceptKeyword("IS"):
		isNot := p.acceptKeyword("NOT")
		if !p.acceptKeyword("NULL") {
			return nil, p.errorf("expected NULL after IS")
		}
		return &IsNullExpr{Not: isNot, E: l}, nil
	}
	if p.cur().kind == tokSymbol {
		if op, ok := comparisonOps[p.cur().text]; ok {
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.acceptSymbol("+"):
			op = OpAdd
		case p.acceptSymbol("-"):
			op = OpSub
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.acceptSymbol("*"):
			op = OpMul
		case p.acceptSymbol("/"):
			op = OpDiv
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// A negated number folds into its literal. The literal is always
		// the last one parsed, so a recorded parameter notes the sign.
		if lit, ok := e.(*Literal); ok && (lit.Value.Kind == types.KindInt || lit.Value.Kind == types.KindFloat) {
			lit.Value = negate(lit.Value)
			if n := len(p.params); n > 0 && p.params[n-1].lit == lit {
				p.params[n-1].neg = !p.params[n-1].neg
			}
			return lit, nil
		}
		return &NegExpr{E: e}, nil
	}
	p.acceptSymbol("+")
	return p.parsePrimary()
}

// negate is arithmetic negation of an INT or FLOAT value.
func negate(v types.Value) types.Value {
	if v.Kind == types.KindInt {
		return types.NewInt(-v.I)
	}
	return types.NewFloat(-v.F)
}

// numberKind is the kind of a number token: FLOAT with a decimal point,
// INT without.
func numberKind(text string) types.Kind {
	if strings.Contains(text, ".") {
		return types.KindFloat
	}
	return types.KindInt
}

// literalValue converts a literal token's text to a value of the kind the
// parser gave it, reporting whether the text is valid for that kind.
func literalValue(k types.Kind, text string) (types.Value, bool) {
	switch k {
	case types.KindInt:
		n, err := strconv.ParseInt(text, 10, 64)
		return types.NewInt(n), err == nil
	case types.KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		return types.NewFloat(f), err == nil
	case types.KindDate:
		v, err := types.ParseDate(text)
		return v, err == nil
	default:
		return types.NewString(text), true
	}
}

// invalidLiteral names what a literal of each kind failed to be.
var invalidLiteral = map[types.Kind]string{
	types.KindInt: "invalid integer %q", types.KindFloat: "invalid number %q", types.KindDate: "invalid date literal %q",
}

// literal parses the current token as a literal of kind k that begins at
// token at (a DATE literal begins at its keyword). Inside a parameter
// clause the literal is recorded as a parameter.
func (p *parser) literal(at token, k types.Kind) (Expr, error) {
	i := p.i
	v, ok := literalValue(k, p.toks[i].text)
	if !ok {
		return nil, errorAt(at, invalidLiteral[k], p.toks[i].text)
	}
	p.advance()
	lit := &Literal{Value: v}
	if p.record && p.param {
		p.params = append(p.params, param{tok: i, lit: lit, kind: k})
	}
	return lit, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		return p.literal(t, numberKind(t.text))
	case tokString:
		return p.literal(t, types.KindString)
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("expected expression")
	case tokIdent:
		next := p.toks[p.i+1]
		// Typed literals: DATE 'yyyy-mm-dd'.
		if next.kind == tokString && isKeyword(t, "DATE") {
			p.advance()
			return p.literal(t, types.KindDate)
		}
		switch {
		case isKeyword(t, "TRUE"):
			p.advance()
			return &Literal{Value: types.NewBool(true)}, nil
		case isKeyword(t, "FALSE"):
			p.advance()
			return &Literal{Value: types.NewBool(false)}, nil
		case isKeyword(t, "NULL"):
			p.advance()
			return &Literal{Value: types.Null}, nil
		}
		if next.kind == tokSymbol && next.text == "(" {
			for fn, name := range aggNames {
				if strings.EqualFold(t.text, name) {
					return p.parseAggregate(AggFunc(fn))
				}
			}
		}
		// Column reference, possibly qualified.
		p.advance()
		if p.acceptSymbol(".") {
			col, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	default:
		return nil, p.errorf("expected expression")
	}
}

// parseAggregate parses an aggregate call from its function name. The
// argument's literals are never parameters: binding matches aggregates by
// value.
func (p *parser) parseAggregate(fn AggFunc) (Expr, error) {
	p.advance()
	p.advance() // (
	if p.acceptSymbol("*") {
		if fn != AggCount {
			return nil, p.errorf("only COUNT accepts *")
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &AggExpr{Func: fn, Star: true}, nil
	}
	arg, err := p.parseClause(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &AggExpr{Func: fn, Arg: arg}, nil
}
