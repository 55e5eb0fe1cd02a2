package placement

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"dbvirt/internal/vm"
)

// The wire encoder. A fleet response is ~170 KB of which all but the
// tenant names is a function of the memoized machine solves, so the
// placement is appended to a byte slice directly — byte for byte what
// encoding/json writes for the same structs (key order, number format,
// HTML-safe string escaping) — and each solve's share of it is rendered
// once and spliced thereafter. Tenant names are rendered once too, when
// the tenant joins the fleet, and spliced per seat and per class member.

// quotedName is a tenant name beside its JSON string encoding. The
// encoder splices json wherever a seat or class member still carries
// name, and encodes the field itself otherwise.
type quotedName struct{ name, json string }

// quote returns s encoded as a JSON string. A typical name renders into
// the stack buffer, so the string is the one allocation.
func quote(s string) string {
	var buf [64]byte
	return string(appendString(buf[:0], s))
}

// appendName appends name as a JSON string: names[i]'s rendering when it
// is name's, else a fresh encoding.
func appendName(dst []byte, name string, names []quotedName, i int) []byte {
	if i < len(names) && names[i].name == name {
		return append(dst, names[i].json...)
	}
	return appendString(dst, name)
}

// solveFragments are the pieces of a machine's encoding that depend only
// on its solve. ok is false when the solve holds a non-finite number,
// which JSON cannot carry; such a solve is never spliced.
type solveFragments struct {
	ok    bool
	key   []byte   // the display key as a JSON string
	seats [][]byte // per slot, the seat object after "class": `"shares":{…},"cost":…}`
	total []byte   // the machine total as a JSON number
}

func (ms *machineSolve) fragments() *solveFragments {
	ms.fragOnce.Do(func() {
		f := &ms.frag
		// One backing array: key, total, then the seats.
		buf := appendString(nil, ms.display)
		f.key = buf[:len(buf):len(buf)]
		mark := len(buf)
		buf, err := AppendFloat(buf, ms.total)
		if err != nil {
			return
		}
		f.total = buf[mark:len(buf):len(buf)]
		f.seats = make([][]byte, len(ms.costs))
		for i := range ms.costs {
			mark = len(buf)
			if buf, err = appendSeatTail(buf, ms.shares[i], ms.costs[i]); err != nil {
				return
			}
			f.seats[i] = buf[mark:len(buf):len(buf)]
		}
		f.ok = true
	})
	return &ms.frag
}

// AppendJSON appends the placement's stats, class list and machine list as
// the object members `"stats":{…},"classes":[…],"machines":[…]` (no
// enclosing braces: a caller writes its own head before them), encoded
// exactly as encoding/json encodes Stats, Classes and Machines.
func (pl *Placement) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `"stats":`...)
	dst = pl.Stats.appendJSON(dst)
	var seatNames, memberNames []quotedName
	if pl.bufs != nil {
		seatNames, memberNames = pl.bufs.seatNames, pl.bufs.memberNames
	}
	dst = append(dst, `,"classes":`...)
	dst = appendClasses(dst, pl.Classes, memberNames)
	dst = append(dst, `,"machines":`...)
	return appendMachines(dst, pl.Machines, pl.solsForMachines(), seatNames)
}

// AppendDeltaJSON appends the same three members as AppendJSON, but as a
// delta against the placement the last Apply replaced: the class list
// without member names, and only the machines whose encoding differs from
// the replaced placement's machine with the same id, each encoded as
// AppendJSON encodes it. Stats.Machines is the new list's length, so a
// client that replaces machines by id and truncates to it holds the
// placement's machine list, and rebuilds each class's members (in name
// order) from the seats.
//
// The replaced placement's machines are read from the spare buffer set,
// which is intact only until the next Apply begins: call AppendDeltaJSON
// right after a successful Apply. A placement never applied to lists
// every machine.
func (pl *Placement) AppendDeltaJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `"stats":`...)
	dst = pl.Stats.appendJSON(dst)
	dst = append(dst, `,"classes":[`...)
	for i := range pl.Classes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendClassHead(dst, &pl.Classes[i]), '}')
	}
	dst = append(dst, `],"machines":[`...)
	var prev []Machine
	var names []quotedName
	if pl.spare != nil {
		prev = pl.spare.machines
	}
	if pl.bufs != nil {
		names = pl.bufs.seatNames
	}
	sols := pl.solsForMachines()
	var err error
	seat, sent := 0, 0
	for mi := range pl.Machines {
		m := &pl.Machines[mi]
		if mi >= len(prev) || !sameMachine(m, &prev[mi]) {
			if sent > 0 {
				dst = append(dst, ',')
			}
			var sol *machineSolve
			if sols != nil {
				sol = sols[mi]
			}
			if dst, err = appendMachine(dst, m, sol, names, seat); err != nil {
				return dst, err
			}
			sent++
		}
		seat += len(m.Tenants)
	}
	mDeltaMachines.Add(int64(sent))
	return append(dst, ']'), nil
}

// solsForMachines returns the solves parallel to Machines, or nil when
// the placement does not carry them.
func (pl *Placement) solsForMachines() []*machineSolve {
	if len(pl.sols) != len(pl.Machines) {
		return nil
	}
	return pl.sols
}

func (st SolveStats) appendJSON(dst []byte) []byte {
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{`{"tenants":`, st.Tenants},
		{`,"classes":`, st.Classes},
		{`,"machines":`, st.Machines},
		{`,"machine_solves":`, st.MachineSolves},
		{`,"memo_hits":`, st.MemoHits},
		{`,"reused_machines":`, st.ReusedMachines},
		{`,"orders":`, st.Orders},
	} {
		dst = append(dst, f.name...)
		dst = strconv.AppendInt(dst, int64(f.v), 10)
	}
	return append(dst, '}')
}

// appendClasses encodes the class list. names, if non-nil, runs parallel
// to the classes' members in order; see appendName.
func appendClasses(dst []byte, classes []ClassInfo, names []quotedName) []byte {
	if classes == nil {
		return append(dst, "null"...)
	}
	member := 0
	dst = append(dst, '[')
	for i := range classes {
		c := &classes[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendClassHead(dst, c)
		dst = append(dst, `,"members":`...)
		if c.Members == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for j, m := range c.Members {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendName(dst, m, names, member)
				member++
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendClassHead appends a class object up to its member list:
// `{"id":…,"rep":…,"size":…`.
func appendClassHead(dst []byte, c *ClassInfo) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(c.ID), 10)
	dst = append(dst, `,"rep":`...)
	dst = appendString(dst, c.Rep)
	dst = append(dst, `,"size":`...)
	return strconv.AppendInt(dst, int64(c.Size), 10)
}

// appendMachines encodes the machine list. sols, if non-nil, is parallel
// to machines and names, if non-nil, to the machines' seats in order; see
// appendMachine.
func appendMachines(dst []byte, machines []Machine, sols []*machineSolve, names []quotedName) ([]byte, error) {
	if machines == nil {
		return append(dst, "null"...), nil
	}
	var err error
	seat := 0
	dst = append(dst, '[')
	for mi := range machines {
		if mi > 0 {
			dst = append(dst, ',')
		}
		var sol *machineSolve
		if sols != nil {
			sol = sols[mi]
		}
		if dst, err = appendMachine(dst, &machines[mi], sol, names, seat); err != nil {
			return dst, err
		}
		seat += len(machines[mi].Tenants)
	}
	return append(dst, ']'), nil
}

// appendMachine encodes one machine. sol, if non-nil, is the solve it was
// seated from: wherever a field is bit-identical to the solve's, the
// solve's pre-rendered fragment is spliced in place of formatting it
// again. names[seat:], if non-nil, runs parallel to the machine's seats
// and is spliced the same way (see appendName), so the output (and any
// error) depends on the machine alone.
func appendMachine(dst []byte, m *Machine, sol *machineSolve, names []quotedName, seat int) ([]byte, error) {
	var err error
	var frag *solveFragments
	if sol != nil {
		if frag = sol.fragments(); !frag.ok {
			sol = nil // nothing to splice for this machine
		}
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(m.ID), 10)
	dst = append(dst, `,"key":`...)
	if sol != nil && m.Key == sol.display {
		dst = append(dst, frag.key...)
	} else {
		dst = appendString(dst, m.Key)
	}
	dst = append(dst, `,"tenants":`...)
	if m.Tenants == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range m.Tenants {
			pt := &m.Tenants[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = appendName(dst, pt.Name, names, seat+i)
			dst = append(dst, `,"class":`...)
			dst = strconv.AppendInt(dst, int64(pt.Class), 10)
			dst = append(dst, ',')
			if sol != nil && i < len(sol.costs) && sameBits(pt.Cost, sol.costs[i]) && sameShares(pt.Shares, sol.shares[i]) {
				dst = append(dst, frag.seats[i]...)
			} else if dst, err = appendSeatTail(dst, pt.Shares, pt.Cost); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total_cost":`...)
	if sol != nil && sameBits(m.TotalCost, sol.total) {
		dst = append(dst, frag.total...)
	} else if dst, err = AppendFloat(dst, m.TotalCost); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// sameMachine reports whether a and b are equal field for field, floats
// bit for bit, and so encode to the same bytes.
func sameMachine(a, b *Machine) bool {
	if a.ID != b.ID || a.Key != b.Key || !sameBits(a.TotalCost, b.TotalCost) ||
		len(a.Tenants) != len(b.Tenants) || (a.Tenants == nil) != (b.Tenants == nil) {
		return false
	}
	for i := range a.Tenants {
		x, y := &a.Tenants[i], &b.Tenants[i]
		if x.Name != y.Name || x.Class != y.Class || !sameBits(x.Cost, y.Cost) || !sameShares(x.Shares, y.Shares) {
			return false
		}
	}
	return true
}

// appendSeatTail appends what follows a seat's class: shares, cost and the
// closing brace.
func appendSeatTail(dst []byte, sh vm.Shares, cost float64) ([]byte, error) {
	var err error
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{`"shares":{"CPU":`, sh.CPU},
		{`,"Memory":`, sh.Memory},
		{`,"IO":`, sh.IO},
		{`},"cost":`, cost},
	} {
		dst = append(dst, f.name...)
		if dst, err = AppendFloat(dst, f.v); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// representation that round-trips, in exponent form below 1e-6 and from
// 1e21 with the exponent's leading zero dropped (e-09 → e-9). NaN and
// infinities are an error, as they are to encoding/json.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("placement: JSON cannot encode %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// plainByte marks the bytes encoding/json (HTML escaping on, its default)
// copies into a string unchanged: printable ASCII except the quote, the
// backslash and < > &.
var plainByte = func() (t [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's escaping:
// short escapes for quote, backslash, \b \f \n \r \t; \u00XX for other
// control bytes and < > &; \ufffd for invalid UTF-8; U+2028 and U+2029
// escaped; everything else verbatim.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is plain and not yet copied
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plainByte[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
